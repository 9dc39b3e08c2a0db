"""The shared response renderer is byte-identical to ``json.dumps(indent=2)``.

``render_json`` templates the row lists of query payloads and falls back
to ``json.dumps`` for everything else; the oracle is the serialisation
both front ends used before it existed.
"""

import datetime
import decimal
import json
import math

from hypothesis import given, settings, strategies as st

from repro.service.render import render_json


def oracle(payload):
    return json.dumps(payload, indent=2, default=str).encode("utf-8")


# Strings that need escaping (quotes, backslashes, control characters) and
# non-ASCII text (ensure_ascii turns them into \u escapes, surrogate pairs).
TEXT = st.one_of(
    st.text(max_size=8),
    st.sampled_from(['"', "\\", "\n", "\t", "\x00", "é", "☃", "😀", "a/b", ""]),
)
ITEMS = st.lists(TEXT, max_size=4)
# Values json.dumps cannot encode itself: rendered through default=str.
NON_JSON = st.one_of(
    st.builds(decimal.Decimal, st.integers(-1000, 1000)),
    st.just(datetime.date(2024, 2, 29)),
    st.frozensets(st.integers(0, 3), max_size=3),
    st.builds(complex, st.integers(-3, 3), st.integers(-3, 3)),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    TEXT,
    NON_JSON,
)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(TEXT, children, max_size=4),
    ),
    max_leaves=12,
)
# Row-shaped values: the template's exact key order with every field
# drawn from ints and near misses (bool, float, None, non-str items, empty
# item lists), plus reordered and extra keys.
COUNTS = st.integers(0, 10**6)
NUMBERS = st.one_of(COUNTS, st.booleans(), st.floats(allow_nan=False), st.none())
ROW_ITEMS = st.one_of(
    st.lists(TEXT, min_size=1, max_size=4), st.lists(SCALARS, max_size=3), VALUES
)
MATCH_ROWS = st.one_of(
    st.fixed_dictionaries({"slide": NUMBERS, "items": ROW_ITEMS, "support": NUMBERS}),
    st.fixed_dictionaries({"support": COUNTS, "items": ITEMS, "slide": COUNTS}),
    st.fixed_dictionaries({"slide": COUNTS, "items": ITEMS, "support": COUNTS, "x": VALUES}),
)
CURVE_ROWS = st.one_of(
    st.fixed_dictionaries({"slide": NUMBERS, "support": NUMBERS}),
    st.fixed_dictionaries({"support": COUNTS, "slide": COUNTS}),
)
ROW_LISTS = st.lists(st.one_of(MATCH_ROWS, CURVE_ROWS, VALUES), max_size=6)
KEYS = st.one_of(TEXT, st.sampled_from(["matches", "history", "count", "explain", "query"]))


@st.composite
def payloads(draw):
    """Query-payload-like dicts: row lists beside arbitrary members."""
    payload = {}
    for key in draw(st.lists(KEYS, max_size=6)):
        if key in ("matches", "history") and draw(st.booleans()):
            payload[key] = draw(ROW_LISTS)
        else:
            payload[key] = draw(VALUES)
    return payload


@settings(max_examples=250, deadline=None)
@given(payloads())
def test_payloads_render_like_json_dumps(payload):
    assert render_json(payload) == oracle(payload)


@settings(max_examples=250, deadline=None)
@given(st.lists(st.one_of(MATCH_ROWS, CURVE_ROWS), min_size=1, max_size=5), st.booleans())
def test_row_lists_render_like_json_dumps(rows, as_history):
    payload = {"query": {"select": {}}, "history" if as_history else "matches": rows, "count": 1}
    assert render_json(payload) == oracle(payload)


@settings(max_examples=150, deadline=None)
@given(VALUES)
def test_any_value_renders_like_json_dumps(value):
    assert render_json(value) == oracle(value)


NON_STRING_KEYS = st.one_of(st.integers(), st.booleans(), st.none(), st.floats(allow_nan=False))


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(NON_STRING_KEYS, VALUES, max_size=3))
def test_non_string_keys_render_like_json_dumps(payload):
    assert render_json(payload) == oracle(payload)


def test_query_payload_shapes():
    select = {
        "query": {"select": {"where": {"contains": ["a"]}}},
        "matches": [
            {"slide": 0, "items": ["a"], "support": 9},
            {"slide": 1, "items": ["a", "bé"], "support": 7},
        ],
        "count": 2,
        "explain": {"plan": ["contains(a) [driver, est=2]"], "q_error": 1.0},
    }
    history = {
        "query": {"history": {"items": ["a"]}},
        "history": [{"slide": 0, "support": 9}, {"slide": 1, "support": 0}],
        "first_frequent": 0,
        "last_frequent": None,
        "peak_support": 9,
        "explain": {},
    }
    empty = {"matches": [], "count": 0, "explain": {"plan": []}}
    for payload in (select, history, empty, {}, [], {"matches": [True]}):
        assert render_json(payload) == oracle(payload)
    assert render_json({"x": math.inf}) == oracle({"x": math.inf})
