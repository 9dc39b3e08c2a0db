"""The miner's seal path against the validating record constructor.

:class:`~repro.history.journal.SlideSealer` seals a ``MiningResult``'s
validated map without walking it through the canonicalising constructor
again, and interns item tuples against the previous slide.  For random
pattern → support maps — items that are prefixes of one another, non-ASCII
items, pattern sizes 1-4, several slides through one sealer — it must
build exactly the record ``SlideRecord(patterns=mapping)`` builds (equal,
with identical JRNL bytes), and the two must index and answer queries
identically.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.patterns import MiningResult
from repro.history.algebra import contains, evaluate, history, select, top_k
from repro.history.journal import SlideRecord, SlideSealer
from repro.serve.index import JournalIndex

#: Prefix chains ("a" < "ab" < "abc"), and non-ASCII items whose UTF-8 and
#: code-point orders must not be confused.
ITEMS = ["a", "ab", "abc", "b", "ba", "é", "éa", "ß", "日", "日本"]

patterns = st.frozensets(st.sampled_from(ITEMS), min_size=1, max_size=4)
supports = st.integers(min_value=0, max_value=2**32 - 1)
slide_maps = st.dictionaries(patterns, supports, min_size=1, max_size=12)


def header(slide_id):
    return dict(
        slide_id=slide_id, first_batch=0, last_batch=slide_id, num_columns=64, minsup=1
    )


@settings(max_examples=80, deadline=None)
@given(st.lists(slide_maps, min_size=1, max_size=4), st.sampled_from(ITEMS))
def test_seal_path_equals_the_validating_constructor(maps, item):
    sealer = SlideSealer()
    sealed, built = [], []
    for slide_id, mapping in enumerate(maps):
        record = sealer.seal(MiningResult.from_counts(mapping).counts, **header(slide_id))
        reference = SlideRecord(patterns=mapping, **header(slide_id))
        assert record == reference
        assert record.to_bytes() == reference.to_bytes()
        assert SlideRecord.from_bytes(record.to_bytes()) == record
        sealed.append(record)
        built.append(reference)

    index = JournalIndex(sealed).current
    reference_index = JournalIndex(built).current
    assert index.to_payload() == reference_index.to_payload()
    probe = built[0].patterns[0][0]
    for query in (select(contains(item)), top_k(3, contains(item)), history(*probe)):
        assert evaluate(query, index).payload() == evaluate(query, reference_index).payload()


def test_surviving_patterns_share_one_tuple_across_slides():
    sealer = SlideSealer()

    def seal(slide_id, counts):
        record = sealer.seal(MiningResult.from_counts(counts).counts, **header(slide_id))
        return {items: items for items, _ in record.patterns}

    first = seal(0, {frozenset("ab"): 3, frozenset("a"): 4})
    second = seal(1, {frozenset("ab"): 2, frozenset("b"): 2})
    assert second[("a", "b")] is first[("a", "b")]
    assert ("a",) not in second
    # The table holds the previous slide only: a pattern that skipped a
    # slide is sorted afresh, so the table never grows with the stream.
    third = seal(2, {frozenset("a"): 5, frozenset("ab"): 2})
    assert third[("a", "b")] is first[("a", "b")]
    assert third[("a",)] is not first[("a",)]
