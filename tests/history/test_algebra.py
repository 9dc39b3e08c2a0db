"""Query-algebra correctness: compiled plans vs the brute-force interpreter.

Extends the PR 5 randomized harness (``test_query.random_journal``): random
algebra expressions are evaluated under the cost-based planner, under naive
left-to-right evaluation, and by ``brute_force_query`` over the raw
records — all three must agree row-for-row.  The planner unit tests pin
the smallest-posting-first conjunct ordering and the Explain payload.
"""

import json
import random
import warnings

import pytest

from repro.exceptions import AlgebraError, HistoryError
from repro.history.algebra import (
    And,
    BecameFrequentWithin,
    Contains,
    Slides,
    brute_force_query,
    became_frequent_within,
    contained_in,
    contains,
    describe,
    evaluate,
    first_frequent_in,
    history,
    not_,
    or_,
    and_,
    parse_predicate,
    parse_query,
    select,
    slides,
    support_between,
    support_gte,
    to_json,
    top_k,
)
from repro.history.journal import MemoryJournal, SlideRecord
from repro.history.query import (
    JournalIndex,
    brute_force_sub_patterns,
    brute_force_super_patterns,
    brute_force_support_history,
)
from repro.serve.shards import ShardedJournalIndex
from test_query import ITEMS, random_journal


def make_index(journal):
    return JournalIndex.from_journal(journal)


# ---------------------------------------------------------------------- #
# randomized expression generation (the equivalence suite's workload)
# ---------------------------------------------------------------------- #
def random_items(rng, max_size=4):
    size = rng.randint(1, max_size)
    return tuple(sorted(rng.sample(ITEMS, size)))


def random_leaf(rng):
    kind = rng.randrange(7)
    if kind == 0:
        return contains(*random_items(rng))
    if kind == 1:
        return contained_in(*random_items(rng))
    if kind == 2:
        return support_gte(rng.randint(0, 45))
    if kind == 3:
        lo = rng.randint(0, 30)
        return support_between(lo, lo + rng.randint(0, 20))
    if kind == 4:
        lo = rng.randint(-2, 13)
        return slides(lo, lo + rng.randint(0, 6))
    if kind == 5:
        lo = rng.randint(0, 11)
        return first_frequent_in(lo, lo + rng.randint(0, 5))
    return became_frequent_within(rng.randint(0, 4), of=random_items(rng, 2))


def random_predicate(rng, depth=0):
    if depth >= 2 or rng.random() < 0.45:
        return random_leaf(rng)
    kind = rng.randrange(3)
    if kind == 0:
        return and_(*(random_predicate(rng, depth + 1) for _ in range(rng.randint(2, 3))))
    if kind == 1:
        return or_(*(random_predicate(rng, depth + 1) for _ in range(rng.randint(2, 3))))
    return not_(random_predicate(rng, depth + 1))


def random_query(rng):
    kind = rng.randrange(4)
    if kind == 3:
        return history(*random_items(rng, 3))
    if kind == 2:
        return top_k(rng.randint(1, 8), where=random_predicate(rng))
    return select(random_predicate(rng))


@pytest.mark.parametrize("seed", [1, 7, 23, 99])
class TestPlannerMatchesBruteForce:
    def test_randomized_equivalence(self, seed):
        journal = random_journal(seed)
        index = make_index(journal)
        records = journal.records()
        rng = random.Random(seed + 5000)
        for _ in range(40):
            query = random_query(rng)
            oracle = brute_force_query(query, records)
            planner = evaluate(query, index, optimize=True)
            naive = evaluate(query, index, optimize=False)
            result = planner.curve if planner.kind == "history" else planner.matches
            ablation = naive.curve if naive.kind == "history" else naive.matches
            assert result == oracle, describe(query)
            assert ablation == oracle, describe(query)

    def test_json_round_trip(self, seed):
        rng = random.Random(seed + 9000)
        for _ in range(40):
            query = random_query(rng)
            encoded = to_json(query)
            json.dumps(encoded)  # JSON-serialisable all the way down
            assert parse_query(encoded) == query

    def test_explain_is_consistent(self, seed):
        journal = random_journal(seed)
        index = make_index(journal)
        rng = random.Random(seed + 13000)
        for _ in range(20):
            query = random_query(rng)
            explain = evaluate(query, index).explain
            assert explain["q_error"] >= 1.0
            assert explain["scanned"] >= 0
            assert explain["actual_rows"] >= 0
            assert explain["plan"], describe(query)


def random_access_path_query(rng):
    """Queries with their own access paths: rank merge and provenance drivers."""
    k = rng.randint(1, 12)
    lo = rng.randint(-2, 13)
    hi = lo + rng.randint(0, 6)
    kind = rng.randrange(7)
    if kind == 0:
        return top_k(k)
    if kind == 1:
        return top_k(k, where=slides(lo, hi))
    if kind == 2:
        return top_k(k, where=and_(slides(lo, None), slides(None, hi), slides(lo - 1, hi)))
    if rng.random() < 0.5:
        provenance = first_frequent_in(lo, hi)
    else:
        provenance = became_frequent_within(rng.randint(0, 4), of=random_items(rng, 2))
    if kind == 3:
        return select(provenance)
    if kind == 4:
        return select(and_(provenance, slides(lo, hi)))
    if kind == 5:
        return select(and_(random_leaf(rng), provenance))
    return top_k(k, where=provenance)


@pytest.mark.parametrize("seed", [1, 7, 23, 99])
def test_access_paths_match_brute_force_on_both_readers(seed):
    """top_k with and without a slide range, first_frequent_in and
    became_frequent_within agree with the oracle on both IndexReaders,
    under both planners, with identical payloads (Explain included)."""
    journal = random_journal(seed, slides=14)
    records = journal.records()
    readers = [JournalIndex(records), ShardedJournalIndex(records, shard_count=3).current]
    rng = random.Random(seed + 17000)
    for _ in range(60):
        query = random_access_path_query(rng)
        oracle = brute_force_query(query, records)
        for reader in readers:
            for optimize in (True, False):
                assert evaluate(query, reader, optimize).matches == oracle, describe(query)
        payloads = [evaluate(query, reader).payload() for reader in readers]
        assert payloads[0] == payloads[1], describe(query)


class TestLegacySurfaceEquivalence:
    """Every legacy query path is one algebra expression, byte-identical."""

    @pytest.mark.parametrize("seed", [3, 41])
    def test_legacy_queries_as_algebra(self, seed):
        journal = random_journal(seed)
        index = make_index(journal)
        records = journal.records()
        rng = random.Random(seed + 100)
        for _ in range(25):
            items = random_items(rng, 3)
            super_plan = select(contains(*items))
            assert evaluate(super_plan, index).matches == brute_force_super_patterns(
                records, items
            )
            sub_plan = select(contained_in(*items))
            assert evaluate(sub_plan, index).matches == brute_force_sub_patterns(
                records, items
            )
            curve_plan = history(*items)
            assert evaluate(curve_plan, index).curve == brute_force_support_history(
                records, items
            )
        # exact match == contains AND contained_in
        items = random_items(rng, 2)
        exact_plan = select(and_(contains(*items), contained_in(*items)))
        expected = [
            match
            for match in brute_force_super_patterns(records, items)
            if match[1] == items
        ]
        assert evaluate(exact_plan, index).matches == expected
        # legacy top_k == top_k over a one-slide range
        last = index.last_slide_id
        plan = top_k(5, where=slides(last, last))
        legacy = sorted(
            index.patterns_at(last).items(),
            key=lambda entry: (-entry[1], len(entry[0]), entry[0]),
        )[:5]
        assert evaluate(plan, index).matches == [
            (last, items, support) for items, support in legacy
        ]

    def test_deprecated_shims_warn_and_delegate(self):
        journal = random_journal(11)
        index = make_index(journal)
        records = journal.records()
        with pytest.warns(DeprecationWarning):
            assert index.super_patterns(("a",)) == brute_force_super_patterns(
                records, ("a",)
            )
        with pytest.warns(DeprecationWarning):
            assert index.sub_patterns(("a", "b")) == brute_force_sub_patterns(
                records, ("a", "b")
            )
        with pytest.warns(DeprecationWarning):
            assert index.support_history(("a",)) == brute_force_support_history(
                records, ("a",)
            )
        with pytest.warns(DeprecationWarning):
            index.top_k(3)

    def test_deprecated_shims_preserve_error_behaviour(self):
        index = make_index(random_journal(11))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            with pytest.raises(HistoryError):
                index.super_patterns(("a",), slide_id=999)
            with pytest.raises(HistoryError):
                index.top_k(0)
            with pytest.raises(HistoryError):
                index.top_k(1, slide_id=999)
            with pytest.raises(HistoryError):
                index.support_history(())


def controlled_journal():
    """One journal with a deliberately skewed posting distribution.

    Item ``a`` appears in every pattern (the biggest posting list); item
    ``j`` appears exactly once — the planner must drive from ``j``.
    """
    journal = MemoryJournal()
    for slide in range(4):
        patterns = {("a",): 9, ("a", "b"): 7, ("a", "c"): 6, ("a", "b", "c"): 4}
        if slide == 2:
            patterns[("a", "j")] = 3
        journal.append(
            SlideRecord(
                slide_id=slide,
                first_batch=slide,
                last_batch=slide,
                num_columns=20,
                minsup=2,
                patterns=tuple(patterns.items()),
            )
        )
    return journal


class TestPlannerOrdering:
    """The cost model: smallest posting first, naive = written order."""

    def test_conjunct_reorder_smallest_first(self):
        index = make_index(controlled_journal())
        # 'a' is written first; the planner must still drive from 'j'.
        query = select(and_(contains("a"), contains("j")))
        planned = evaluate(query, index, optimize=True)
        assert planned.explain["plan"][0].startswith("contains(j)")
        naive = evaluate(query, index, optimize=False)
        assert naive.explain["plan"][0].startswith("contains(a)")
        assert planned.matches == naive.matches
        # Driving from j's posting touches 1 row; from a's, every row.
        assert planned.explain["scanned"] == 1
        assert naive.explain["scanned"] == index.posting_total("a")

    def test_rarest_item_inside_one_contains(self):
        index = make_index(controlled_journal())
        # One leaf, two items: enumeration must use the rarer item's posting.
        query = select(contains("a", "j"))
        planned = evaluate(query, index, optimize=True)
        assert planned.explain["scanned"] == index.posting_total("j") == 1
        naive = evaluate(query, index, optimize=False)
        assert naive.explain["scanned"] == index.posting_total("a")
        assert planned.matches == naive.matches == [(2, ("a", "j"), 3)]

    def test_slide_range_pushdown(self):
        index = make_index(controlled_journal())
        query = select(and_(contains("a"), slides(1, 2)))
        evaluation = evaluate(query, index)
        # Only the 2 slides in range are enumerated: 4 + 5 postings of 'a'.
        assert evaluation.explain["scanned"] == 9
        assert {match[0] for match in evaluation.matches} == {1, 2}
        assert any("range" in line for line in evaluation.explain["plan"])

    def test_estimate_uses_known_posting_lengths(self):
        index = make_index(controlled_journal())
        evaluation = evaluate(select(contains("j")), index)
        assert evaluation.explain["estimated_scanned"] == index.posting_total("j")
        assert evaluation.explain["estimated_rows"] == 1
        assert evaluation.explain["actual_rows"] == 1
        assert evaluation.explain["q_error"] == 1.0

    def test_slides_between_bisects_the_slide_order(self):
        index = make_index(controlled_journal())
        assert index.slides_between(1, 2) == [1, 2]
        assert index.slides_between(None, 1) == [0, 1]
        assert index.slides_between(2, None) == [2, 3]
        assert index.slides_between(None, None) == [0, 1, 2, 3]
        assert index.slides_between(5, 9) == [] and index.slides_between(-3, -1) == []

    def test_provenance_driver_probes_only_new_patterns(self):
        index = make_index(controlled_journal())
        query = select(first_frequent_in(1, 3))
        planned = evaluate(query, index, optimize=True)
        # One pattern ('a','j') is first seen in [1, 3], at slide 2: it is
        # probed in slides 2 and 3 only.
        assert planned.explain["plan"][0].startswith(
            "first_frequent in [1,3] [provenance driver, 1 patterns"
        )
        assert planned.explain["scanned"] == planned.explain["estimated_scanned"] == 2
        naive = evaluate(query, index, optimize=False)
        assert naive.explain["plan"][0].startswith("full-scan")
        assert planned.matches == naive.matches == [(2, ("a", "j"), 3)]
        within = evaluate(select(became_frequent_within(0, of=("j", "a"))), index)
        assert within.explain["plan"][0].startswith("became_frequent_within")
        assert within.matches == [(2, ("a", "j"), 3)]
        # Five patterns are first seen in [0, 3]: 4 x 4 + 2 = 18 probes
        # against a 17-row scan, so the planner keeps the scan.
        assert evaluate(select(first_frequent_in(0, 3)), index).explain["plan"][0].startswith(
            "full-scan"
        )

    def test_top_k_merges_per_slide_rank_orders(self):
        index = make_index(controlled_journal())
        evaluation = evaluate(top_k(3), index)
        assert evaluation.explain["plan"][0].startswith("rank-merge")
        assert evaluation.matches == [(0, ("a",), 9), (1, ("a",), 9), (2, ("a",), 9)]
        # The head of each of the 4 slides plus the rows pulled after them.
        assert evaluation.explain["scanned"] <= 4 + 3
        assert evaluation.explain["actual_rows"] == 17
        ranged = evaluate(top_k(2, where=slides(3, 3)), index)
        assert ranged.matches == [(3, ("a",), 9), (3, ("a", "b"), 7)]
        assert ranged.explain["scanned"] <= 2

    def test_full_scan_when_no_indexable_conjunct(self):
        index = make_index(controlled_journal())
        evaluation = evaluate(select(support_gte(7)), index)
        total = sum(index.row_count(slide) for slide in index.slide_ids())
        assert evaluation.explain["scanned"] == total
        assert evaluation.explain["plan"][0].startswith("full-scan")
        assert all(match[2] >= 7 for match in evaluation.matches)


class TestParsing:
    def test_unknown_operator_path(self):
        with pytest.raises(AlgebraError) as excinfo:
            parse_query(
                {"select": {"where": {"and": [{"contains": ["a"]}, {"bogus": 1}]}}}
            )
        assert excinfo.value.path == "$.select.where.and[1].bogus"
        assert excinfo.value.code == "malformed-expression"

    def test_unknown_shape(self):
        with pytest.raises(AlgebraError) as excinfo:
            parse_query({"frobnicate": {}})
        assert excinfo.value.path == "$.frobnicate"

    def test_multi_key_object_rejected(self):
        with pytest.raises(AlgebraError):
            parse_query({"select": {"where": {"contains": ["a"]}}, "top_k": {"k": 1}})

    def test_empty_items_rejected_with_path(self):
        with pytest.raises(AlgebraError) as excinfo:
            parse_predicate({"contains": []})
        assert excinfo.value.path == "$.contains"

    def test_bad_bounds_and_k(self):
        with pytest.raises(AlgebraError):
            parse_predicate({"slides": [5, 2]})
        with pytest.raises(AlgebraError):
            parse_predicate({"support_between": [9, 1]})
        with pytest.raises(AlgebraError) as excinfo:
            parse_query({"top_k": {"k": 0}})
        assert excinfo.value.path == "$.top_k.k"

    def test_became_frequent_within_shape(self):
        parsed = parse_predicate(
            {"became_frequent_within": {"k": 2, "of": ["b", "a"]}}
        )
        assert parsed == BecameFrequentWithin(2, ("a", "b"))
        with pytest.raises(AlgebraError):
            parse_predicate({"became_frequent_within": {"k": 2}})

    def test_constructor_validation(self):
        with pytest.raises(AlgebraError):
            contains()
        with pytest.raises(AlgebraError):
            support_gte(-1)
        with pytest.raises(AlgebraError):
            top_k(0)
        with pytest.raises(AlgebraError):
            Slides(7, 3)
        with pytest.raises(AlgebraError):
            And(())

    def test_constructors_normalise_items(self):
        assert Contains(("b", "a", "b")).items == ("a", "b")
        assert contains("c", "a").items == ("a", "c")

    def test_and_or_single_child_collapse(self):
        leaf = contains("a")
        assert and_(leaf) is leaf
        assert or_(leaf) is leaf


class TestEvaluationShapes:
    def test_history_payload_fields(self):
        journal = random_journal(5)
        index = make_index(journal)
        evaluation = evaluate(history("a"), index)
        payload = evaluation.payload()
        assert payload["first_frequent"] == index.first_frequent(("a",))
        assert payload["last_frequent"] == index.last_frequent(("a",))
        assert payload["peak_support"] == max(
            (point["support"] for point in payload["history"]), default=0
        )
        assert payload["explain"]["q_error"] == 1.0

    def test_select_orders_by_slide_size_items(self):
        index = make_index(random_journal(17))
        matches = evaluate(select(contains("a")), index).matches
        keys = [(slide, len(items), items) for slide, items, _ in matches]
        assert keys == sorted(keys)

    def test_top_k_orders_by_support(self):
        index = make_index(random_journal(17))
        matches = evaluate(top_k(6), index).matches
        supports = [support for _, _, support in matches]
        assert supports == sorted(supports, reverse=True)

    def test_empty_index(self):
        index = JournalIndex(())
        assert evaluate(select(contains("a")), index).matches == []
        assert evaluate(top_k(3), index).matches == []
        evaluation = evaluate(history("a"), index)
        assert evaluation.curve == [] and evaluation.first_frequent is None
