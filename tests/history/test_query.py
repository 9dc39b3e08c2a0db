"""Index correctness: every query over a snapshot must match a journal scan.

The index is :class:`~repro.serve.index.IndexSnapshot`.  The references are the ``brute_force_*``
scans of ``tests.helpers``, which do not share the algebra's row matcher.
"""

import random

import pytest

from repro.exceptions import AlgebraError, HistoryError
from repro.history import algebra
from repro.serve.index import JournalIndex

from tests.helpers import (
    ITEMS,
    brute_force_sub_patterns,
    brute_force_super_patterns,
    brute_force_support_history,
    random_journal,
)


def snapshot_of(journal):
    return JournalIndex(journal.records()).current


def random_queries(rng, count=40):
    for _ in range(count):
        size = rng.randint(1, 4)
        yield tuple(sorted(rng.sample(ITEMS, size)))


@pytest.mark.parametrize("seed", [1, 7, 23, 99])
class TestIndexMatchesBruteForce:
    def test_super_pattern_match(self, seed):
        journal = random_journal(seed)
        index = snapshot_of(journal)
        rng = random.Random(seed + 1000)
        for query in random_queries(rng):
            expected = brute_force_super_patterns(journal.records(), query)
            matches = algebra.evaluate(algebra.select(algebra.contains(*query)), index)
            assert sorted(matches.matches) == sorted(expected)

    def test_super_pattern_match_at_one_slide(self, seed):
        journal = random_journal(seed)
        index = snapshot_of(journal)
        rng = random.Random(seed + 2000)
        for query in random_queries(rng, count=15):
            slide = rng.choice(journal.slide_ids())
            expected = brute_force_super_patterns(
                journal.records(), query, slide_id=slide
            )
            where = algebra.and_(algebra.contains(*query), algebra.slides(slide, slide))
            matches = algebra.evaluate(algebra.select(where), index).matches
            assert sorted(matches) == sorted(expected)

    def test_sub_pattern_match(self, seed):
        journal = random_journal(seed)
        index = snapshot_of(journal)
        rng = random.Random(seed + 3000)
        for query in random_queries(rng):
            expected = brute_force_sub_patterns(journal.records(), query)
            select = algebra.select(algebra.contained_in(*query))
            assert algebra.evaluate(select, index).matches == expected

    def test_support_history(self, seed):
        journal = random_journal(seed)
        index = snapshot_of(journal)
        rng = random.Random(seed + 4000)
        for query in random_queries(rng):
            expected = brute_force_support_history(journal.records(), query)
            assert algebra.evaluate(algebra.history(*query), index).curve == expected

    def test_first_and_last_frequent(self, seed):
        journal = random_journal(seed)
        index = snapshot_of(journal)
        rng = random.Random(seed + 5000)
        for query in random_queries(rng):
            frequent_slides = [
                record.slide_id
                for record in journal
                if record.support_of(query) is not None
            ]
            assert index.first_frequent(query) == (
                frequent_slides[0] if frequent_slides else None
            )
            assert index.last_frequent(query) == (
                frequent_slides[-1] if frequent_slides else None
            )

    def test_top_k(self, seed):
        journal = random_journal(seed)
        index = snapshot_of(journal)
        for record in journal:
            ranked = sorted(
                record.patterns, key=lambda entry: (-entry[1], len(entry[0]), entry[0])
            )
            slide = algebra.slides(record.slide_id, record.slide_id)
            for k in (1, 3, 50):
                expected = [
                    (record.slide_id, items, support)
                    for items, support in ranked[:k]
                ]
                top = algebra.evaluate(algebra.top_k(k, where=slide), index)
                assert top.matches == expected


class TestIndexBehaviour:
    def test_top_k_defaults_to_newest_slide(self):
        # ``top_k`` ranks across every slide unless a ``slides`` range
        # restricts it; the newest slide is the one-slide range at
        # ``last_slide_id``.
        index = snapshot_of(random_journal(5))
        newest = algebra.slides(index.last_slide_id, index.last_slide_id)
        matches = algebra.evaluate(algebra.top_k(3, where=newest), index).matches
        assert matches
        assert all(slide == index.last_slide_id for slide, _, _ in matches)

    def test_empty_index(self):
        index = JournalIndex(()).current
        assert len(index) == 0
        assert index.last_slide_id is None
        assert algebra.evaluate(algebra.top_k(3), index).matches == []
        assert algebra.evaluate(algebra.history("a"), index).curve == []
        assert index.stats()["slides"] == 0

    def test_unknown_slide_rejected(self):
        index = snapshot_of(random_journal(3))
        with pytest.raises(HistoryError):
            index.patterns_at(999)
        assert not index.has_slide(999)
        assert index.support_at(999, ("a",)) is None
        assert index.posting("a", 999) == ()

    def test_empty_query_rejected(self):
        index = snapshot_of(random_journal(3))
        with pytest.raises(AlgebraError):
            algebra.history()
        with pytest.raises(AlgebraError):
            algebra.top_k(0)
        with pytest.raises(HistoryError):
            index.last_frequent(())

    def test_extend_enforces_slide_order(self):
        journal = random_journal(11, slides=4)
        index = JournalIndex(journal.records())
        with pytest.raises(HistoryError, match="breaks the index's slide order"):
            index.extend([journal.record(0)])

    def test_stats_shape(self):
        journal = random_journal(2)
        stats = snapshot_of(journal).stats()
        assert stats["slides"] == len(journal)
        assert stats["first_slide"] == 0
        assert stats["last_slide"] == journal.last_slide_id
        assert stats["pattern_rows"] == sum(r.pattern_count for r in journal)
        assert stats["distinct_patterns"] <= stats["pattern_rows"]
