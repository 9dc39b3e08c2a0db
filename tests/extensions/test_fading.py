"""Tests for the time-fading / landmark stream-model extensions."""

import pytest

from repro.core.algorithms import get_algorithm
from repro.core.algorithms.base import resolve_minsup
from repro.datasets.workloads import get_workload, stream_transactions
from repro.exceptions import MiningError
from repro.extensions.fading import (
    LandmarkCounter,
    TimeFadingVerticalMiner,
    batch_decay_weights,
    weighted_support,
)
from repro.storage.backend import MemoryWindowStore
from repro.storage.bitvector import BitVector
from repro.storage.dsmatrix import DSMatrix
from repro.stream.batch import Batch


class TestBatchDecayWeights:
    def test_newest_batch_has_weight_one(self):
        weights = batch_decay_weights(3, 0.5)
        assert weights == [0.25, 0.5, 1.0]

    def test_decay_one_gives_uniform_weights(self):
        assert batch_decay_weights(4, 1.0) == [1.0, 1.0, 1.0, 1.0]

    def test_zero_batches(self):
        assert batch_decay_weights(0, 0.5) == []

    def test_invalid_arguments(self):
        with pytest.raises(MiningError):
            batch_decay_weights(3, 0.0)
        with pytest.raises(MiningError):
            batch_decay_weights(3, 1.5)
        with pytest.raises(MiningError):
            batch_decay_weights(-1, 0.5)


class TestWeightedSupport:
    def test_weights_applied_per_batch_segment(self):
        # Two batches of three columns; pattern occurs twice in the old batch
        # and once in the new one.
        vector = BitVector.from_bitstring("110010")
        assert weighted_support(vector, [3, 6], [0.5, 1.0]) == pytest.approx(2.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(MiningError):
            weighted_support(BitVector.zeros(6), [3, 6], [1.0])

    def test_decay_one_equals_plain_count(self):
        vector = BitVector.from_bitstring("101101")
        assert weighted_support(vector, [3, 6], [1.0, 1.0]) == vector.count()


class TestTimeFadingVerticalMiner:
    def test_invalid_parameters(self):
        with pytest.raises(MiningError):
            TimeFadingVerticalMiner(decay=0)
        with pytest.raises(MiningError):
            TimeFadingVerticalMiner(decay=1.2)
        with pytest.raises(MiningError):
            TimeFadingVerticalMiner(decay=0.5).mine(DSMatrix(window_size=1), 0)

    def test_decay_one_matches_plain_vertical_miner(
        self, paper_window_matrix, paper_registry
    ):
        faded = TimeFadingVerticalMiner(decay=1.0).mine(paper_window_matrix, 2)
        plain = get_algorithm("vertical").mine(
            paper_window_matrix, 2, registry=paper_registry
        )
        assert set(faded) == set(plain)
        for items, support in plain.items():
            assert faded[items] == pytest.approx(float(support))

    def test_recent_batches_dominate_under_decay(self):
        # Item "old" only occurs in the first batch; "new" only in the last.
        matrix = DSMatrix(window_size=2)
        matrix.append_batch(Batch([["old"]] * 4))
        matrix.append_batch(Batch([["new"]] * 4))
        faded = TimeFadingVerticalMiner(decay=0.25).mine(matrix, 0.5)
        assert faded[frozenset({"new"})] == pytest.approx(4.0)
        assert faded[frozenset({"old"})] == pytest.approx(1.0)

    def test_low_weight_old_patterns_fall_below_threshold(self):
        matrix = DSMatrix(window_size=2)
        matrix.append_batch(Batch([["old", "x"]] * 4))
        matrix.append_batch(Batch([["new", "x"]] * 4))
        faded = TimeFadingVerticalMiner(decay=0.1).mine(matrix, 2.0)
        assert frozenset({"old"}) not in faded
        assert frozenset({"new"}) in faded
        assert frozenset({"new", "x"}) in faded

    def test_faded_support_is_anti_monotone(self, paper_window_matrix):
        faded = TimeFadingVerticalMiner(decay=0.7).mine(paper_window_matrix, 0.5)
        for items, support in faded.items():
            for item in items:
                subset = items - {item}
                if subset:
                    assert faded[subset] >= support - 1e-9

    def test_stats_populated(self, paper_window_matrix):
        miner = TimeFadingVerticalMiner(decay=0.9)
        miner.mine(paper_window_matrix, 1.0)
        assert miner.stats.patterns_found > 0
        assert miner.stats.bitvector_intersections > 0
        assert miner.decay == 0.9


class TestLandmarkCounter:
    def test_accumulates_without_eviction(self):
        counter = LandmarkCounter()
        counter.add_batch(Batch([["a", "b"], ["a"]]))
        counter.add_batch(Batch([["a"], ["b"]]))
        assert counter.transactions_seen == 4
        assert counter.batches_seen == 2
        assert counter.support("a") == 3
        assert counter.support("b") == 2
        assert counter.support("zzz") == 0

    def test_relative_support(self):
        counter = LandmarkCounter()
        assert counter.relative_support("a") == 0.0
        counter.add_batch(Batch([["a"], ["a"], ["b"], ["c"]]))
        assert counter.relative_support("a") == pytest.approx(0.5)

    def test_frequent_items_absolute_and_relative(self):
        counter = LandmarkCounter()
        counter.add_batch(Batch([["a", "b"], ["a"], ["a", "c"], ["b"]]))
        assert counter.frequent_items(3) == ["a"]
        assert counter.frequent_items(0.5) == ["a", "b"]
        with pytest.raises(MiningError):
            counter.frequent_items(0)

    def test_repr(self):
        assert "transactions=0" in repr(LandmarkCounter())


def test_decay_one_does_the_vertical_miners_intersections():
    """At decay 1 the faded miner walks vertical's search exactly: same
    ascending-support order, same per-prefix candidate lists — so the same
    patterns from the same number of intersections, on the first
    ``zipf-transactions[medium]`` window (10 x 500, minsup 0.05)."""
    units = list(
        stream_transactions(get_workload("zipf-transactions[medium]"), limit=5_000)
    )
    store = MemoryWindowStore(10)
    for index in range(10):
        store.append_batch(Batch(units[index * 500 : (index + 1) * 500], batch_id=index))
    minsup = resolve_minsup(0.05, store.num_columns)
    plain = get_algorithm("vertical")
    expected = plain.mine(store, minsup)
    faded_miner = TimeFadingVerticalMiner(decay=1.0)
    faded = faded_miner.mine(store, float(minsup))
    assert faded == {items: float(support) for items, support in expected.items()}
    assert faded_miner.stats.bitvector_intersections == plain.stats.bitvector_intersections
