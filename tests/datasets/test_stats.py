"""Tests for workload statistics (repro.datasets.stats)."""

import pytest

from repro.datasets.connect4 import Connect4LikeGenerator
from repro.datasets.paper_example import paper_example_snapshots, PAPER_TRANSACTIONS
from repro.datasets.stats import (
    SnapshotStats,
    item_support_distribution,
    snapshot_stats,
    transaction_stats,
)
from repro.exceptions import DatasetError


class TestTransactionStats:
    def test_empty(self):
        stats = transaction_stats([])
        assert stats.transaction_count == 0
        assert stats.density == 0.0

    def test_paper_window(self):
        stats = transaction_stats(PAPER_TRANSACTIONS[3:])
        assert stats.transaction_count == 6
        assert stats.distinct_items == 6
        assert stats.min_length == 3
        assert stats.max_length == 4
        assert stats.avg_length == pytest.approx(21 / 6)
        assert 0 < stats.density < 1

    def test_density_of_fully_dense_data(self):
        stats = transaction_stats([("a", "b"), ("a", "b")])
        assert stats.density == 1.0

    def test_connect4_like_density_is_high(self):
        transactions = Connect4LikeGenerator(seed=1).generate(50)
        stats = transaction_stats(transactions)
        assert stats.avg_length == 43
        assert stats.density > 0.3

    def test_as_dict_keys(self):
        stats = transaction_stats([("a",)])
        assert set(stats.as_dict()) == {
            "transactions",
            "distinct_items",
            "avg_length",
            "min_length",
            "max_length",
            "density",
        }


class TestSupportDistribution:
    def test_invalid_buckets(self):
        with pytest.raises(DatasetError):
            item_support_distribution([("a",)], buckets=0)

    def test_empty(self):
        assert item_support_distribution([], buckets=4) == [0, 0, 0, 0]

    def test_buckets_partition_items(self):
        transactions = [("a", "b"), ("a",), ("a", "c"), ("a", "b")]
        histogram = item_support_distribution(transactions, buckets=4)
        # a: 100% -> last bucket; b: 50% -> third bucket; c: 25% -> second bucket.
        assert sum(histogram) == 3
        assert histogram[3] == 1
        assert histogram[2] == 1
        assert histogram[1] == 1

    def test_full_support_lands_in_last_bucket(self):
        histogram = item_support_distribution([("x",), ("x",)], buckets=5)
        assert histogram[-1] == 1


class TestSnapshotStats:
    def test_empty(self):
        stats = snapshot_stats([])
        assert stats == SnapshotStats(0, 0, 0, 0.0, 0, 0.0)

    def test_paper_snapshots(self):
        stats = snapshot_stats(paper_example_snapshots())
        assert stats.snapshot_count == 9
        assert stats.distinct_vertices == 4
        assert stats.distinct_edges == 6
        # Union graph is the complete graph on 4 vertices: every degree is 3.
        assert stats.max_degree == 3
        assert stats.avg_degree == pytest.approx(3.0)
        assert stats.avg_edges_per_snapshot == pytest.approx(30 / 9)

    def test_as_dict_round_numbers(self):
        stats = snapshot_stats(paper_example_snapshots())
        flattened = stats.as_dict()
        assert flattened["snapshots"] == 9
        assert flattened["avg_degree"] == 3.0
