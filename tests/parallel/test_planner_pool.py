"""Unit tests for the shard planner, window rebuilds and segment handles."""

import pytest

from repro.exceptions import ParallelMiningError
from repro.parallel import ShardPlanner
from repro.parallel.worker import WindowTask, rebuild_window
from repro.storage.backend import MemoryWindowStore
from repro.storage.segments import SegmentHandle
from repro.stream.batch import Batch


def build_store(batch_sizes, window_size=None):
    store = MemoryWindowStore(window_size or len(batch_sizes))
    for index, size in enumerate(batch_sizes):
        transactions = [
            (f"i{index}", f"j{column % 3}") for column in range(size)
        ]
        store.append_batch(Batch(transactions, batch_id=index))
    return store


class TestShardPlanner:
    def test_rejects_non_positive_shard_count(self):
        with pytest.raises(ParallelMiningError):
            ShardPlanner(0)

    def test_empty_plans(self):
        planner = ShardPlanner(4)
        assert planner.plan_items([]) == []

    def test_item_shards_partition_round_robin(self):
        items = ["a", "b", "c", "d", "e"]
        shards = ShardPlanner(2).plan_items(items)
        assert [list(s.items) for s in shards] == [["a", "c", "e"], ["b", "d"]]
        flattened = sorted(i for s in shards for i in s.items)
        assert flattened == items

    def test_item_plan_is_deterministic(self):
        items = [f"x{i}" for i in range(17)]
        assert ShardPlanner(4).plan_items(items) == ShardPlanner(4).plan_items(items)


class TestWindowRebuild:
    def test_rebuild_reproduces_rows_and_counters(self):
        store = build_store([3, 4, 2])
        task = WindowTask(
            window_size=store.window_size,
            handles=tuple(store.segment_handles()),
            known_items=tuple(store.items()),
        )
        rebuilt = rebuild_window(task)
        assert rebuilt.items() == store.items()
        assert rebuilt.num_columns == store.num_columns
        assert rebuilt.batch_sizes() == store.batch_sizes()
        for item in store.items():
            assert rebuilt.row(item).bits == store.row(item).bits
        assert rebuilt.item_frequencies() == store.item_frequencies()


class TestSegmentHandle:
    def test_requires_exactly_one_source(self):
        from repro.exceptions import DSMatrixError

        with pytest.raises(DSMatrixError):
            SegmentHandle(segment_id=0, num_columns=3)
        with pytest.raises(DSMatrixError):
            SegmentHandle(segment_id=0, num_columns=3, path="x", payload=b"y")
