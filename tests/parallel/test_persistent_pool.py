"""Persistent worker pools and the in-process degradation path (DESIGN.md §11)."""

import pytest

from repro.core.export import result_to_json
from repro.core.miner import StreamSubgraphMiner
from repro.datasets.random_graphs import GraphStreamGenerator, RandomGraphModel
from repro.exceptions import ParallelMiningError
from repro.parallel.pool import (
    PersistentWorkerPool,
    effective_workers,
    process_pools_available,
)


def _make_miner():
    model = RandomGraphModel(num_vertices=10, avg_fanout=3.0, seed=7)
    registry = model.registry()
    generator = GraphStreamGenerator(model, avg_edges_per_snapshot=4.0, seed=8)
    miner = StreamSubgraphMiner(
        window_size=3,
        batch_size=15,
        algorithm="vertical",
        registry=registry,
    )
    miner.add_snapshots(list(generator.snapshots(90)))
    return miner


def _mine(miner, workers):
    result = miner.mine(minsup=3, connected_only=True, workers=workers)
    return result_to_json(result, miner.registry)


class TestEffectiveWorkers:
    def test_sequential_request_stays_sequential(self):
        assert effective_workers(0, 10) == 0
        assert effective_workers(-2, 10) == 0

    def test_single_task_plans_run_in_process(self):
        assert effective_workers(4, 1) == 0
        assert effective_workers(4, 0) == 0

    def test_workers_capped_by_task_count(self):
        assert effective_workers(8, 3) == 3
        assert effective_workers(2, 5) == 2


class TestPersistentWorkerPool:
    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ParallelMiningError):
            PersistentWorkerPool(0)

    def test_executor_spawns_lazily_and_is_reused(self):
        with PersistentWorkerPool(1) as pool:
            assert pool.spawn_count == 0
            first = pool.executor()
            assert pool.spawn_count == 1
            assert pool.executor() is first
            assert pool.spawn_count == 1

    def test_mark_broken_respawns_on_next_use(self):
        with PersistentWorkerPool(1) as pool:
            first = pool.executor()
            pool.mark_broken()
            second = pool.executor()
            assert second is not first
            assert pool.spawn_count == 2

    def test_close_is_idempotent_and_blocks_reuse(self):
        pool = PersistentWorkerPool(1)
        pool.executor()
        pool.close()
        pool.close()
        assert pool.closed
        with pytest.raises(ParallelMiningError):
            pool.executor()


class TestMinerPoolLifecycle:
    def test_pool_amortised_across_mines(self):
        if not process_pools_available():
            pytest.skip("no process pools on this host")
        with _make_miner() as miner:
            reference = _mine(miner, workers=0)
            for _ in range(3):
                assert _mine(miner, workers=2) == reference
            assert miner.mining_pool is not None
            assert miner.mining_pool.spawn_count == 1

    def test_single_shard_plan_never_spawns(self):
        # workers=1 means one shard, and a one-shard plan runs in-process:
        # paying a process spawn to do sequential work was the old
        # workers=1 pathology (DESIGN.md §11).
        with _make_miner() as miner:
            reference = _mine(miner, workers=0)
            assert _mine(miner, workers=1) == reference
            pool = miner.mining_pool
            assert pool is None or pool.spawn_count == 0

    def test_pool_recreated_on_worker_count_change(self):
        if not process_pools_available():
            pytest.skip("no process pools on this host")
        with _make_miner() as miner:
            _mine(miner, workers=2)
            first = miner.mining_pool
            _mine(miner, workers=3)
            second = miner.mining_pool
            assert first.closed
            assert second is not first
            assert second.workers == 3

    def test_close_shuts_pool_and_miner_stays_usable(self):
        if not process_pools_available():
            pytest.skip("no process pools on this host")
        miner = _make_miner()
        reference = _mine(miner, workers=0)
        assert _mine(miner, workers=2) == reference
        pool = miner.mining_pool
        miner.close()
        miner.close()  # idempotent
        assert pool.closed
        assert miner.mining_pool is None
        # The miner itself survives close(); the next run gets a new pool.
        assert _mine(miner, workers=2) == reference
        miner.close()


class TestDegradation:
    def test_pools_unavailable_falls_back_in_process(self, monkeypatch):
        with _make_miner() as miner:
            reference = _mine(miner, workers=0)
            monkeypatch.setattr(
                "repro.parallel.pipeline.process_pools_available", lambda: False
            )
            assert _mine(miner, workers=2) == reference
            pool = miner.mining_pool
            assert pool is None or pool.spawn_count == 0
