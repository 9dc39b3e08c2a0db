"""Resident window replicas in the mining workers (DESIGN.md §4.2).

One store's successive windows are driven through ``run_mining_shard`` —
directly (the replica then lives in this process) and through real pools —
in sequences that continue, skip, repeat, switch lineage, fail a load
and respawn the pool.  Every answer must equal
mining a freshly rebuilt window, and runs that execute in the coordinating
process must not leave a replica behind.
"""

import pytest

from repro import faults
from repro.core.algorithms import get_algorithm
from repro.core.algorithms.base import resolve_minsup
from repro.datasets.synthetic import IBMSyntheticGenerator
from repro.exceptions import DSMatrixError
from repro.parallel import worker
from repro.parallel.api import mine_window_parallel
from repro.parallel.planner import ShardPlanner
from repro.parallel.pool import PersistentWorkerPool, process_pools_available
from repro.parallel.worker import MiningShardTask, WindowTask, run_mining_shard
from repro.resilience import EventLog, FailurePolicy
from repro.storage.backend import MemoryWindowStore
from repro.storage.segments import SegmentHandle
from repro.stream.stream import TransactionStream

TRANSACTIONS = IBMSyntheticGenerator(seed=11).generate(240)
BATCH_SIZE = 20
WINDOW_SIZE = 3
MINSUP = 0.2

FAST = FailurePolicy(max_retries=2, backoff_s=0.001, max_backoff_s=0.002, jitter=0.0)

pool_required = pytest.mark.skipif(
    not process_pools_available(), reason="process pools unavailable on this host"
)


def batches(transactions=TRANSACTIONS):
    return list(TransactionStream(transactions, batch_size=BATCH_SIZE).batches())


def absolute(store):
    return resolve_minsup(MINSUP, store.num_columns)


def fresh_answer(store):
    """Sequential mining of a window rebuilt from the store's segments."""
    rebuilt = MemoryWindowStore.from_segments(
        store.window_size, store.segments(), known_items=store.items()
    )
    return get_algorithm("vertical").mine(rebuilt, absolute(store))


def window_task(store, handles=None):
    return WindowTask(
        window_size=store.window_size,
        handles=tuple(store.segment_handles() if handles is None else handles),
        known_items=tuple(store.items()),
        lineage=store.lineage,
    )


def mine_here(store, shards=2, handles=None):
    """Every shard of the store's window through ``run_mining_shard``, here."""
    window = window_task(store, handles)
    minsup = absolute(store)
    merged = {}
    for shard in ShardPlanner(shards).plan_items(store.frequent_items(minsup)):
        task = MiningShardTask(shard.shard_id, "vertical", minsup, shard.items, window)
        merged.update(run_mining_shard(task).patterns)
    return merged


def replica():
    """This process's resident replica store (``None`` when there is none)."""
    return worker._REPLICA[1] if worker._REPLICA is not None else None


def segment_ids(store):
    return [segment.segment_id for segment in store.segments()]


@pytest.fixture(autouse=True)
def no_replica():
    worker._REPLICA = None
    yield
    worker._REPLICA = None
    faults.uninstall_plan()


class TestReplicaInProcess:
    def test_consecutive_slides_continue_one_replica(self):
        store = MemoryWindowStore(WINDOW_SIZE)
        resident = None
        for batch in batches():
            store.append_batch(batch)
            assert mine_here(store) == fresh_answer(store)
            if resident is None:
                resident = replica()
            assert replica() is resident  # slid forward, never rebuilt
            assert segment_ids(resident) == segment_ids(store)
        assert resident.cache_stats.row_slide_updates > 0

    def test_skipped_slides(self):
        store = MemoryWindowStore(WINDOW_SIZE)
        stream = batches()
        for batch in stream[:4]:
            store.append_batch(batch)
        assert mine_here(store) == fresh_answer(store)
        resident = replica()
        # Two slides skipped: still continuable from the resident window.
        for batch in stream[4:6]:
            store.append_batch(batch)
        assert mine_here(store) == fresh_answer(store)
        assert replica() is resident
        # More slides skipped than the window holds: the gap forces a rebuild.
        for batch in stream[6:11]:
            store.append_batch(batch)
        assert mine_here(store) == fresh_answer(store)
        assert replica() is not resident
        assert segment_ids(replica()) == segment_ids(store)

    def test_repeated_slide_reuses_the_replica(self):
        store = MemoryWindowStore(WINDOW_SIZE)
        for batch in batches()[:5]:
            store.append_batch(batch)
        first = mine_here(store)
        resident = replica()
        assert mine_here(store, shards=3) == first == fresh_answer(store)
        assert replica() is resident
        assert segment_ids(resident) == segment_ids(store)

    def test_older_window_of_the_same_lineage_rebuilds(self):
        store = MemoryWindowStore(WINDOW_SIZE)
        stream = batches()
        for batch in stream[:4]:
            store.append_batch(batch)
        old_handles = tuple(store.segment_handles())
        old = MemoryWindowStore.from_segments(
            WINDOW_SIZE, store.segments(), known_items=store.items()
        )
        store.append_batch(stream[4])
        mine_here(store)
        resident = replica()
        window = WindowTask(
            window_size=WINDOW_SIZE,
            handles=old_handles,
            known_items=tuple(store.items()),
            lineage=store.lineage,
        )
        minsup = absolute(old)
        merged = {}
        for shard in ShardPlanner(2).plan_items(old.frequent_items(minsup)):
            task = MiningShardTask(shard.shard_id, "vertical", minsup, shard.items, window)
            merged.update(run_mining_shard(task).patterns)
        assert merged == fresh_answer(old)
        assert replica() is not resident

    def test_second_store_with_colliding_segment_ids(self):
        left = MemoryWindowStore(WINDOW_SIZE)
        right = MemoryWindowStore(WINDOW_SIZE)
        for mine_left, mine_right in zip(batches(), batches(TRANSACTIONS[::-1])):
            left.append_batch(mine_left)
            right.append_batch(mine_right)
            assert segment_ids(left) == segment_ids(right)
            assert mine_here(left) == fresh_answer(left)
            assert worker._REPLICA[0] == left.lineage
            assert mine_here(right) == fresh_answer(right)
            assert worker._REPLICA[0] == right.lineage
        assert fresh_answer(left) != fresh_answer(right)

    def test_reloaded_store_gets_a_new_lineage(self):
        store = MemoryWindowStore(WINDOW_SIZE)
        for batch in batches()[:4]:
            store.append_batch(batch)
        reloaded = MemoryWindowStore.from_segments(
            WINDOW_SIZE, store.segments(), known_items=store.items()
        )
        assert reloaded.lineage != store.lineage

    def test_failed_load_leaves_the_replica_at_its_earlier_window(self, tmp_path):
        store = MemoryWindowStore(WINDOW_SIZE)
        stream = batches()
        for batch in stream[:4]:
            store.append_batch(batch)
        mine_here(store)
        resident = replica()
        before = segment_ids(resident)
        store.append_batch(stream[4])
        store.append_batch(stream[5])
        handles = store.segment_handles()
        newest = handles[-1]
        handles[-1] = SegmentHandle(
            segment_id=newest.segment_id,
            num_columns=newest.num_columns,
            path=str(tmp_path / "missing.dsg"),
        )
        with pytest.raises(DSMatrixError):
            mine_here(store, handles=handles)
        # Segment 4 loaded fine, but nothing was appended before segment 5
        # failed: the replica still holds the earlier, consistent window.
        assert replica() is resident
        assert segment_ids(resident) == before
        assert mine_here(store) == fresh_answer(store)
        assert replica() is resident

    def test_fresh_process_rebuilds(self):
        store = MemoryWindowStore(WINDOW_SIZE)
        for batch in batches()[:5]:
            store.append_batch(batch)
            mine_here(store)
        worker._REPLICA = None  # what a respawned worker starts with
        store.append_batch(batches()[5])
        assert mine_here(store) == fresh_answer(store)
        assert segment_ids(replica()) == segment_ids(store)

    def test_in_process_runs_leave_no_replica(self):
        store = MemoryWindowStore(WINDOW_SIZE)
        for batch in batches()[:6]:
            store.append_batch(batch)
            for shards in (None, 3):
                patterns, _ = mine_window_parallel(
                    store, "vertical", absolute(store), workers=0, num_shards=shards
                )
                assert patterns == fresh_answer(store)
                assert replica() is None


@pool_required
class TestReplicaInPools:
    def slide_through(self, plan, policy=FAST, pool=None):
        faults.install_plan(plan)
        events = EventLog()
        store = MemoryWindowStore(WINDOW_SIZE)
        for batch in batches():
            store.append_batch(batch)
            patterns, _ = mine_window_parallel(
                store,
                "vertical",
                absolute(store),
                workers=2,
                pool=pool,
                policy=policy,
                events=events,
            )
            assert patterns == fresh_answer(store)
            assert replica() is None
        return events.counts()

    def test_answers_survive_a_pool_respawn(self):
        with PersistentWorkerPool(2) as pool:
            counts = self.slide_through("mine.shard@3:crash", pool=pool)
            assert pool.spawn_count >= 2
        assert counts.get("respawn", 0) >= 1

    def test_speculative_runs_leave_no_replica(self):
        policy = FailurePolicy(
            backoff_s=0.001, max_backoff_s=0.002, jitter=0.0, task_timeout_s=0.05
        )
        faults.install_plan("mine.shard@1:sleep~0.3")
        events = EventLog()
        store = MemoryWindowStore(WINDOW_SIZE)
        for batch in batches()[:4]:
            store.append_batch(batch)
        patterns, _ = mine_window_parallel(
            store, "vertical", absolute(store), workers=2, policy=policy, events=events
        )
        assert patterns == fresh_answer(store)
        assert events.counts().get("timeout", 0) >= 1
        assert replica() is None
