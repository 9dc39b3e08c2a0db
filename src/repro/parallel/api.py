"""High-level entry points of parallel mining.

:func:`mine_slides` is a watch's slide stage (DESIGN.md §9.3): one
whole-window task per slide, mined by the algorithm's own ``mine`` in a
worker that continues its resident window replica, handed back in slide
order.  :func:`mine_window_parallel` mines ONE window over item shards: it
ties the planner, the pipelined executor and the merge layer together
(DESIGN.md §4).  Shard results are merged
incrementally, as each shard finishes, in shard order — the merged
answer is identical to the barrier merge because shards are disjoint and
commits are ordered.  ``workers=0`` executes the identical shard plan in
the calling process, so the two modes return byte-identical results —
the property the parity suite pins down.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from repro.core.algorithms import ALGORITHMS
from repro.core.algorithms.base import MiningAlgorithm, MiningStats
from repro.core.patterns import PatternRows
from repro.exceptions import ParallelMiningError
from repro.graph.edge_registry import EdgeRegistry
from repro.parallel.merge import check_distinct, merge_rows_into, merge_stats
from repro.parallel.pipeline import PipelineExecutor
from repro.parallel.planner import ShardPlanner
from repro.parallel.pool import PersistentWorkerPool, effective_workers
from repro.resilience import EventLog, FailurePolicy
from repro.parallel.worker import (
    MiningShardTask,
    MiningSlideTask,
    ShardOutcome,
    SlideOutcome,
    WindowTask,
    clear_mining_worker,
    run_mining_shard,
    run_mining_slide,
)
from repro.storage.backend import DiskWindowStore, WindowStore
from repro.storage.dsmatrix import DSMatrix
from repro.storage.segments import Segment, SegmentHandle

MatrixLike = Union[DSMatrix, WindowStore]

#: The interpreter's thread switch interval while a watch mines slides
#: ahead (DESIGN.md §9.3).  The coordinating thread seals and sinks a slide
#: in ~5 ms of pure Python, and the pool's manager and feeder threads each
#: need the GIL once to hand the next slide's task to a worker: at the
#: default 5 ms interval the task reached its worker after the sinks it
#: was meant to overlap (6-7 ms after submission, against ~3 ms here).
HANDOFF_SWITCH_INTERVAL_S = 0.0005

# The switch interval is process-wide: overlapping watches share one
# lowered interval, and the last to finish restores the caller's.
_handoff_lock = threading.Lock()
_handoff_users = 0
_restored_interval = 0.0


@contextmanager
def handoff_switch_interval() -> Iterator[None]:
    """Run with the interpreter's switch interval at most ``HANDOFF_SWITCH_INTERVAL_S``."""
    global _handoff_users, _restored_interval
    with _handoff_lock:
        if _handoff_users == 0:
            _restored_interval = sys.getswitchinterval()
            sys.setswitchinterval(min(_restored_interval, HANDOFF_SWITCH_INTERVAL_S))
        _handoff_users += 1
    try:
        yield
    finally:
        with _handoff_lock:
            _handoff_users -= 1
            if _handoff_users == 0:
                sys.setswitchinterval(_restored_interval)


def _store_of(matrix: MatrixLike) -> WindowStore:
    return matrix.store if isinstance(matrix, DSMatrix) else matrix


def _shard_count(workers: int, num_shards: Optional[int]) -> int:
    if num_shards is not None:
        return num_shards
    return max(1, workers)


def _resolve_algorithm_class(
    algorithm: Union[str, MiningAlgorithm],
) -> Type[MiningAlgorithm]:
    """Validate that workers will reconstruct exactly this algorithm.

    Only the registry *name* crosses the process boundary, so a custom
    instance whose class is not the registered implementation would be
    silently swapped for the stock one in every worker — reject that
    upfront instead.
    """
    name = algorithm if isinstance(algorithm, str) else algorithm.name
    registered = ALGORITHMS.get(name)
    if registered is None:
        raise ParallelMiningError(
            f"unknown algorithm {name!r} for parallel mining; "
            f"available: {sorted(ALGORITHMS)}"
        )
    if not isinstance(algorithm, str) and type(algorithm) is not registered:
        raise ParallelMiningError(
            f"parallel mining reconstructs algorithms by registry name, but "
            f"{type(algorithm).__name__} is not the implementation registered "
            f"as {name!r}; mine sequentially (workers=0) or register the class"
        )
    return registered


def window_after(store: WindowStore, pending: Sequence[Segment]) -> WindowTask:
    """The window ``store`` will hold once ``pending`` is committed.

    ``pending`` continues the store's segment ids.  Committed segments
    travel as the store's own handles and pending ones as payloads; no
    task names the store's directory, because a worker reopening it
    would see the committed window, not this one.
    """
    size = store.window_size
    kept = store.segment_handles()[max(0, store.num_batches + len(pending) - size):]
    shipped = [SegmentHandle.from_segment(segment) for segment in list(pending)[-size:]]
    return WindowTask(
        window_size=size,
        handles=tuple(kept + shipped),
        known_items=tuple(store.items()),
        lineage=store.lineage,
    )


def check_parallel_algorithm(algorithm: Union[str, MiningAlgorithm]) -> str:
    """The registry name workers will rebuild ``algorithm`` from."""
    _resolve_algorithm_class(algorithm)
    return algorithm if isinstance(algorithm, str) else algorithm.name


def mine_slides(
    tasks: Iterable[MiningSlideTask],
    on_slide: Callable[[SlideOutcome], None],
    workers: int,
    depth: int,
    lineage: str,
    pool: Optional[PersistentWorkerPool] = None,
    policy: Optional[FailurePolicy] = None,
    events: Optional[EventLog] = None,
) -> None:
    """Mine a stream of slides, one task per slide, ``depth`` at a time.

    ``tasks`` is pulled lazily (a task goes out once fewer than ``depth``
    slides are mined but not yet handed on) and ``on_slide`` receives the
    outcomes in slide order.  ``lineage`` names the store the windows
    come from: tasks run in this process (no pools, the degraded rung,
    speculative re-execution) leave a replica here that is dropped at
    the end.
    """
    executor = PipelineExecutor(
        workers, max_inflight=depth, pool=pool, policy=policy, events=events
    )
    try:
        with handoff_switch_interval():
            executor.run(run_mining_slide, tasks, on_slide)
    finally:
        clear_mining_worker(lineage)


def mine_window_parallel(
    matrix: MatrixLike,
    algorithm: Union[str, MiningAlgorithm],
    minsup: int,
    workers: int,
    registry: Optional[EdgeRegistry] = None,
    num_shards: Optional[int] = None,
    max_inflight: Optional[int] = None,
    pool: Optional[PersistentWorkerPool] = None,
    policy: Optional[FailurePolicy] = None,
    events: Optional[EventLog] = None,
) -> Tuple[PatternRows, MiningStats]:
    """Mine the window by pipelining item shards over worker processes.

    The window travels as segment handles (paths or payload bytes —
    never a live store), each worker runs the
    algorithm's shard-aware entry point over its owned items, and shard
    rows are concatenated **incrementally as shards finish** (in shard
    order) into exactly the sequential pattern set — at most
    ``max_inflight`` unmerged shard results are resident at any moment.

    Parameters
    ----------
    matrix:
        The DSMatrix (or bare window store) holding the current window.
    algorithm:
        Algorithm registry name or instance; only the name crosses the
        process boundary.
    minsup:
        Absolute minimum support.
    workers:
        ``0`` for the deterministic in-process reference mode, ``n >= 1``
        for a process pool of ``n`` workers.  Single-shard plans run
        in-process regardless (:func:`effective_workers`).
    registry:
        Edge registry, required by the direct algorithm.
    num_shards:
        Shard-count override; defaults to ``max(1, workers)``.
    max_inflight:
        Bound on submitted-but-unmerged shards; defaults to
        ``2 * workers`` (minimum 1).
    pool:
        Optional persistent worker pool to schedule onto (DESIGN.md §11).
        Without one, a run-scoped pool is spawned and torn down as before.
    policy:
        Failure policy for the run's execution engine (DESIGN.md §14);
        defaults to :data:`~repro.resilience.DEFAULT_POLICY`.
    events:
        Shared resilience event log; pool respawns and degradations
        during this call are recorded on it.

    Returns
    -------
    (rows, stats):
        The merged pattern rows (no mask twice) and the aggregated
        instrumentation of all shards.
    """
    store = _store_of(matrix)
    name = algorithm if isinstance(algorithm, str) else algorithm.name
    algorithm_cls = _resolve_algorithm_class(algorithm)
    # Algorithms without a true search-space split (the base mine_shard
    # filters a full sequential run) execute as ONE shard: fanning them out
    # would run the full mine once per shard for the same answer.
    shard_capable = algorithm_cls.mine_shard is not MiningAlgorithm.mine_shard
    planner = ShardPlanner(
        _shard_count(workers, num_shards) if shard_capable else 1
    )
    store_path = str(store.path) if isinstance(store, DiskWindowStore) else None
    # Every pattern is owned by one of its own items (the first in the
    # algorithm's order), which is always frequent: planning over the
    # frequent items keeps the partition complete and disjoint while
    # striping only the items that start work.
    shards = list(planner.plan_items(store.frequent_items(minsup)))
    effective = effective_workers(workers, len(shards))
    # The window (and registry) travel on every shard task; each worker
    # process continues its resident replica of this store's lineage and
    # loads only the segments appended since its last task.
    window = WindowTask(
        window_size=store.window_size,
        handles=tuple(store.segment_handles()),
        known_items=tuple(store.items()),
        store_path=store_path,
        lineage=store.lineage,
    )
    tasks = [
        MiningShardTask(
            shard_id=shard.shard_id,
            algorithm=name,
            minsup=minsup,
            owned_items=shard.items,
            window=window,
            registry=registry,
        )
        for shard in shards
    ]
    merged: Optional[PatternRows] = None
    stats_parts: List[Dict[str, int]] = []

    def _merge_outcome(outcome: ShardOutcome) -> None:
        nonlocal merged
        merged = merge_rows_into(merged, outcome.patterns)
        stats_parts.append(outcome.stats)

    executor = PipelineExecutor(
        effective,
        max_inflight=max_inflight,
        pool=pool,
        policy=policy,
        events=events,
    )
    try:
        executor.run(run_mining_shard, tasks, _merge_outcome)
    finally:
        # Tasks run in *this* process (in-process mode, the degraded rung,
        # speculative re-execution) installed a replica here.
        clear_mining_worker(store.lineage)
    # No shard at all means no frequent item: the empty table.
    rows = check_distinct(merged if merged is not None else PatternRows((), [], []))
    stats = merge_stats(stats_parts)
    stats.patterns_found = len(rows)
    return rows, stats
