"""High-level entry points: parallel mining and parallel support counting.

These functions tie the planner, the pipelined executor (DESIGN.md §9)
and the merge layer together (DESIGN.md §4).  Shard results are merged
incrementally, as each shard finishes, in shard order — the merged
answer is identical to the barrier merge because shards are disjoint and
commits are ordered.  ``workers=0`` executes the identical shard plan in
the calling process, so the two modes return byte-identical results —
the property the parity suite pins down.
"""

from __future__ import annotations

from collections import Counter
from typing import Collection, Dict, FrozenSet, List, Optional, Tuple, Type, Union

from repro.core.algorithms import ALGORITHMS
from repro.core.algorithms.base import MiningAlgorithm, MiningStats
from repro.exceptions import ParallelMiningError, SharedMemoryError
from repro.graph.edge_registry import EdgeRegistry
from repro.parallel.merge import merge_pattern_counts_into, merge_stats
from repro.parallel.pipeline import PipelineExecutor
from repro.parallel.planner import ShardPlanner
from repro.parallel.pool import PersistentWorkerPool, effective_workers
from repro.resilience import EventLog, FailurePolicy
from repro.parallel.worker import (
    MiningShardTask,
    ShardOutcome,
    WindowTask,
    clear_mining_worker,
    count_segment_shard,
    run_mining_shard,
)
from repro.storage.backend import DiskWindowStore, WindowStore
from repro.storage.dsmatrix import DSMatrix
from repro.storage.segments import SegmentHandle
from repro.storage.shm import (
    SharedSegmentArena,
    publish_segments,
    shared_memory_available,
)

Items = FrozenSet[str]
PatternCounts = Dict[Items, int]
MatrixLike = Union[DSMatrix, WindowStore]

#: Accepted segment transports: ``"auto"`` uses shared memory when the
#: host supports it, ``"shm"`` demands it, ``"pickle"`` forces payload
#: shipping (the ablation mode of the transport benchmark).
TRANSPORTS = ("auto", "shm", "pickle")


def _store_of(matrix: MatrixLike) -> WindowStore:
    return matrix.store if isinstance(matrix, DSMatrix) else matrix


def _shard_count(workers: int, num_shards: Optional[int]) -> int:
    if num_shards is not None:
        return num_shards
    return max(1, workers)


def _check_transport(transport: str) -> None:
    if transport not in TRANSPORTS:
        raise ParallelMiningError(
            f"unknown transport {transport!r}; expected one of {TRANSPORTS}"
        )


def _publish_window(
    handles: Tuple[SegmentHandle, ...], transport: str, workers: int
) -> Tuple[Optional[SharedSegmentArena], Tuple[SegmentHandle, ...]]:
    """Wrap the window's handles in a shared-memory arena when asked and useful.

    ``transport="shm"`` insists: an unavailable shm subsystem raises
    instead of silently measuring the pickle transport.  ``"auto"``
    degrades to the original handles (in-process runs also skip the
    arena — the caller's own memory already holds the payloads).
    """
    if transport == "pickle" or workers < 1:
        return None, handles
    if not shared_memory_available():
        if transport == "shm":
            raise ParallelMiningError(
                "transport='shm' requested but shared memory is unavailable "
                "on this host"
            )
        return None, handles
    return publish_segments(handles)


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


def mine_window_parallel(
    matrix: MatrixLike,
    algorithm: Union[str, MiningAlgorithm],
    minsup: int,
    workers: int,
    registry: Optional[EdgeRegistry] = None,
    num_shards: Optional[int] = None,
    max_inflight: Optional[int] = None,
    transport: str = "auto",
    pool: Optional[PersistentWorkerPool] = None,
    policy: Optional[FailurePolicy] = None,
    events: Optional[EventLog] = None,
) -> Tuple[PatternCounts, MiningStats]:
    """Mine the window by pipelining item shards over worker processes.

    The window travels as segment handles (paths, payload bytes or
    shared-memory spans — never a live store), each worker runs the
    algorithm's shard-aware entry point over its owned items, and shard
    results are merged **incrementally as shards finish** (in shard order)
    into exactly the sequential pattern set — at most ``max_inflight``
    unmerged shard results are resident at any moment.

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
    transport:
        ``"auto"`` (shared memory when available), ``"shm"`` (required) or
        ``"pickle"`` (payload shipping — the benchmark ablation mode).
        An shm block that cannot be attached mid-run falls back to one
        deterministic pickle-transport re-run.
    pool:
        Optional persistent worker pool to schedule onto (DESIGN.md §11).
        Without one, a run-scoped pool is spawned and torn down as before.
    policy:
        Failure policy for the run's execution engine (DESIGN.md §14);
        defaults to :data:`~repro.resilience.DEFAULT_POLICY`.
    events:
        Shared resilience event log; transport degradations and pool
        respawns during this call are recorded on it.

    Returns
    -------
    (patterns, stats):
        The merged pattern -> support mapping and the aggregated
        instrumentation of all shards.
    """
    _check_transport(transport)
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
    store_path = (
        str(store.path)
        if isinstance(store, DiskWindowStore) and store.layout == "segmented"
        else None
    )
    known_items = tuple(store.items())
    # Every pattern is owned by its canonical minimum item, which is always
    # frequent: planning over the frequent items keeps the partition
    # complete and disjoint while striping only the items that start work.
    shards = list(planner.plan_items(store.frequent_items(minsup)))
    effective = effective_workers(workers, len(shards))
    base_handles = tuple(store.segment_handles())
    arena, handles = _publish_window(base_handles, transport, effective)

    def _execute(
        window_handles: Tuple[SegmentHandle, ...],
    ) -> Tuple[PatternCounts, List[Dict[str, int]]]:
        # The window (and registry) travel on every shard task; each worker
        # process continues its resident replica of this store's lineage
        # and loads only the segments appended since its last task.
        window = WindowTask(
            window_size=store.window_size,
            handles=window_handles,
            known_items=known_items,
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
        patterns: PatternCounts = {}
        stats_parts: List[Dict[str, int]] = []

        def _merge_outcome(outcome: ShardOutcome) -> None:
            merge_pattern_counts_into(patterns, outcome.patterns)
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
            # Tasks run in *this* process (in-process mode, the degraded
            # rung, speculative re-execution) installed a replica here.
            clear_mining_worker(store.lineage)
        return patterns, stats_parts

    try:
        try:
            patterns, stats_parts = _execute(handles)
        except SharedMemoryError as exc:
            # The arena vanished mid-run (shm pressure, external cleanup).
            # Shards are deterministic, so one pickle-transport re-run
            # from scratch returns the identical answer: one explicit step
            # down the degradation ladder (DESIGN.md §14).
            if arena is None:
                raise
            if events is not None:
                events.record(
                    "degrade",
                    "transport",
                    detail=f"shm -> pickle ({type(exc).__name__}: {exc})",
                )
            patterns, stats_parts = _execute(base_handles)
    finally:
        if arena is not None:
            arena.close()
    stats = merge_stats(stats_parts)
    stats.patterns_found = len(patterns)
    return patterns, stats


def count_supports_parallel(
    matrix: MatrixLike,
    workers: int,
    num_shards: Optional[int] = None,
    max_inflight: Optional[int] = None,
    transport: str = "auto",
    policy: Optional[FailurePolicy] = None,
    events: Optional[EventLog] = None,
) -> Dict[str, int]:
    """Compute window-wide per-item supports from segment-aligned shards.

    Each worker counts one contiguous run of segments; shard counters are
    added into the running total as shards finish.  The merged counter
    equals ``matrix.item_frequencies()`` restricted to items that occur in
    the window (zero-support items of a grow-only universe never appear in
    any segment).  Counting reads the serialised bytes directly through
    the bulk popcount kernel; like mining, segment payloads travel via
    shared memory when the transport allows it.
    """
    _check_transport(transport)
    store = _store_of(matrix)
    planner = ShardPlanner(_shard_count(workers, num_shards))
    base_handles = tuple(store.segment_handles())
    shards = list(planner.plan_segments(base_handles))
    effective = effective_workers(workers, len(shards))
    arena, handles = _publish_window(base_handles, transport, effective)

    def _count(plan_handles: Tuple[SegmentHandle, ...]) -> Dict[str, int]:
        merged: Counter = Counter()
        PipelineExecutor(
            effective, max_inflight=max_inflight, policy=policy, events=events
        ).run(
            count_segment_shard,
            planner.plan_segments(plan_handles),
            lambda part: merged.update(part),
        )
        return dict(merged)

    try:
        try:
            return _count(handles)
        except SharedMemoryError as exc:
            if arena is None:
                raise
            if events is not None:
                events.record(
                    "degrade",
                    "transport",
                    detail=f"shm -> pickle ({type(exc).__name__}: {exc})",
                )
            return _count(base_handles)
    finally:
        if arena is not None:
            arena.close()


def frequent_items_parallel(
    matrix: MatrixLike,
    minsup: int,
    workers: int,
    num_shards: Optional[int] = None,
    universe: Optional[Collection[str]] = None,
    max_inflight: Optional[int] = None,
) -> List[str]:
    """Canonically ordered items with window support >= ``minsup``.

    A convenience built on :func:`count_supports_parallel`, mirroring
    ``WindowStore.frequent_items``.
    """
    counts = count_supports_parallel(
        matrix, workers, num_shards=num_shards, max_inflight=max_inflight
    )
    items = counts.keys() if universe is None else universe
    return sorted(item for item in items if counts.get(item, 0) >= minsup)
