"""High-level entry point of parallel mining.

:func:`mine_window_parallel` ties the planner, the pipelined executor
(DESIGN.md §9) and the merge layer together (DESIGN.md §4).  Shard results are merged
incrementally, as each shard finishes, in shard order — the merged
answer is identical to the barrier merge because shards are disjoint and
commits are ordered.  ``workers=0`` executes the identical shard plan in
the calling process, so the two modes return byte-identical results —
the property the parity suite pins down.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Type, Union

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
    ShardOutcome,
    WindowTask,
    clear_mining_worker,
    run_mining_shard,
)
from repro.storage.backend import DiskWindowStore, WindowStore
from repro.storage.dsmatrix import DSMatrix

MatrixLike = Union[DSMatrix, WindowStore]


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
