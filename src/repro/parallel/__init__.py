"""Parallel sharded mining over window segments (DESIGN.md §4).

The subsystem has four small layers:

* :mod:`repro.parallel.planner` — :class:`ShardPlanner` partitions the
  window: segment-aligned column shards for support counting, item-prefix
  shards for the mining search space.
* :mod:`repro.parallel.worker` — picklable task payloads and the functions
  executed inside worker processes (windows travel as segment handles,
  never as live stores).
* :mod:`repro.parallel.pool` — :class:`WorkerPool`, a
  ``ProcessPoolExecutor`` wrapper whose ``workers=0`` mode runs the same
  plan in-process, byte-identical to sequential mining.
* :mod:`repro.parallel.pipeline` — :class:`PipelineExecutor`, the
  as-completed scheduler with bounded in-flight work and stream-order
  commits that both the mining and the ingestion paths execute on
  (DESIGN.md §9).
* :mod:`repro.parallel.merge` — combines per-shard pattern sets, support
  counters and instrumentation into the exact sequential answer.

:func:`mine_window_parallel` and :func:`count_supports_parallel` tie the
layers together; ``StreamSubgraphMiner.mine(..., workers=N)`` and the CLI's
``--workers`` are the user-facing entry points.
"""

from repro.parallel.api import (
    count_supports_parallel,
    frequent_items_parallel,
    mine_window_parallel,
)
from repro.parallel.merge import (
    merge_pattern_counts,
    merge_pattern_counts_into,
    merge_stats,
    merge_support_counts,
)
from repro.parallel.pipeline import (
    PipelineExecutor,
    PipelineStats,
    default_max_inflight,
)
from repro.parallel.planner import ItemShard, SegmentShard, ShardPlanner
from repro.parallel.pool import WorkerPool, process_pools_available
from repro.parallel.worker import (
    MiningShardTask,
    ShardOutcome,
    WindowTask,
    clear_mining_worker,
    count_segment_shard,
    rebuild_window,
    run_mining_shard,
)

__all__ = [
    "ShardPlanner",
    "SegmentShard",
    "ItemShard",
    "WorkerPool",
    "process_pools_available",
    "PipelineExecutor",
    "PipelineStats",
    "default_max_inflight",
    "WindowTask",
    "MiningShardTask",
    "ShardOutcome",
    "rebuild_window",
    "clear_mining_worker",
    "run_mining_shard",
    "count_segment_shard",
    "merge_pattern_counts",
    "merge_pattern_counts_into",
    "merge_support_counts",
    "merge_stats",
    "mine_window_parallel",
    "count_supports_parallel",
    "frequent_items_parallel",
]
