"""Parallel mining over window segments (DESIGN.md §4, §9.3).

The subsystem has five small layers:

* :mod:`repro.parallel.planner` — :class:`ShardPlanner` partitions the
  mining search space into item-prefix shards.
* :mod:`repro.parallel.worker` — picklable task payloads and the functions
  executed inside worker processes (windows travel as segment handles,
  never as live stores).
* :mod:`repro.parallel.pool` — :class:`~repro.parallel.pool.PersistentWorkerPool`,
  the process pool a miner keeps across window slides, plus the
  pool-viability probe and the pool-skip heuristic.
* :mod:`repro.parallel.pipeline` — :class:`PipelineExecutor`, the
  as-completed scheduler with bounded in-flight work and stream-order
  commits that both the mining and the ingestion paths execute on
  (DESIGN.md §9); ``workers=0`` runs the same plan in-process,
  byte-identical to sequential mining.
* :mod:`repro.parallel.merge` — concatenates per-shard pattern rows and
  combines instrumentation into the exact sequential answer.

:func:`mine_window_parallel` ties the layers together for one window;
:func:`mine_slides` is a watch's slide stage, one whole-window task per
slide.  ``StreamSubgraphMiner.mine(..., workers=N)``,
``StreamSubgraphMiner.watch(..., workers=N)`` and the CLI's ``--workers``
are the user-facing entry points.
"""

from repro.parallel.api import mine_slides, mine_window_parallel
from repro.parallel.merge import (
    check_distinct,
    merge_pattern_rows,
    merge_rows_into,
    merge_stats,
)
from repro.parallel.pipeline import (
    PipelineExecutor,
    PipelineStats,
    default_max_inflight,
)
from repro.parallel.planner import ItemShard, ShardPlanner
from repro.parallel.pool import process_pools_available
from repro.parallel.worker import (
    MiningShardTask,
    MiningSlideTask,
    ShardOutcome,
    SlideOutcome,
    WindowTask,
    clear_mining_worker,
    rebuild_window,
    run_mining_shard,
    run_mining_slide,
)

__all__ = [
    "ShardPlanner",
    "ItemShard",
    "process_pools_available",
    "PipelineExecutor",
    "PipelineStats",
    "default_max_inflight",
    "WindowTask",
    "MiningShardTask",
    "MiningSlideTask",
    "ShardOutcome",
    "SlideOutcome",
    "rebuild_window",
    "clear_mining_worker",
    "run_mining_shard",
    "run_mining_slide",
    "check_distinct",
    "merge_pattern_rows",
    "merge_rows_into",
    "merge_stats",
    "mine_slides",
    "mine_window_parallel",
]
