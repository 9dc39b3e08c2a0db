"""The metric names and units every run reports (mirrored in BENCHMARK.json).

End-to-end metrics are defined for every workload:

* ``throughput_per_s`` — stream units through ``watch`` per second on the
  pipeline workloads; completed ``POST /query`` per second on serve-follow;
* ``slide_p50_ms`` / ``slide_p90_ms`` — how long a slide takes to reach a
  standing-query subscriber: from the pull of its last raw unit to the
  return of its sink chain on the pipelines; from its scheduled append to
  its first SSE frame on serve-follow;
* ``peak_rss_mb`` — high-water RSS of the process running the program
  (net of the pre-generated input on the pipelines; the server child's
  ``VmHWM`` on serve-follow);
* ``setup_s`` — input generation, pre-mining and server start to ready.

Per-layer metrics come from the traced variant.  A layer a workload does
not exercise reports 0 there — the "predict no change" side of the
prediction table in ``perfbench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "slide_p50_ms": "ms",
    "slide_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER: Dict[str, str] = {
    "stream.encode_s": "s",
    "storage.commit_s": "s",
    "storage.row_hit_ratio": "ratio",
    "storage.shm_leaked": "count",
    "core.mine_s": "s",
    "core.bitvector_intersections": "count",
    "core.patterns": "count",
    "history.seal_s": "s",
    "history.journal_append_s": "s",
    "history.journal_bytes": "bytes",
    "history.tail_poll_ms": "ms",
    "serve.refresh_s": "s",
    "serve.index_extend_s": "s",
    "serve.standing_s": "s",
    "serve.snapshot_swaps": "count",
    "serve.standing_notifications": "count",
    "serve.lookup_wire_p50_ms": "ms",
    "serve.lookup_bytes": "bytes",
    "serve.scan_bytes": "bytes",
    "serve.follow_wait_p50_ms": "ms",
    "serve.drain_exit_code": "code",
    "algebra.lookup_eval_p50_ms": "ms",
    "algebra.scan_eval_p50_ms": "ms",
    "algebra.scanned_per_row": "ratio",
    "ingest.wait_s": "s",
    "ingest.peak_inflight": "count",
    "ingest.retries": "count",
    "parallel.pool_spawns": "count",
    "parallel.degradations": "count",
    "parallel.orphan_procs": "count",
    "loadgen.writer_late_p90_ms": "ms",
    "trace.closure_error": "ratio",
    "trace.units_base_per_s": "1/s",
    "trace.units_overhead_ratio": "ratio",
    "trace.lookup_base_ms": "ms",
    "trace.lookup_overhead_ratio": "ratio",
}

Metrics = Dict[str, Tuple[float, str]]


@dataclass
class RunOutcome:
    """What one workload run measured and what its correctness gate found."""

    metrics: Metrics
    #: The details line: sample counts, digests, workload-specific names.
    details: Dict[str, object]
    attempted: int
    failed: int
    failures: List[str]


def complete(measured: Metrics, trace: bool) -> Metrics:
    """Exactly the declared metrics: unexercised layers read 0."""
    declared = PER_LAYER if trace else END_TO_END
    unknown = set(measured) - set(declared)
    if unknown:
        raise ValueError(f"undeclared metrics {sorted(unknown)}")
    result: Metrics = {}
    for name, unit in declared.items():
        value, measured_unit = measured.get(name, (0.0, unit))
        if measured_unit != unit:
            raise ValueError(f"{name} measured in {measured_unit}, declared in {unit}")
        if not trace and name not in measured:
            raise ValueError(f"end-to-end metric {name} was not measured")
        result[name] = (float(value), unit)
    return result
