"""Benchmark regression gate: compare experiment outcomes against baselines.

The scheduled bench workflow runs the experiment drivers at tiny scale and
feeds the resulting ``BENCH_*.json`` files through :func:`compare_outcomes`
against the baselines committed under ``benchmarks/baselines/``.  The gate
fails on:

* a correctness flag (``*_identical``) that was ``True`` in the baseline
  and is not anymore;
* a runtime metric more than ``threshold`` times its baseline value
  (``1.25`` by default — the ">25% regression" budget).  Runtimes below
  ``min_runtime`` seconds are noise-floored: the allowance is computed
  from ``max(baseline, min_runtime)``, so micro-rows don't flap;
* a row present in the baseline with no identity-matching current row
  (or vice versa) — pattern counts, worker grids and workload names are
  part of a row's identity, so a silent behavioural change breaks the
  match instead of slipping through.

Run as a module::

    python -m repro.bench.regression --baseline-dir benchmarks/baselines \\
        --current-dir bench-artifacts
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Correctness flags that must never flip away from ``True``.
BOOLEAN_KEYS = (
    "all_collections_identical",
    "connected_results_identical",
    "backends_identical",
    "parallel_identical",
    "ingest_identical",
    "pipeline_identical",
    "inflight_bounded",
    "journal_identical",
    "index_matches_bruteforce",
    "speedup_monotone",
    "restore_identical",
    "planner_matches_bruteforce",
    "planner_not_slower_than_naive",
    "chaos_identical",
    "clean_run_event_free",
    "resilience_overhead_ok",
    "answers_identical",
    "snapshot_swap_not_blocking",
    "standing_query_matches_poll",
)

#: Row metrics compared against the regression threshold (lower is better).
RUNTIME_KEYS = (
    "runtime_s",
    "ingest_s",
    "mine_runtime_s",
    "total_runtime_s",
    "watch_s",
    "query_total_s",
)

#: Row fields excluded from the identity key (volatile measurements).
VOLATILE_KEYS = RUNTIME_KEYS + (
    "speedup_vs_1",
    "peak_inflight",
    "peak_mem_kb",
    "structure_kb",
    "peak_mining_mem_kb",
    "window_structure_kb",
    "disk_kb",
    "max_concurrent_fptrees",
    "max_fptree_nodes",
    "overhead_ratio",
    "journal_kb",
    "snapshot_kb",
    "queries_per_s",
    # E15 load/latency measurements (host-dependent, never identity).
    "latency_p50_ms",
    "latency_p95_ms",
    "latency_p99_ms",
    "latency_max_ms",
    "throughput_rps",
    "elapsed_seconds",
    "errors",
    "requests_total",
    "status_counts",
)

#: Top-level outcome keys excluded from comparison entirely.
IGNORED_TOP_LEVEL = ("rows", "results", "output")

#: Default regression budget: fail when slower than baseline by >25%.
DEFAULT_THRESHOLD = 1.25

#: Default noise floor (seconds) for runtime comparisons.
DEFAULT_MIN_RUNTIME = 0.25


def row_identity(row: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
    """The stable identity of a report row: every non-volatile field."""
    return tuple(
        (key, json.dumps(value, sort_keys=True, default=str))
        for key, value in sorted(row.items())
        if key not in VOLATILE_KEYS
    )


def compare_outcomes(
    baseline: Dict[str, object],
    current: Dict[str, object],
    threshold: float = DEFAULT_THRESHOLD,
    min_runtime: float = DEFAULT_MIN_RUNTIME,
    label: str = "",
) -> List[str]:
    """Compare one experiment outcome against its baseline → failure list."""
    failures: List[str] = []
    prefix = f"{label}: " if label else ""

    for key in BOOLEAN_KEYS:
        if baseline.get(key) is True and current.get(key) is not True:
            failures.append(
                f"{prefix}correctness flag {key!r} regressed from True to "
                f"{current.get(key)!r}"
            )

    for key, value in baseline.items():
        if key in IGNORED_TOP_LEVEL or key in BOOLEAN_KEYS:
            continue
        if current.get(key) != value:
            failures.append(
                f"{prefix}outcome field {key!r} changed from {value!r} to "
                f"{current.get(key)!r} (refresh the baseline if intended)"
            )

    baseline_rows = {
        row_identity(row): row for row in baseline.get("rows", [])  # type: ignore[union-attr]
    }
    current_rows = {
        row_identity(row): row for row in current.get("rows", [])  # type: ignore[union-attr]
    }
    for identity, row in baseline_rows.items():
        other = current_rows.get(identity)
        if other is None:
            failures.append(
                f"{prefix}baseline row {dict(identity)} has no matching "
                "current row (identity fields changed?)"
            )
            continue
        for metric in RUNTIME_KEYS:
            base_value = row.get(metric)
            curr_value = other.get(metric)
            if not isinstance(base_value, (int, float)) or not isinstance(
                curr_value, (int, float)
            ):
                continue
            allowed = max(float(base_value), min_runtime) * threshold
            if float(curr_value) > allowed:
                failures.append(
                    f"{prefix}{metric}={curr_value:.4f}s exceeds the "
                    f"{threshold:.2f}x budget over baseline "
                    f"{base_value:.4f}s (allowed {allowed:.4f}s) for row "
                    f"{dict(identity)}"
                )
    extra = set(current_rows) - set(baseline_rows)
    if extra:
        failures.append(
            f"{prefix}{len(extra)} current row(s) have no baseline "
            "counterpart (refresh the baseline if intended)"
        )
    return failures


def compare_directories(
    baseline_dir: Path,
    current_dir: Path,
    threshold: float = DEFAULT_THRESHOLD,
    min_runtime: float = DEFAULT_MIN_RUNTIME,
) -> List[str]:
    """Compare every ``BENCH_*.json`` baseline against its current run."""
    failures: List[str] = []
    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        return [f"no BENCH_*.json baselines found in {baseline_dir}"]
    for baseline_path in baselines:
        current_path = current_dir / baseline_path.name
        if not current_path.exists():
            failures.append(f"{baseline_path.name}: no current outcome found")
            continue
        try:
            baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
            current = json.loads(current_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            failures.append(f"{baseline_path.name}: unreadable outcome: {exc}")
            continue
        failures.extend(
            compare_outcomes(
                baseline,
                current,
                threshold=threshold,
                min_runtime=min_runtime,
                label=baseline_path.name,
            )
        )
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code (1 on regression)."""
    parser = argparse.ArgumentParser(
        prog="repro-bench-regression",
        description="Fail when benchmark outcomes regress against baselines",
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=Path("benchmarks/baselines"),
        help="directory holding the committed BENCH_*.json baselines",
    )
    parser.add_argument(
        "--current-dir",
        type=Path,
        default=Path("bench-artifacts"),
        help="directory holding the freshly produced BENCH_*.json outcomes",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="multiplicative runtime budget (1.25 = fail on >25%% regression)",
    )
    parser.add_argument(
        "--min-runtime",
        type=float,
        default=DEFAULT_MIN_RUNTIME,
        help="noise floor in seconds applied to baseline runtimes",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)
    failures = compare_directories(
        args.baseline_dir,
        args.current_dir,
        threshold=args.threshold,
        min_runtime=args.min_runtime,
    )
    if failures:
        print(f"{len(failures)} benchmark regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(
        f"benchmark outcomes within the {args.threshold:.2f}x budget of "
        f"{args.baseline_dir}"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
