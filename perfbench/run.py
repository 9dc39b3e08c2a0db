"""Benchmark entry point: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload parallel-zipf --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
runs the traced variant and reports the per-layer metrics (and writes the
spans to ``.perfbench/traces/``).  Every run checks the program's outputs
first-hand (see ``perfbench/README.md``); the last line of standard output
is the JSON result, the line before it a JSON object of details (sample
counts, digests, the workload-specific names of the generic metrics).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    WORK_ROOT,
    BenchError,
    ensure_source,
    stop_helper_processes,
)
from perfbench.metrics import complete  # noqa: E402

WORKLOADS = ("ingest-graph", "parallel-zipf", "serve-follow")
#: Set-up repetitions per untraced run; ``setup_s`` is their median.
SETUPS = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="shrink the inputs (the benchmark's own tests use 0.1); "
        "results at another scale are not comparable",
    )
    return parser.parse_args(argv)


def execute(args: argparse.Namespace):
    """Run one workload; returns the outcome (metrics, details, counts)."""
    ensure_source()
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    trace_path = WORK_ROOT / "traces" / f"{args.workload}-seed{args.seed}.json"
    setups = 1 if args.trace else SETUPS
    try:
        if args.workload == "serve-follow":
            from perfbench import serving

            return serving.run(
                serving.scaled(serving.CONFIG, args.scale),
                args.seed,
                args.seconds,
                bool(args.trace),
                workdir,
                setups,
                trace_path,
            )
        from perfbench import pipeline

        return pipeline.run(
            pipeline.scaled(pipeline.CONFIGS[args.workload], args.scale),
            args.seed,
            args.seconds,
            bool(args.trace),
            workdir,
            setups,
            trace_path,
        )
    finally:
        stop_helper_processes()
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        outcome = execute(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for failure in outcome.failures:
        print(f"correctness: {failure}", file=sys.stderr)
    metrics = complete(outcome.metrics, bool(args.trace))
    print(json.dumps(outcome.details, sort_keys=True))
    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not outcome.failures else 1


if __name__ == "__main__":
    sys.exit(main())
