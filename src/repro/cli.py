"""Command-line interface.

Subcommands
-----------
``demo``
    Run the paper's running example (Examples 1-7) and print the 15 frequent
    connected subgraphs.
``generate``
    Generate a synthetic dataset (random graph stream, IBM synthetic, or
    connect4-like) and write it as a FIMI transaction file.
``gen``
    Work with the *canonical seeded workloads* (DESIGN.md §11): list
    them, validate one (determinism digest + parallel-vs-sequential
    mining parity on a stream prefix) or export its transactions as a
    FIMI file for ``mine``/``watch``.
``mine``
    Mine a FIMI transaction file with a sliding window and one of the five
    algorithms, optionally sharded over worker processes — ``--workers``
    parallelises the mining, ``--ingest-workers`` the stream → window
    ingestion; ``--stats`` appends a cache/pipeline summary.
``watch``
    Mine a FIMI stream continuously — after every batch commit the fresh
    window is mined and the per-slide answer is sealed into an append-only
    pattern journal (DESIGN.md §10).  ``--checkpoint-dir`` seals crash-safe
    snapshots every ``--checkpoint-every`` slides and ``--resume`` restarts
    from the latest one; ``--retain-hot/--retain-warm/--cold-sample-every``
    bound the journal with tiered retention (DESIGN.md §12).
``supervise``
    Watchdog for a long-running ``watch``/``serve`` child: restart it with
    exponential backoff when it dies abnormally, within a restart budget.
``query``
    Query a journal directory: ``--expr`` evaluates one composable JSON
    algebra expression (DESIGN.md §13) under the cost-based planner and
    prints the answer with its ``explain`` payload — the same bytes
    ``POST /query`` answers; without ``--expr`` it prints the journal's
    stats.
``serve``
    Expose a journal over HTTP with the asyncio serving subsystem
    (DESIGN.md §15): snapshot-swapped reads, standing-query push over
    ``GET /subscribe`` (SSE), journal following (``--follow``) and warm
    start (``--warm-dir``).
``bench``
    Run one of the paper's experiments (e1-e15) and print its table;
    ``--baseline`` compares the outcome against a committed
    ``BENCH_*.json`` with the nightly regression gate.

Run ``python -m repro --help`` for the full option reference.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, Optional, Sequence

from repro import __version__, faults
from repro.bench.experiments import EXPERIMENTS
from repro.bench.regression import compare_outcomes
from repro.bench.report import format_table
from repro.checkpoint import Checkpoint, CheckpointManager, Checkpointer
from repro.checkpoint.supervisor import RestartPolicy, Supervisor, SupervisorError
from repro.core.algorithms import ALGORITHMS
from repro.core.export import result_to_csv, result_to_json
from repro.core.miner import StreamSubgraphMiner
from repro.datasets.connect4 import Connect4LikeGenerator
from repro.datasets.fimi import read_fimi, write_fimi
from repro.datasets.paper_example import paper_example_batches, paper_example_registry
from repro.datasets.random_graphs import GraphStreamGenerator, RandomGraphModel
from repro.datasets.synthetic import IBMSyntheticGenerator
from repro.datasets.workloads import (
    WORKLOADS,
    get_workload,
    stream_snapshots,
    stream_transactions,
    validate_workload,
    workload_names,
)
from repro.exceptions import (
    AlgebraError,
    CheckpointError,
    DatasetError,
    DSMatrixError,
    EdgeRegistryError,
    FaultSpecError,
    HistoryError,
    ResilienceError,
    ServiceError,
)
from repro.graph.edge_registry import EdgeRegistry
from repro.history.journal import DiskJournal, RetentionPolicy, truncate_journal
from repro.resilience import FailurePolicy, ResilienceEvent
from repro.serve.app import ServeApp
from repro.serve.http import serve_async
from repro.stream.stream import TransactionStream

#: Exit code for usage errors detected by the subcommands (bad flag combos).
EXIT_USAGE_ERROR = 2
#: Stable exit code for missing/corrupt input files (asserted by the tests).
EXIT_INPUT_ERROR = 3


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for the CLI tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Frequent subgraph mining from streams of linked graph structured data",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser("demo", help="run the paper's running example")
    demo.add_argument(
        "--algorithm",
        choices=sorted(ALGORITHMS),
        default="vertical_direct",
        help="mining algorithm to use",
    )
    demo.add_argument("--minsup", type=int, default=2, help="absolute minimum support")

    generate = subparsers.add_parser("generate", help="generate a synthetic dataset")
    generate.add_argument("output", help="FIMI file to write")
    generate.add_argument(
        "--kind",
        choices=("graph", "ibm", "connect4"),
        default="graph",
        help="dataset family",
    )
    generate.add_argument("--count", type=int, default=1000, help="number of transactions")
    generate.add_argument("--vertices", type=int, default=20, help="graph model vertices")
    generate.add_argument("--fanout", type=float, default=4.0, help="graph model average fan-out")
    generate.add_argument("--seed", type=int, default=42, help="random seed")

    gen = subparsers.add_parser(
        "gen", help="list, validate or export the canonical seeded workloads"
    )
    gen.add_argument(
        "workload",
        nargs="?",
        default=None,
        help="canonical workload name (omit with --list)",
    )
    gen.add_argument(
        "--list", action="store_true", help="list the canonical workloads"
    )
    gen.add_argument(
        "--units",
        type=int,
        default=None,
        help=(
            "stream prefix to validate/export (default: up to 2000 units "
            "for validation, the full stream for --output)"
        ),
    )
    gen.add_argument(
        "--output",
        default=None,
        help="write the workload's transactions to this FIMI file",
    )
    gen.add_argument(
        "--no-mine",
        action="store_true",
        help="skip the mining-parity leg of validation (digest only)",
    )
    gen.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker processes for the parallel leg of the parity check",
    )

    # No prefix matching: any prefix of ``--storage-path`` would otherwise
    # be taken for it, persisting the window into a directory named after
    # whatever value followed (e.g. a storage kind from an old script).
    mine = subparsers.add_parser(
        "mine", help="mine a FIMI transaction file", allow_abbrev=False
    )
    _add_stream_options(mine)
    mine.add_argument(
        "--storage-path",
        default=None,
        help=(
            "persist the window in this directory (one segment file per "
            "batch plus a manifest); without it the window stays in memory"
        ),
    )
    _add_parallel_options(mine)
    mine.add_argument("--top", type=int, default=20, help="number of patterns to print")
    mine.add_argument(
        "--all-collections",
        action="store_true",
        help="report all frequent edge collections (skip the connectivity filter)",
    )
    mine.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format for the discovered patterns",
    )
    mine.add_argument(
        "--output",
        default=None,
        help="write the formatted patterns to this file instead of stdout",
    )
    mine.add_argument(
        "--stats",
        action="store_true",
        help=(
            "append a summary of the window store's support-cache counters "
            "and (under --ingest-workers) the ingestion pipeline report"
        ),
    )

    watch = subparsers.add_parser(
        "watch",
        help="mine a FIMI stream continuously, journalling every window slide",
    )
    _add_stream_options(watch)
    _add_parallel_options(watch)
    watch.add_argument(
        "--journal",
        required=True,
        help="directory the pattern journal is written to (appends resume it)",
    )
    watch.add_argument(
        "--all-collections",
        action="store_true",
        help="journal all frequent edge collections (skip the connectivity filter)",
    )
    watch.add_argument(
        "--checkpoint-dir",
        default=None,
        help=(
            "directory crash-safe snapshots are sealed into; enables "
            "--resume after a crash (DESIGN.md §12)"
        ),
    )
    watch.add_argument(
        "--checkpoint-every",
        type=int,
        default=10,
        help="seal a snapshot every N slides (with --checkpoint-dir)",
    )
    watch.add_argument(
        "--checkpoint-keep",
        type=int,
        default=3,
        help="retained snapshot generations (older ones are pruned)",
    )
    watch.add_argument(
        "--resume",
        action="store_true",
        help=(
            "restore from the latest valid snapshot in --checkpoint-dir, "
            "roll the journal back to the checkpointed slide, and replay "
            "only the un-checkpointed stream suffix — the continued "
            "journal.dat is byte-identical to an uninterrupted run"
        ),
    )
    watch.add_argument(
        "--retain-hot",
        type=int,
        default=0,
        help=(
            "cap on slide records kept resident in memory "
            "(0 = unbounded, the default)"
        ),
    )
    watch.add_argument(
        "--retain-warm",
        type=int,
        default=0,
        help=(
            "cap on full-fidelity records kept in the journal files; older "
            "slides are summarised into archive.jsonl and compacted away "
            "(0 = never compact, the default)"
        ),
    )
    watch.add_argument(
        "--cold-sample-every",
        type=int,
        default=10,
        help=(
            "with --retain-warm: every N-th archived slide keeps its full "
            "pattern map (others keep aggregates only)"
        ),
    )
    watch.add_argument(
        "--throttle-ms",
        type=int,
        default=0,
        help=(
            "sleep this many milliseconds after each slide (0 = no throttle; "
            "used by the kill/restart CI gate to widen the crash window)"
        ),
    )

    supervise = subparsers.add_parser(
        "supervise",
        help="keep a crashing watch/serve child alive with backoff restarts",
    )
    supervise.add_argument(
        "--max-restarts",
        type=int,
        default=5,
        help="restart budget before the supervisor gives up",
    )
    supervise.add_argument(
        "--backoff", type=float, default=0.5, help="initial restart delay in seconds"
    )
    supervise.add_argument(
        "--backoff-factor",
        type=float,
        default=2.0,
        help="multiplier applied to the delay after every restart",
    )
    supervise.add_argument(
        "--max-backoff", type=float, default=30.0, help="delay ceiling in seconds"
    )
    supervise.add_argument(
        "--stable-after",
        type=float,
        default=30.0,
        help="uptime in seconds after which the restart budget resets",
    )
    supervise.add_argument(
        "child",
        nargs=argparse.REMAINDER,
        help="child repro command after `--`, e.g. `-- watch data.fimi ...`",
    )

    query = subparsers.add_parser(
        "query", help="run one query against a pattern journal"
    )
    query.add_argument("journal", help="journal directory written by `repro watch`")
    query.add_argument(
        "--expr",
        default=None,
        help="composable algebra expression as JSON (default: print the "
        'journal stats; e.g. \'{"select": {"where": {"contains": ["a", "b"]}}}\' '
        "— see README 'Querying the journal')",
    )

    serve = subparsers.add_parser(
        "serve", help="serve a pattern journal over HTTP (JSON endpoints)"
    )
    serve.add_argument("journal", help="journal directory written by `repro watch`")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8765, help="TCP port (0 = ephemeral)")
    serve.add_argument(
        "--follow",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="poll the journal for new slides every SECONDS (0 disables)",
    )
    serve.add_argument(
        "--warm-dir",
        default=None,
        metavar="DIR",
        help="hydrate the index from a sealed snapshot under DIR and seal a "
        "fresh one on graceful shutdown",
    )
    _add_fault_options(serve)

    bench = subparsers.add_parser("bench", help="run one of the paper's experiments")
    bench.add_argument("experiment", choices=sorted(EXPERIMENTS), help="experiment id")
    bench.add_argument(
        "--scale",
        choices=("tiny", "small", "paper", "large"),
        default="small",
        help=(
            "workload size (e1-e10, e12 and e14 accept tiny/small/paper; e11 "
            "accepts tiny/small/large — large streams a million snapshots)"
        ),
    )
    bench.add_argument("--json", action="store_true", help="print raw JSON instead of a table")
    bench.add_argument(
        "--clients",
        type=int,
        default=None,
        help="concurrent load-test clients (e15 only; default 1000)",
    )
    bench.add_argument(
        "--baseline",
        default=None,
        help=(
            "compare the outcome against a committed BENCH_*.json baseline "
            "with the nightly regression gate (run at the scale the "
            "baseline was recorded at — tiny for benchmarks/baselines/)"
        ),
    )

    return parser


def _add_stream_options(parser: argparse.ArgumentParser) -> None:
    """Input/window/algorithm options shared by ``mine`` and ``watch``."""
    parser.add_argument("input", help="FIMI file to read")
    parser.add_argument(
        "--minsup", type=float, default=0.1, help="absolute or relative minsup"
    )
    parser.add_argument(
        "--batch-size", type=int, default=1000, help="transactions per batch"
    )
    parser.add_argument("--window", type=int, default=5, help="window size in batches")
    parser.add_argument(
        "--algorithm",
        choices=sorted(ALGORITHMS),
        default="vertical",
        help="mining algorithm to use",
    )


def _add_parallel_options(parser: argparse.ArgumentParser) -> None:
    """Worker/pipelining options shared by ``mine`` and ``watch``."""
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help=(
            "mining worker processes (0 = sequential in-process, the default; "
            "N >= 1: `mine` partitions the window's search space over N "
            "processes and merges the shards; `watch` with --ingest-workers mines "
            "each slide's whole window in a worker, the next slide while this "
            "one is journalled, on at most 2 workers, and without it mines "
            "in-process — the pattern set is identical either way)"
        ),
    )
    parser.add_argument(
        "--ingest-workers",
        type=int,
        default=0,
        help=(
            "worker processes for sharded stream ingestion (0 = sequential "
            "in-process, the default; N >= 1 parses and materialises batch "
            "segments on N processes while a single writer commits them in "
            "stream order — the window is identical either way)"
        ),
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help=(
            "bound on in-flight work (default: 2x the worker count, minimum "
            "1): `mine` keeps at most this many batches encoding and shards "
            "unmerged; `watch` keeps at most this many batches read from the "
            "stream but not yet journalled, counting the slides being mined "
            "(with --ingest-workers; sequential feeding reads one batch at a "
            "time and ignores it).  Any value produces the identical window, patterns and "
            "journal — it only trades memory and latency against overlap"
        ),
    )
    parser.add_argument(
        "--task-retries",
        type=int,
        default=None,
        help=(
            "retries for task-level infrastructure failures (a broken "
            "worker pool) on a fresh pool before degrading to in-process "
            "execution (default: 2); the answer is identical either way"
        ),
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help=(
            "straggler threshold in seconds: a shard/batch not finished "
            "after this long is speculatively re-executed in-process and "
            "the slow copy's result discarded (default: disabled)"
        ),
    )
    _add_fault_options(parser)


def _add_fault_options(parser: argparse.ArgumentParser) -> None:
    """The deterministic fault-injection flag (chaos testing, DESIGN.md §14)."""
    parser.add_argument(
        "--faults",
        default=None,
        help=(
            "deterministic fault plan, e.g. "
            "'mine.shard@2:crash;journal.write@3x2' — each clause is "
            "SITE@HIT[xTIMES][:raise|crash|sleep][~SECONDS]; propagates to "
            "worker processes via REPRO_FAULTS (chaos testing only; the "
            "recovered run's output is identical to a fault-free run)"
        ),
    )


# ---------------------------------------------------------------------- #
# subcommand implementations
# ---------------------------------------------------------------------- #
def _cmd_demo(args: argparse.Namespace) -> int:
    registry = paper_example_registry()
    batches = paper_example_batches()
    miner = StreamSubgraphMiner(
        window_size=2, batch_size=3, algorithm=args.algorithm, registry=registry
    )
    for batch in batches:
        miner.add_batch(batch)
    result = miner.mine(minsup=args.minsup, connected_only=True)
    print(f"window holds {miner.transaction_count} graphs; minsup={args.minsup}")
    print(f"{len(result)} frequent connected subgraphs:")
    for pattern in result:
        edges = ", ".join(f"{u}-{v}" for u, v in sorted(registry.decode_pattern(pattern.items)))
        print(f"  {{{','.join(pattern.sorted_items())}}}  support={pattern.support}  edges=[{edges}]")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "graph":
        model = RandomGraphModel(
            num_vertices=args.vertices, avg_fanout=args.fanout, seed=args.seed
        )
        registry = model.registry()
        generator = GraphStreamGenerator(model, seed=args.seed + 1)
        transactions = [
            registry.encode(snapshot, register_new=False)
            for snapshot in generator.snapshots(args.count)
        ]
    elif args.kind == "ibm":
        transactions = IBMSyntheticGenerator(seed=args.seed).generate(args.count)
    else:
        transactions = Connect4LikeGenerator(seed=args.seed).generate(args.count)
    path = write_fimi(args.output, transactions)
    print(f"wrote {len(transactions)} transactions to {path}")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.list or args.workload is None:
        if args.workload is None and not args.list:
            print(
                "error: name a canonical workload or pass --list",
                file=sys.stderr,
            )
            return EXIT_USAGE_ERROR
        for name in workload_names():
            spec = WORKLOADS[name]
            print(
                f"{name}  kind={spec.kind} units={spec.num_units} "
                f"batch={spec.batch_size} window={spec.window_size} "
                f"minsup={spec.minsup}"
            )
        return 0
    try:
        spec = get_workload(args.workload)
    except DatasetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE_ERROR
    if args.units is not None and args.units < 1:
        print(f"error: --units must be at least 1, got {args.units}", file=sys.stderr)
        return EXIT_USAGE_ERROR
    if args.workers < 0:
        print(f"error: --workers must be non-negative, got {args.workers}", file=sys.stderr)
        return EXIT_USAGE_ERROR
    if args.output is not None:
        # Export as item transactions: graph snapshots are encoded through
        # a fresh registry (deterministic — symbols follow first occurrence
        # in the pinned stream), so the file feeds `repro mine`/`watch`.
        if spec.kind == "graph":
            registry = EdgeRegistry()
            units = (
                registry.encode(snapshot)
                for snapshot in stream_snapshots(spec, limit=args.units)
            )
        else:
            units = stream_transactions(spec, limit=args.units)
        count = 0

        def counted():
            nonlocal count
            for unit in units:
                count += 1
                yield unit

        path = write_fimi(args.output, counted())
        print(f"wrote {count} transactions of {spec.name} to {path}")
        return 0
    validation = validate_workload(
        spec, units=args.units, mine=not args.no_mine, workers=args.workers
    )
    print(
        f"{validation.name}: validated {validation.units} of "
        f"{spec.num_units} units"
    )
    print(f"digest: {validation.digest}")
    print(f"deterministic: {validation.deterministic}")
    if validation.parallel_identical is not None:
        print(
            f"parallel mining parity ({args.workers} workers): "
            f"{validation.parallel_identical} "
            f"({validation.patterns} patterns at minsup={spec.minsup})"
        )
    ok = validation.deterministic and validation.parallel_identical is not False
    if not ok:
        print("error: workload validation FAILED", file=sys.stderr)
    return 0 if ok else 1


def _read_transactions(path: str):
    """Read a FIMI file → (transactions, None) or (None, exit code)."""
    try:
        return read_fimi(path), None
    except (DatasetError, OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read input file: {exc}", file=sys.stderr)
        return None, EXIT_INPUT_ERROR


def _validate_parallel_flags(args: argparse.Namespace) -> Optional[int]:
    """Shared --workers/--ingest-workers/--max-inflight checks → exit code."""
    for flag, value in (("--workers", args.workers), ("--ingest-workers", args.ingest_workers)):
        if value < 0:
            print(
                f"error: {flag} must be non-negative, got {value}",
                file=sys.stderr,
            )
            return EXIT_USAGE_ERROR
    if args.max_inflight is not None and args.max_inflight < 1:
        print(
            f"error: --max-inflight must be at least 1, got {args.max_inflight}",
            file=sys.stderr,
        )
        return EXIT_USAGE_ERROR
    return None


def _resolve_failure_policy(
    args: argparse.Namespace,
) -> tuple[Optional[FailurePolicy], Optional[int]]:
    """--task-retries/--task-timeout → (policy or None, exit code on misuse).

    ``None`` means "use each layer's default policy"; a policy is built
    only when the user asked for non-default behaviour.
    """
    if args.task_retries is None and args.task_timeout is None:
        return None, None
    overrides = {}
    if args.task_retries is not None:
        overrides["max_retries"] = args.task_retries
    if args.task_timeout is not None:
        overrides["task_timeout_s"] = args.task_timeout
    try:
        return FailurePolicy(**overrides), None
    except ResilienceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, EXIT_USAGE_ERROR


def _install_faults(args: argparse.Namespace) -> tuple[bool, Optional[int]]:
    """Arm --faults (if given) → (installed?, exit code on a bad spec)."""
    if args.faults is None:
        return False, None
    try:
        faults.install_plan(args.faults)
    except FaultSpecError as exc:
        print(f"error: invalid --faults plan: {exc}", file=sys.stderr)
        return False, EXIT_USAGE_ERROR
    return True, None


def _emit_resilience_event(event: ResilienceEvent) -> None:
    """One JSON line per recovery decision on stderr (supervisor stream)."""
    print(json.dumps(event.as_dict(), sort_keys=True), file=sys.stderr, flush=True)


def _connectivity_for(args: argparse.Namespace) -> bool:
    """Whether a FIMI-driven run can (and should) keep the connectivity filter.

    Connectivity needs edge semantics; FIMI files carry bare items, so
    default to reporting all collections unless the direct algorithm
    (which requires a registry anyway) was requested.
    """
    if args.all_collections:
        return False
    return args.algorithm == "vertical_direct"


def _no_edges_message(args: argparse.Namespace, exc: EdgeRegistryError) -> str:
    """The error for an algorithm that needs edges a FIMI file does not carry."""
    return (
        f"cannot mine {args.input} with --algorithm {args.algorithm}: {exc} "
        "(a FIMI file carries bare items, not the edges this algorithm needs)"
    )


def _print_stats(miner: StreamSubgraphMiner) -> None:
    """The --stats summary: cache counters + pipeline + resilience reports."""
    cache = miner.matrix.cache_stats.as_dict()
    print("cache: " + " ".join(f"{key}={value}" for key, value in cache.items()))
    report = miner.last_ingest_report
    if report is not None:
        print(
            f"pipeline: batches={report.batches} "
            f"ingest_workers={report.workers} mode={report.execution_mode} "
            f"peak_inflight={report.peak_inflight} "
            f"max_inflight={report.max_inflight}"
        )
    # A fault-free run reports "clean" — the zero-overhead contract the
    # chaos suite pins down (no retry/degradation events off the happy path).
    summary = miner.resilience_event_log.summary()
    print("resilience: " + (summary if summary else "clean"))


def _cmd_mine(args: argparse.Namespace) -> int:
    transactions, error = _read_transactions(args.input)
    if error is not None:
        return error
    error = _validate_parallel_flags(args)
    if error is not None:
        return error
    policy, error = _resolve_failure_policy(args)
    if error is not None:
        return error
    try:
        miner = StreamSubgraphMiner(
            window_size=args.window,
            batch_size=args.batch_size,
            algorithm=args.algorithm,
            storage_path=args.storage_path,
            failure_policy=policy,
        )
    except DSMatrixError as exc:  # --storage-path is a file or a foreign store
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE_ERROR
    installed, error = _install_faults(args)
    if error is not None:
        return error
    try:
        with miner:
            if args.ingest_workers > 0:
                miner.consume(
                    TransactionStream(transactions, batch_size=args.batch_size),
                    ingest_workers=args.ingest_workers,
                    max_inflight=args.max_inflight,
                )
            else:
                miner.add_transactions(transactions)
            minsup = args.minsup if args.minsup < 1 else int(args.minsup)
            result = miner.mine(
                minsup,
                connected_only=_connectivity_for(args),
                workers=args.workers,
                max_inflight=args.max_inflight,
            )
    except EdgeRegistryError as exc:
        return _fail_json(_no_edges_message(args, exc), EXIT_INPUT_ERROR)
    finally:
        if installed:
            faults.uninstall_plan()
    if args.format == "json":
        rendered = result_to_json(result, miner.registry)
    elif args.format == "csv":
        rendered = result_to_csv(result)
    else:
        lines = [
            f"{len(result)} frequent patterns "
            f"(window of {miner.transaction_count} transactions)"
        ]
        for pattern in result.top(args.top):
            lines.append(
                f"  {{{','.join(pattern.sorted_items())}}}  support={pattern.support}"
            )
        rendered = "\n".join(lines)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered if rendered.endswith("\n") else rendered + "\n")
        print(f"wrote {len(result)} patterns to {args.output}")
    else:
        print(rendered)
    if args.stats:
        _print_stats(miner)
    return 0


def _fail_json(message: str, code: int) -> int:
    """One machine-parseable error line on stderr (never a traceback)."""
    print(
        json.dumps({"error": message, "exit_code": code}, sort_keys=True),
        file=sys.stderr,
    )
    return code


def _validate_watch_flags(args: argparse.Namespace) -> Optional[int]:
    """Checkpoint/retention/throttle flag checks → exit code on misuse."""
    if args.resume and args.checkpoint_dir is None:
        print(
            "error: --resume needs --checkpoint-dir (snapshots to restore from)",
            file=sys.stderr,
        )
        return EXIT_USAGE_ERROR
    for flag, value, floor in (
        ("--checkpoint-every", args.checkpoint_every, 1),
        ("--checkpoint-keep", args.checkpoint_keep, 1),
        ("--cold-sample-every", args.cold_sample_every, 1),
        ("--retain-hot", args.retain_hot, 0),
        ("--retain-warm", args.retain_warm, 0),
        ("--throttle-ms", args.throttle_ms, 0),
    ):
        if value < floor:
            print(
                f"error: {flag} must be at least {floor}, got {value}",
                file=sys.stderr,
            )
            return EXIT_USAGE_ERROR
    return None


def _cmd_watch(args: argparse.Namespace) -> int:
    transactions, error = _read_transactions(args.input)
    if error is not None:
        return error
    error = _validate_parallel_flags(args)
    if error is not None:
        return error
    error = _validate_watch_flags(args)
    if error is not None:
        return error
    policy, error = _resolve_failure_policy(args)
    if error is not None:
        return error
    installed, error = _install_faults(args)
    if error is not None:
        return error
    try:
        return _run_watch(args, transactions, policy)
    finally:
        if installed:
            faults.uninstall_plan()


def _run_watch(
    args: argparse.Namespace,
    transactions: Sequence[Sequence[str]],
    policy: Optional[FailurePolicy],
) -> int:
    """The watch body, after flag validation and fault arming."""
    manager: Optional[CheckpointManager] = None
    checkpoint: Optional[Checkpoint] = None
    if args.checkpoint_dir is not None:
        try:
            manager = CheckpointManager(args.checkpoint_dir, keep=args.checkpoint_keep)
        except (CheckpointError, OSError) as exc:
            return _fail_json(
                f"cannot open checkpoint dir: {exc}", EXIT_INPUT_ERROR
            )
    if args.resume and manager is not None:
        checkpoint = manager.latest()
        if checkpoint is not None and (
            checkpoint.window_size != args.window
            or checkpoint.batch_size != args.batch_size
        ):
            print(
                "error: checkpoint was sealed with "
                f"--window {checkpoint.window_size} --batch-size "
                f"{checkpoint.batch_size}; resume with the same flags",
                file=sys.stderr,
            )
            return EXIT_USAGE_ERROR
        # Roll the journal back to exactly the checkpointed slide (or to
        # empty when no snapshot was sealed yet) so the replayed suffix
        # appends where the snapshot left off — never double-appends.
        try:
            truncate_journal(
                args.journal, checkpoint.slide_id if checkpoint is not None else -1
            )
        except (HistoryError, OSError) as exc:
            return _fail_json(
                f"cannot roll back journal for resume: {exc}", EXIT_INPUT_ERROR
            )

    retention = RetentionPolicy(
        hot_slides=args.retain_hot or None,
        warm_slides=args.retain_warm or None,
        cold_sample_every=args.cold_sample_every,
    )
    try:
        journal = DiskJournal(args.journal, retention)
    except (HistoryError, OSError) as exc:
        return _fail_json(f"cannot open journal: {exc}", EXIT_INPUT_ERROR)

    checkpointer: Optional[Checkpointer] = None
    minsup = args.minsup if args.minsup < 1 else int(args.minsup)
    # Everything from here on runs under one finally that closes the
    # journal — a failure anywhere (checkpoint restore, checkpointer
    # setup, the watch itself) must never leak its append handles.
    try:
        try:
            if checkpoint is not None:
                miner = StreamSubgraphMiner.hydrate(
                    checkpoint,
                    algorithm=args.algorithm,
                    on_slide=journal.append,
                    failure_policy=policy,
                )
            else:
                miner = StreamSubgraphMiner(
                    window_size=args.window,
                    batch_size=args.batch_size,
                    algorithm=args.algorithm,
                    on_slide=journal.append,
                    failure_policy=policy,
                )
        except CheckpointError as exc:
            return _fail_json(f"cannot restore checkpoint: {exc}", EXIT_INPUT_ERROR)
        # Recovery decisions stream as JSON lines on stderr (the
        # supervisor's event channel) and journal writes retry under the
        # shared policy, recorded on the same log --stats summarises.
        miner.resilience_event_log.on_event = _emit_resilience_event
        journal.failure_policy = policy
        journal.resilience_events = miner.resilience_event_log
        if manager is not None:
            # After the journal sink, so every sealed snapshot's journal
            # bookkeeping already includes the checkpointed slide.
            checkpointer = Checkpointer(
                manager,
                miner,
                journal=journal,
                every=args.checkpoint_every,
                policy=policy,
                events=miner.resilience_event_log,
            )
            miner.add_slide_sink(checkpointer)
        if args.throttle_ms:
            miner.add_slide_sink(lambda record: time.sleep(args.throttle_ms / 1000.0))

        with miner:
            report = miner.watch(
                TransactionStream(transactions, batch_size=args.batch_size),
                minsup,
                connected_only=_connectivity_for(args),
                workers=args.workers,
                ingest_workers=args.ingest_workers if args.ingest_workers > 0 else None,
                max_inflight=args.max_inflight,
                resume_from=checkpoint,
            )
    except HistoryError as exc:
        # Typically: re-watching into a journal that already holds slides
        # (slide ids restart at 0, breaking the append-only order).
        print(f"error: cannot journal this stream: {exc}", file=sys.stderr)
        return EXIT_USAGE_ERROR
    except CheckpointError as exc:
        print(f"error: cannot resume from checkpoint: {exc}", file=sys.stderr)
        return EXIT_USAGE_ERROR
    except EdgeRegistryError as exc:
        return _fail_json(_no_edges_message(args, exc), EXIT_INPUT_ERROR)
    finally:
        journal.close()
    last = report.last_record
    resumed = (
        f" (resumed from slide {checkpoint.slide_id})" if checkpoint is not None else ""
    )
    if last is None:
        print(f"journalled 0 slides to {journal.path} (empty stream){resumed}")
        return 0
    print(
        f"journalled {report.slides} slides to {journal.path} "
        f"({len(journal)} records total, {last.pattern_count} patterns at "
        f"slide {last.slide_id}, minsup={last.minsup}){resumed}"
    )
    if checkpointer is not None and checkpointer.snapshots_sealed:
        sealed = checkpointer.last_checkpoint
        assert sealed is not None
        print(
            f"sealed {checkpointer.snapshots_sealed} snapshot(s) in "
            f"{args.checkpoint_dir} (latest: slide {sealed.slide_id})"
        )
    if checkpointer is not None and checkpointer.snapshots_skipped:
        print(
            f"skipped {checkpointer.snapshots_skipped} snapshot seal(s) "
            "after exhausted I/O retries (journal unaffected)"
        )
    summary = miner.resilience_event_log.summary()
    if summary:
        print(f"resilience: {summary}")
    return 0


def _cmd_supervise(args: argparse.Namespace) -> int:
    child = list(args.child)
    if child and child[0] == "--":
        child = child[1:]
    if not child:
        print(
            "error: supervise needs a child command after `--`, "
            "e.g. repro supervise -- watch data.fimi --journal j",
            file=sys.stderr,
        )
        return EXIT_USAGE_ERROR
    if child[0] not in ("watch", "serve"):
        print(
            f"error: supervise runs long-lived watch/serve children, got {child[0]!r}",
            file=sys.stderr,
        )
        return EXIT_USAGE_ERROR
    try:
        policy = RestartPolicy(
            max_restarts=args.max_restarts,
            backoff_s=args.backoff,
            backoff_factor=args.backoff_factor,
            max_backoff_s=args.max_backoff,
            stable_after_s=args.stable_after,
        )
    except SupervisorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE_ERROR
    command = [sys.executable, "-m", "repro", *child]
    return Supervisor(command, policy).run()


def _fail_query_json(message: str, code: str, path: Optional[str] = None) -> int:
    """One structured algebra-error line on stderr (PR 7 JSON convention)."""
    error: Dict[str, object] = {
        "error": message,
        "code": code,
        "exit_code": EXIT_USAGE_ERROR,
    }
    if path is not None:
        error["path"] = path
    print(json.dumps(error, sort_keys=True), file=sys.stderr)
    return EXIT_USAGE_ERROR


def _cmd_query(args: argparse.Namespace) -> int:
    try:
        app = ServeApp.from_directory(args.journal)
    except HistoryError as exc:
        return _fail_json(f"cannot open journal: {exc}", EXIT_INPUT_ERROR)
    if args.expr is None:
        payload = app.stats()
    else:
        try:
            payload = app.query(json.loads(args.expr))
        except json.JSONDecodeError as exc:
            return _fail_query_json(
                f"--expr is not valid JSON: {exc}", code="invalid-json"
            )
        except AlgebraError as exc:
            return _fail_query_json(str(exc), code=exc.code, path=exc.path)
        except (HistoryError, ServiceError) as exc:
            return _fail_query_json(str(exc), code="bad-query")
    _print_to_pipe(json.dumps(payload, indent=2, default=str))
    return 0


def _print_to_pipe(text: str) -> None:
    """Print ``text``; a reader that stops early (``| head``) ends it quietly.

    Once the reading end is closed, stdout is pointed at the null device so
    the interpreter's final flush cannot fail on the same pipe again.
    """
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _cmd_serve(args: argparse.Namespace) -> int:
    def announce(server) -> None:
        print(
            f"serving pattern history of {args.journal} on "
            f"http://{server.host}:{server.port} "
            f"(endpoints: POST /query, GET /stats, GET /subscribe [SSE]; "
            "SIGTERM/Ctrl-C drains)",
            flush=True,
        )

    installed, error = _install_faults(args)
    if error is not None:
        return error
    try:
        serve_async(
            args.journal,
            host=args.host,
            port=args.port,
            follow_interval=args.follow if args.follow > 0 else None,
            warm_dir=args.warm_dir,
            on_bound=announce,
        )
    except (HistoryError, OSError) as exc:
        return _fail_json(f"cannot open journal: {exc}", EXIT_INPUT_ERROR)
    except KeyboardInterrupt:  # asyncio.run re-raises on SIGINT
        pass
    finally:
        if installed:
            faults.uninstall_plan()
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    driver = EXPERIMENTS[args.experiment]
    kwargs: Dict[str, Any] = {"scale": args.scale}
    if args.clients is not None:
        if args.experiment != "e15":
            print("error: --clients only applies to e15", file=sys.stderr)
            return EXIT_USAGE_ERROR
        if args.clients < 1:
            print("error: --clients must be at least 1", file=sys.stderr)
            return EXIT_USAGE_ERROR
        kwargs["clients"] = args.clients
    try:
        outcome = driver(**kwargs)
    except DatasetError as exc:
        # e1-e10 reject "large", e11 rejects "paper" — a usage error.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE_ERROR
    if args.json:
        print(json.dumps(outcome, indent=2, default=str))
    else:
        rows = outcome.get("rows", [])
        print(format_table(rows, title=str(outcome.get("experiment", args.experiment))))
        for key, value in outcome.items():
            if key in ("rows", "results"):
                continue
            print(f"{key}: {value}")
    if args.baseline is None:
        return 0
    try:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read baseline: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    failures = compare_outcomes(baseline, outcome, label=args.experiment)
    if failures:
        print(f"{len(failures)} regression(s) against {args.baseline}:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    # stderr so that --json --baseline keeps stdout machine-readable.
    print(f"baseline check: within budget of {args.baseline}", file=sys.stderr)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    handlers = {
        "demo": _cmd_demo,
        "generate": _cmd_generate,
        "gen": _cmd_gen,
        "mine": _cmd_mine,
        "watch": _cmd_watch,
        "supervise": _cmd_supervise,
        "query": _cmd_query,
        "serve": _cmd_serve,
        "bench": _cmd_bench,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
