"""Experiment drivers reproducing §5 of the paper (see DESIGN.md §6).

Every driver returns a dictionary with at least a ``rows`` list (one dict per
table row / figure point) so the pytest benchmarks, the CLI and EXPERIMENTS.md
all share the same code path.  A ``scale`` preset controls the workload size:

* ``"tiny"``   — seconds, used by the unit/benchmark suite;
* ``"small"``  — tens of seconds, used by the CLI default;
* ``"paper"``  — batch size 6000 and window 5, approximating the paper's
  setting (minutes; run explicitly when desired).
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.bench.harness import (
    RunResult,
    WorkloadSpec,
    build_edge_workload,
    prepare_window,
    run_baseline_miner,
    run_dsmatrix_algorithm,
)
from repro.bench.metrics import Timer
from repro.core.miner import StreamSubgraphMiner
from repro.core.postprocess import filter_connected_patterns
from repro.datasets.workloads import build_stream, get_workload
from repro.exceptions import DatasetError
from repro.ingest.api import IngestReport, ingest_batches
from repro.parallel.api import mine_window_parallel
from repro.storage.backend import DiskWindowStore, MemoryWindowStore
from repro.stream.stream import TransactionStream, group_units

#: DSMatrix algorithms that mine *all* collections of frequent edges (§3).
POSTPROCESSED_ALGORITHMS = ("fptree_multi", "fptree_single", "fptree_topdown", "vertical")
#: The direct algorithm (§4).
DIRECT_ALGORITHM = "vertical_direct"

_SCALES: Dict[str, Dict[str, int]] = {
    "tiny": {
        "num_snapshots": 150,
        "batch_size": 30,
        "window_size": 5,
        "num_vertices": 14,
        "itemset_transactions": 300,
        "itemset_batch": 60,
    },
    "small": {
        "num_snapshots": 1500,
        "batch_size": 300,
        "window_size": 5,
        "num_vertices": 24,
        "itemset_transactions": 3000,
        "itemset_batch": 600,
    },
    "paper": {
        "num_snapshots": 30000,
        "batch_size": 6000,
        "window_size": 5,
        "num_vertices": 40,
        "itemset_transactions": 30000,
        "itemset_batch": 6000,
    },
}


def scale_parameters(scale: str) -> Dict[str, int]:
    """The workload-size preset for ``scale``."""
    try:
        return dict(_SCALES[scale])
    except KeyError:
        raise DatasetError(
            f"unknown scale {scale!r}; expected one of {sorted(_SCALES)}"
        ) from None


def default_edge_workload(scale: str = "tiny", seed: int = 42) -> WorkloadSpec:
    """The random-graph-stream workload used by most experiments."""
    params = scale_parameters(scale)
    return build_edge_workload(
        name=f"random-graph[{scale}]",
        num_vertices=params["num_vertices"],
        avg_fanout=4.0,
        avg_edges_per_snapshot=6.0,
        num_snapshots=params["num_snapshots"],
        batch_size=params["batch_size"],
        window_size=params["window_size"],
        seed=seed,
    )


def _default_minsup(workload: WorkloadSpec, fraction: float = 0.05) -> int:
    window_transactions = workload.batch_size * workload.window_size
    return max(2, int(window_transactions * fraction))


# ---------------------------------------------------------------------- #
# E1 — accuracy
# ---------------------------------------------------------------------- #
def experiment_accuracy(
    scale: str = "tiny", minsup: Optional[int] = None, seed: int = 42
) -> Dict[str, object]:
    """Experiment 1: every structure/algorithm returns the same result sets."""
    workload = default_edge_workload(scale, seed=seed)
    support = minsup if minsup is not None else _default_minsup(workload)
    matrix = prepare_window(workload)

    all_collections: Dict[str, Dict] = {}
    rows: List[Dict[str, object]] = []
    for name in POSTPROCESSED_ALGORITHMS:
        result = run_dsmatrix_algorithm(
            name, matrix, workload, support, connected=False, keep_patterns=True
        )
        all_collections[name] = result.patterns or {}
        rows.append(
            {
                "miner": name,
                "structure": "DSMatrix",
                "result": "all frequent collections",
                "patterns": result.pattern_count,
            }
        )
    for baseline in ("dstree", "dstable"):
        result = run_baseline_miner(baseline, workload, support, keep_patterns=True)
        all_collections[baseline] = result.patterns or {}
        rows.append(
            {
                "miner": baseline,
                "structure": baseline.upper(),
                "result": "all frequent collections",
                "patterns": result.pattern_count,
            }
        )

    reference = all_collections[POSTPROCESSED_ALGORITHMS[0]]
    all_equal = all(patterns == reference for patterns in all_collections.values())

    # Connected subgraphs: direct algorithm vs vertical + exact post-processing.
    direct = run_dsmatrix_algorithm(
        DIRECT_ALGORITHM, matrix, workload, support, keep_patterns=True
    )
    post = filter_connected_patterns(
        all_collections["vertical"], workload.registry, rule="exact"
    )
    rows.append(
        {
            "miner": DIRECT_ALGORITHM,
            "structure": "DSMatrix",
            "result": "connected subgraphs",
            "patterns": direct.pattern_count,
        }
    )
    rows.append(
        {
            "miner": "vertical + post-processing",
            "structure": "DSMatrix",
            "result": "connected subgraphs",
            "patterns": len(post),
        }
    )
    connected_equal = (direct.patterns or {}) == post

    return {
        "experiment": "E1-accuracy",
        "workload": workload.name,
        "minsup": support,
        "rows": rows,
        "all_collections_identical": all_equal,
        "connected_results_identical": connected_equal,
    }


# ---------------------------------------------------------------------- #
# E2 — space efficiency
# ---------------------------------------------------------------------- #
def experiment_memory(
    scale: str = "tiny", minsup: Optional[int] = None, seed: int = 42
) -> Dict[str, object]:
    """Experiment 2: memory ranking of the structures and algorithms."""
    workload = default_edge_workload(scale, seed=seed)
    support = minsup if minsup is not None else _default_minsup(workload)
    matrix = prepare_window(workload)

    rows: List[Dict[str, object]] = []
    results: Dict[str, RunResult] = {}
    for baseline in ("dstree", "dstable"):
        result = run_baseline_miner(baseline, workload, support)
        results[baseline] = result
        rows.append(_memory_row(result, structure=baseline.upper()))
    for name in POSTPROCESSED_ALGORITHMS + (DIRECT_ALGORITHM,):
        result = run_dsmatrix_algorithm(
            name, matrix, workload, support, connected=(name == DIRECT_ALGORITHM)
        )
        results[name] = result
        rows.append(_memory_row(result, structure="DSMatrix"))

    return {
        "experiment": "E2-memory",
        "workload": workload.name,
        "minsup": support,
        "rows": rows,
        "results": {name: result.as_row() for name, result in results.items()},
    }


def _memory_row(result: RunResult, structure: str) -> Dict[str, object]:
    return {
        "miner": result.algorithm,
        "structure": structure,
        "peak_mining_mem_kb": round(result.peak_memory_bytes / 1024.0, 1),
        "window_structure_kb": round(result.structure_bytes / 1024.0, 1),
        "max_concurrent_fptrees": result.stats.get("max_concurrent_fptrees", 0),
        "max_fptree_nodes": result.stats.get("max_fptree_nodes", 0),
        "patterns": result.pattern_count,
    }


# ---------------------------------------------------------------------- #
# E3 / Figure 2 — runtime of the two vertical algorithms
# ---------------------------------------------------------------------- #
def experiment_runtime_fig2(
    scale: str = "tiny",
    minsup: Optional[int] = None,
    seeds: Sequence[int] = (41, 42, 43),
    include_tree_algorithms: bool = True,
) -> Dict[str, object]:
    """Experiment 3 + Figure 2: runtimes, vertical vs direct (and tree-based).

    The figure in the paper plots the runtime of algorithm 4 (vertical mining
    with the post-processing step) and algorithm 5 (direct vertical mining)
    over several datasets; each seed here is one dataset instance.
    """
    rows: List[Dict[str, object]] = []
    for seed in seeds:
        workload = default_edge_workload(scale, seed=seed)
        support = minsup if minsup is not None else _default_minsup(workload)
        matrix = prepare_window(workload)
        dataset = f"{workload.name}#seed{seed}"
        algorithms = (
            POSTPROCESSED_ALGORITHMS + (DIRECT_ALGORITHM,)
            if include_tree_algorithms
            else ("vertical", DIRECT_ALGORITHM)
        )
        for name in algorithms:
            connected = True  # every algorithm ends with connected output here
            result = run_dsmatrix_algorithm(
                name, matrix, workload, support, connected=connected
            )
            rows.append(
                {
                    "dataset": dataset,
                    "algorithm": name,
                    "minsup": support,
                    "runtime_s": round(result.runtime_seconds, 4),
                    "patterns": result.pattern_count,
                }
            )
    return {
        "experiment": "E3-runtime-fig2",
        "rows": rows,
    }


# ---------------------------------------------------------------------- #
# E4 — effect of minsup
# ---------------------------------------------------------------------- #
def experiment_minsup_sweep(
    scale: str = "tiny",
    fractions: Sequence[float] = (0.02, 0.05, 0.10, 0.20),
    algorithms: Sequence[str] = ("vertical", DIRECT_ALGORITHM),
    seed: int = 42,
) -> Dict[str, object]:
    """Additional experiment: runtime decreases when minsup increases."""
    workload = default_edge_workload(scale, seed=seed)
    matrix = prepare_window(workload)
    window_transactions = matrix.num_columns
    rows: List[Dict[str, object]] = []
    for fraction in fractions:
        support = max(1, int(window_transactions * fraction))
        for name in algorithms:
            result = run_dsmatrix_algorithm(
                name, matrix, workload, support, connected=True
            )
            rows.append(
                {
                    "minsup_fraction": fraction,
                    "minsup": support,
                    "algorithm": name,
                    "runtime_s": round(result.runtime_seconds, 4),
                    "patterns": result.pattern_count,
                }
            )
    return {
        "experiment": "E4-minsup-sweep",
        "workload": workload.name,
        "rows": rows,
    }


# ---------------------------------------------------------------------- #
# E5 — scalability with the number of batches
# ---------------------------------------------------------------------- #
def experiment_scalability(
    scale: str = "tiny",
    batch_counts: Sequence[int] = (5, 10, 20, 40),
    algorithms: Sequence[str] = ("vertical", DIRECT_ALGORITHM),
    seed: int = 42,
) -> Dict[str, object]:
    """Additional experiment: total stream-processing time vs stream length.

    For each stream length the full pipeline is timed: ingesting every batch
    through the DSMatrix (with window slides) and mining once at the end.
    """
    params = scale_parameters(scale)
    rows: List[Dict[str, object]] = []
    for batches in batch_counts:
        workload = build_edge_workload(
            name=f"random-graph[{scale}]x{batches}",
            num_vertices=params["num_vertices"],
            avg_edges_per_snapshot=6.0,
            num_snapshots=params["batch_size"] * batches,
            batch_size=params["batch_size"],
            window_size=params["window_size"],
            seed=seed,
        )
        support = _default_minsup(workload)
        for name in algorithms:
            with Timer() as timer:
                matrix = prepare_window(workload)
                run_dsmatrix_algorithm(name, matrix, workload, support, connected=True)
            rows.append(
                {
                    "stream_batches": batches,
                    "algorithm": name,
                    "minsup": support,
                    "total_runtime_s": round(timer.elapsed, 4),
                }
            )
    return {
        "experiment": "E5-scalability",
        "rows": rows,
    }


# ---------------------------------------------------------------------- #
# E6 — storage-backend ablation
# ---------------------------------------------------------------------- #
def experiment_storage_backends(
    scale: str = "tiny",
    minsup: Optional[int] = None,
    algorithms: Sequence[str] = ("vertical", DIRECT_ALGORITHM),
    seed: int = 42,
) -> Dict[str, object]:
    """Ablation over the window storage engine (see DESIGN.md §3).

    The same stream is ingested through the in-memory backend and the
    disk backend (one file per batch plus a manifest); each row reports the
    ingestion time, the bytes persisted by the *last* append (the
    steady-state per-batch I/O) and the mining runtime.  Both backends must
    return identical patterns.
    """
    workload = default_edge_workload(scale, seed=seed)
    support = minsup if minsup is not None else _default_minsup(workload)
    rows: List[Dict[str, object]] = []
    pattern_sets: Dict[str, Dict] = {}

    with tempfile.TemporaryDirectory(prefix="repro-bench-storage-") as tmp:
        targets = {"memory": None, "disk": Path(tmp) / "segments"}
        for backend, path in targets.items():
            with Timer() as ingest_timer:
                matrix = prepare_window(workload, path=path)
            store = matrix.store
            io_stats = (
                store.io_stats.as_dict()
                if isinstance(store, DiskWindowStore)
                else {}
            )
            for name in algorithms:
                connected = name == DIRECT_ALGORITHM
                result = run_dsmatrix_algorithm(
                    name, matrix, workload, support,
                    connected=connected, keep_patterns=True,
                )
                pattern_sets.setdefault(name, {})[backend] = result.patterns or {}
                rows.append(
                    {
                        "backend": backend,
                        "algorithm": name,
                        "ingest_s": round(ingest_timer.elapsed, 4),
                        "bytes_last_append": io_stats.get("bytes_last_append", 0),
                        "disk_kb": round(matrix.disk_size_bytes() / 1024.0, 1),
                        "mine_runtime_s": round(result.runtime_seconds, 4),
                        "patterns": result.pattern_count,
                    }
                )

    backends_agree = all(
        len(set(map(_freeze_patterns, per_backend.values()))) == 1
        for per_backend in pattern_sets.values()
    )
    return {
        "experiment": "E6-storage-backends",
        "workload": workload.name,
        "minsup": support,
        "rows": rows,
        "backends_identical": backends_agree,
    }


def _freeze_patterns(patterns: Dict) -> frozenset:
    return frozenset(patterns.items())


# ---------------------------------------------------------------------- #
# E7 — strong scaling of sharded parallel mining
# ---------------------------------------------------------------------- #
def experiment_strong_scaling(
    scale: str = "small",
    minsup: Optional[int] = None,
    worker_counts: Sequence[int] = (1, 2, 4, 8),
    algorithms: Sequence[str] = ("vertical", DIRECT_ALGORITHM),
    seed: int = 42,
    output_path: Optional[Union[str, Path]] = "BENCH_e7.json",
) -> Dict[str, object]:
    """Strong-scaling ablation of the parallel subsystem (DESIGN.md §4).

    The same prepared window is mined with the sharded executor at each
    worker count (plus the ``workers=0`` in-process reference); each row
    reports the mining wall-clock and the speedup over one worker.  Every
    run must return the identical pattern set — ``parallel_identical``
    asserts the determinism guarantee alongside the timings.

    The outcome is also written to ``output_path`` (``BENCH_e7.json`` by
    default, pass ``None`` to skip) so CI can archive the per-commit
    scaling trajectory as an artifact.
    """
    workload = default_edge_workload(scale, seed=seed)
    support = minsup if minsup is not None else _default_minsup(workload)
    matrix = prepare_window(workload)

    rows: List[Dict[str, object]] = []
    all_identical = True
    for name in algorithms:
        reference: Optional[Dict] = None
        baseline_runtime: Optional[float] = None
        for workers in (0, *worker_counts):
            with Timer() as timer:
                patterns, _stats = mine_window_parallel(
                    matrix,
                    name,
                    support,
                    workers=workers,
                    registry=workload.registry,
                )
            if reference is None:
                reference = patterns
            elif patterns != reference:
                all_identical = False
            if workers == 1:
                baseline_runtime = timer.elapsed
            speedup = (
                round(baseline_runtime / timer.elapsed, 2)
                if baseline_runtime and timer.elapsed > 0
                else None
            )
            rows.append(
                {
                    "algorithm": name,
                    "workers": workers,
                    "runtime_s": round(timer.elapsed, 4),
                    "speedup_vs_1": speedup,
                    "patterns": len(patterns),
                }
            )

    outcome: Dict[str, object] = {
        "experiment": "E7-strong-scaling",
        "workload": workload.name,
        "minsup": support,
        "worker_counts": list(worker_counts),
        "rows": rows,
        "parallel_identical": all_identical,
    }
    if output_path is not None:
        target = Path(output_path)
        target.write_text(
            json.dumps(outcome, indent=2, default=str), encoding="utf-8"
        )
        outcome["output"] = str(target)
    return outcome


# ---------------------------------------------------------------------- #
# E8 — strong scaling of sharded parallel ingestion
# ---------------------------------------------------------------------- #
def experiment_ingest_scaling(
    scale: str = "small",
    ingest_worker_counts: Sequence[int] = (1, 2, 4),
    algorithm: str = "vertical",
    minsup: Optional[int] = None,
    seed: int = 42,
    output_path: Optional[Union[str, Path]] = "BENCH_e8.json",
) -> Dict[str, object]:
    """Strong-scaling ablation of the parallel ingestion pipeline (DESIGN.md §5).

    The same transaction stream is consumed at each ingest-worker count
    (plus the ``ingest_workers=0`` in-process reference): workers parse,
    canonicalise and materialise batch segments while the single-writer
    coordinator commits them in stream order.  Each row reports the
    ingestion wall-clock, the speedup over one worker and the final
    window shape; ``ingest_identical`` asserts that every worker count
    produced the identical window (item frequencies, batch boundaries and
    the pattern set mined from it).

    Like E7, the outcome is written to ``output_path`` (``BENCH_e8.json``
    by default, pass ``None`` to skip) so CI can archive the per-commit
    scaling trajectory as an artifact.
    """
    workload = default_edge_workload(scale, seed=seed)
    support = minsup if minsup is not None else _default_minsup(workload)

    rows: List[Dict[str, object]] = []
    reference: Optional[Dict[str, object]] = None
    baseline_runtime: Optional[float] = None
    all_identical = True
    for workers in (0, *ingest_worker_counts):
        miner = StreamSubgraphMiner(
            window_size=workload.window_size,
            batch_size=workload.batch_size,
            algorithm=algorithm,
        )
        stream = TransactionStream(
            workload.transactions, batch_size=workload.batch_size
        )
        with Timer() as timer:
            miner.consume(stream, ingest_workers=workers)
        fingerprint: Dict[str, object] = {
            "frequencies": dict(miner.matrix.item_frequencies()),
            "boundaries": miner.matrix.boundaries(),
            "patterns": miner.mine(support, connected_only=False).to_dict(),
        }
        if reference is None:
            reference = fingerprint
        elif fingerprint != reference:
            all_identical = False
        if workers == 1:
            baseline_runtime = timer.elapsed
        speedup = (
            round(baseline_runtime / timer.elapsed, 2)
            if baseline_runtime and timer.elapsed > 0
            else None
        )
        rows.append(
            {
                "ingest_workers": workers,
                "ingest_s": round(timer.elapsed, 4),
                "speedup_vs_1": speedup,
                "batches": miner.batches_consumed,
                "columns": miner.transaction_count,
            }
        )

    outcome: Dict[str, object] = {
        "experiment": "E8-ingest-scaling",
        "workload": workload.name,
        "minsup": support,
        "ingest_worker_counts": list(ingest_worker_counts),
        "rows": rows,
        "ingest_identical": all_identical,
    }
    if output_path is not None:
        target = Path(output_path)
        target.write_text(
            json.dumps(outcome, indent=2, default=str), encoding="utf-8"
        )
        outcome["output"] = str(target)
    return outcome


# ---------------------------------------------------------------------- #
# E9 — pipelined vs barrier ingest execution
# ---------------------------------------------------------------------- #
def experiment_pipelined_ingest(
    scale: str = "small",
    ingest_workers: int = 2,
    max_inflight_values: Sequence[int] = (1, 2, 8),
    seed: int = 42,
    output_path: Optional[Union[str, Path]] = "BENCH_e9.json",
) -> Dict[str, object]:
    """Ablation of the pipelined execution engine (DESIGN.md §9).

    The same transaction stream is ingested three ways: the in-process
    reference (``workers=0``), a **barrier** emulation of the pre-pipeline
    executor (``max_inflight`` = the stream's batch count, so every
    encoded batch may be resident before the first commit) and the
    **pipelined** path at each bounded ``max_inflight``.  Each row reports
    the ingestion wall-clock and ``peak_inflight`` — the high-water mark
    of submitted-but-uncommitted batches, an upper bound on how many
    encoded batches can be resident at once (the memory the bound is
    about); its ``chunks`` field repeats ``batches`` (one batch per
    task).  ``inflight_bounded`` asserts ``peak <= max_inflight`` for
    every row and ``pipeline_identical`` asserts that every mode
    committed the identical window.

    Like E7/E8, the outcome is written to ``output_path``
    (``BENCH_e9.json`` by default, pass ``None`` to skip) for the CI
    artifact and the nightly regression gate.
    """
    workload = default_edge_workload(scale, seed=seed)

    def run_ingest(
        workers: int, max_inflight: Optional[int]
    ) -> Tuple[IngestReport, float, Dict[str, object]]:
        store = MemoryWindowStore(workload.window_size)
        with Timer() as timer:
            report = ingest_batches(
                store,
                group_units(workload.transactions, workload.batch_size),
                workers=workers,
                max_inflight=max_inflight,
            )
        fingerprint: Dict[str, object] = {
            "frequencies": dict(store.item_frequencies()),
            "boundaries": store.boundaries(),
            "items": store.items(),
        }
        return report, timer.elapsed, fingerprint

    # The reference run also tells us the stream length in batches, which
    # is what the barrier emulation uses as its (unbounded) in-flight budget.
    reference_report, reference_s, reference = run_ingest(0, None)

    modes: List[Tuple[str, int, Optional[int]]] = [
        ("barrier", ingest_workers, max(1, reference_report.batches)),
    ]
    modes.extend(
        ("pipelined", ingest_workers, bound) for bound in max_inflight_values
    )

    rows: List[Dict[str, object]] = []
    all_identical = True
    all_bounded = True
    runs = [("in-process", 0, reference_report, reference_s, reference)]
    runs.extend(
        (mode, workers, *run_ingest(workers, bound))
        for mode, workers, bound in modes
    )
    for mode, workers, report, elapsed, fingerprint in runs:
        if fingerprint != reference:
            all_identical = False
        if report.peak_inflight > report.max_inflight:
            all_bounded = False
        rows.append(
            {
                "mode": mode,
                "ingest_workers": workers,
                "max_inflight": report.max_inflight,
                "ingest_s": round(elapsed, 4),
                "peak_inflight": report.peak_inflight,
                "chunks": report.batches,
                "batches": report.batches,
                "columns": report.columns,
            }
        )

    outcome: Dict[str, object] = {
        "experiment": "E9-pipelined-ingest",
        "workload": workload.name,
        "ingest_workers": ingest_workers,
        "max_inflight_values": list(max_inflight_values),
        "rows": rows,
        "pipeline_identical": all_identical,
        "inflight_bounded": all_bounded,
    }
    if output_path is not None:
        target = Path(output_path)
        target.write_text(
            json.dumps(outcome, indent=2, default=str), encoding="utf-8"
        )
        outcome["output"] = str(target)
    return outcome


# ---------------------------------------------------------------------- #
# E10 — pattern-history journal overhead + query throughput
# ---------------------------------------------------------------------- #
def experiment_journal_history(
    scale: str = "tiny",
    minsup: Optional[int] = None,
    seed: int = 42,
    reader_threads: int = 4,
    queries_per_thread: int = 50,
    seeds_checked: int = 25,
    output_path: Optional[Union[str, Path]] = "BENCH_e10.json",
) -> Dict[str, object]:
    """Ablation of the pattern-history subsystem (DESIGN.md §10).

    Three questions are measured on the same stream:

    * **write overhead** — the same ``watch`` run (mine at every slide)
      with no sink, with a memory journal and with a disk journal; the
      ``overhead_ratio`` column is disk-journal wall-clock over no-sink
      wall-clock (the journal's serialisation + persistence tax, budgeted
      at <= 10% by the acceptance bar);
    * **determinism** — ``journal_identical`` asserts the sealed record
      bytes are identical between ``ingest_workers=0`` and a pipelined
      2-worker run (the §10 parity guarantee);
    * **query throughput under concurrent readers** —
      ``reader_threads`` threads evaluate ``select(contains)`` (row
      ``super``), ``select(contained_in)`` (row ``sub``) and ``history``
      (row ``support-history``) against one shared immutable
      :class:`~repro.serve.index.IndexSnapshot`;
      ``index_matches_bruteforce`` cross-checks a sample of the answers
      against :func:`~repro.history.algebra.brute_force_query`.

    Like E7-E9, the outcome is written to ``output_path``
    (``BENCH_e10.json`` by default, pass ``None`` to skip) for the CI
    artifact and the nightly regression gate.
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.history import algebra
    from repro.history.journal import DiskJournal, MemoryJournal, SlideRecord
    from repro.serve.index import JournalIndex

    workload = default_edge_workload(scale, seed=seed)
    support = minsup if minsup is not None else _default_minsup(workload)

    def run_watch(sink, ingest_workers: Optional[int] = None) -> Tuple[int, float]:
        miner = StreamSubgraphMiner(
            window_size=workload.window_size,
            batch_size=workload.batch_size,
            algorithm="vertical",
            on_slide=sink,
        )
        with Timer() as timer:
            report = miner.watch(
                TransactionStream(workload.transactions, batch_size=workload.batch_size),
                support,
                connected_only=False,
                ingest_workers=ingest_workers,
            )
        return report.slides, timer.elapsed

    rows: List[Dict[str, object]] = []
    slides, no_sink_s = run_watch(None)
    rows.append({"mode": "no-journal", "slides": slides, "watch_s": round(no_sink_s, 4)})

    memory_journal = MemoryJournal()
    slides, memory_s = run_watch(memory_journal.append)
    rows.append(
        {
            "mode": "memory-journal",
            "slides": slides,
            "watch_s": round(memory_s, 4),
            "overhead_ratio": round(memory_s / no_sink_s, 3) if no_sink_s else None,
        }
    )

    with tempfile.TemporaryDirectory(prefix="repro-bench-journal-") as tmp:
        disk_journal = DiskJournal(Path(tmp) / "journal")
        slides, disk_s = run_watch(disk_journal.append)
        rows.append(
            {
                "mode": "disk-journal",
                "slides": slides,
                "watch_s": round(disk_s, 4),
                "overhead_ratio": round(disk_s / no_sink_s, 3) if no_sink_s else None,
                "journal_kb": round(disk_journal.disk_size_bytes() / 1024.0, 1),
            }
        )

    # Determinism: pipelined 2-worker ingestion seals identical record bytes.
    parallel_journal = MemoryJournal()
    run_watch(parallel_journal.append, ingest_workers=2)
    journal_identical = [record.to_bytes() for record in parallel_journal] == [
        record.to_bytes() for record in memory_journal
    ]

    # Query throughput: concurrent readers over the shared immutable index.
    records: Tuple[SlideRecord, ...] = memory_journal.records()
    index = JournalIndex(records).current
    universe = index.items() or ["_"]

    def query_args(offset: int) -> List[Tuple[str, ...]]:
        return [
            (
                universe[(offset + position) % len(universe)],
                universe[(offset + 2 * position + 1) % len(universe)],
            )
            for position in range(queries_per_thread)
        ]

    def answer(query: algebra.Query) -> object:
        evaluation = algebra.evaluate(query, index)
        if isinstance(query, algebra.History):
            return evaluation.curve
        return evaluation.matches

    index_ok = True
    for kind, build in (
        ("super", lambda items: algebra.select(algebra.contains(*items))),
        ("sub", lambda items: algebra.select(algebra.contained_in(*items))),
        ("support-history", lambda items: algebra.history(*items)),
    ):
        # Cross-check a sample against the brute-force scan first ...
        for items in query_args(0)[:seeds_checked]:
            query = build(items)
            if answer(query) != algebra.brute_force_query(query, records):
                index_ok = False

        # ... then measure the indexed path under concurrent readers.
        def worker(offset: int) -> int:
            answered = 0
            for items in query_args(offset):
                answer(build(items))
                answered += 1
            return answered

        with Timer() as timer:
            with ThreadPoolExecutor(max_workers=reader_threads) as pool:
                answered = sum(pool.map(worker, range(reader_threads)))
        rows.append(
            {
                "query": kind,
                "threads": reader_threads,
                "queries": answered,
                "query_total_s": round(timer.elapsed, 4),
                "queries_per_s": round(answered / timer.elapsed, 1)
                if timer.elapsed
                else None,
            }
        )

    outcome: Dict[str, object] = {
        "experiment": "E10-journal-history",
        "workload": workload.name,
        "minsup": support,
        "reader_threads": reader_threads,
        "rows": rows,
        "journal_identical": journal_identical,
        "index_matches_bruteforce": index_ok,
    }
    if output_path is not None:
        target = Path(output_path)
        target.write_text(
            json.dumps(outcome, indent=2, default=str), encoding="utf-8"
        )
        outcome["output"] = str(target)
    return outcome


# ---------------------------------------------------------------------- #
# E11 — parallel-stack strong scaling (DESIGN.md §11)
# ---------------------------------------------------------------------- #

#: E11 scale -> canonical workload (see :mod:`repro.datasets.workloads`).
_SCALING_WORKLOADS = {
    "tiny": "random-graph[smoke]",
    "small": "random-graph[medium]",
    "large": "random-graph[large]",
}


def experiment_worker_scaling(
    scale: str = "tiny",
    worker_counts: Sequence[int] = (1, 2, 4, 8),
    ingest_worker_counts: Sequence[int] = (0, 2),
    max_inflight_values: Sequence[int] = (1, 4),
    algorithm: str = DIRECT_ALGORITHM,
    repeats: int = 3,
    output_path: Optional[Union[str, Path]] = "BENCH_e11.json",
) -> Dict[str, object]:
    """Strong scaling of the parallel mining stack (DESIGN.md §11).

    Runs on the *canonical seeded workloads* of
    :mod:`repro.datasets.workloads` (``tiny`` → ``random-graph[smoke]``,
    ``small`` → ``random-graph[medium]``, ``large`` → the million-snapshot
    ``random-graph[large]``) and measures three things on one window:

    * **scaling** rows — the window mined at each worker count on a
      run-scoped pool, plus the ``workers=0`` reference; ``speedup_monotone`` asserts the runtime
      does not degrade (within 10% noise slack) as workers grow — the
      regression key for the workers=1-slower-than-workers=0 pathology
      this subsystem exists to avoid;
    * **pool** rows — the same parallel mine twice through one
      :class:`StreamSubgraphMiner`, showing the persistent pool's spawn
      cost amortising away on the second call;
    * **parity** rows — a ``mine workers × ingest_workers ×
      max_inflight`` grid, each cell a fresh miner consuming the same
      stream and mining the same support; ``parallel_identical`` asserts
      every cell (and every scaling run) produced the identical
      answer.

    Like E7-E10, the outcome is written to ``output_path``
    (``BENCH_e11.json`` by default, pass ``None`` to skip) for the CI
    artifact and the nightly regression gate.
    """
    workload_name = _SCALING_WORKLOADS.get(scale)
    if workload_name is None:
        raise DatasetError(
            f"unknown E11 scale {scale!r}; "
            f"expected one of {sorted(_SCALING_WORKLOADS)}"
        )
    spec = get_workload(workload_name)

    def fresh_miner() -> StreamSubgraphMiner:
        return StreamSubgraphMiner(
            window_size=spec.window_size,
            batch_size=spec.batch_size,
            algorithm=algorithm,
        )

    miner = fresh_miner()
    with Timer() as ingest_timer:
        miner.consume(build_stream(spec, miner.registry))
    matrix, registry = miner.matrix, miner.registry
    support = max(2, int(round(matrix.num_columns * spec.minsup)))

    rows: List[Dict[str, object]] = [
        {
            "phase": "ingest",
            "batches": miner.batches_consumed,
            "ingest_s": round(ingest_timer.elapsed, 4),
        }
    ]
    all_identical = True
    reference: Optional[Dict] = None

    def check(patterns: Dict) -> int:
        nonlocal reference, all_identical
        if reference is None:
            reference = patterns
        elif patterns != reference:
            all_identical = False
        return len(patterns)

    # Timed comparisons take the best of ``repeats`` runs: a single
    # fork/IPC hiccup at tiny scale would otherwise flip the boolean
    # regression keys on noise.
    def timed_mine(**kwargs) -> Tuple[Dict, float]:
        best: Optional[float] = None
        for _ in range(repeats):
            with Timer() as timer:
                patterns, _stats = mine_window_parallel(
                    matrix, algorithm, support, registry=registry, **kwargs
                )
            best = timer.elapsed if best is None else min(best, timer.elapsed)
        return patterns, best

    # --- scaling: run-scoped pools ------------------------------------- #
    runtimes: Dict[int, float] = {}
    baseline_runtime: Optional[float] = None
    for workers in (0, *worker_counts):
        patterns, elapsed = timed_mine(workers=workers)
        runtimes[workers] = elapsed
        if workers == 1:
            baseline_runtime = elapsed
        rows.append(
            {
                "phase": "scaling",
                "workers": workers,
                "runtime_s": round(elapsed, 4),
                "speedup_vs_1": (
                    round(baseline_runtime / elapsed, 2)
                    if baseline_runtime and elapsed > 0
                    else None
                ),
                "patterns": check(patterns),
            }
        )
    ordered = sorted(worker_counts)
    speedup_monotone = all(
        runtimes[nxt] <= runtimes[prev] * 1.10
        for prev, nxt in zip(ordered, ordered[1:])
    )

    # --- pool reuse: spawn cost amortises across repeated mines -------- #
    pool_workers = min(2, max(ordered))
    for call in ("first", "repeat"):
        with Timer() as timer:
            result = miner.mine(support, workers=pool_workers)
        rows.append(
            {
                "phase": "pool",
                "call": call,
                "workers": pool_workers,
                "runtime_s": round(timer.elapsed, 4),
                "patterns": len(result),
            }
        )
    pool_spawns = (
        miner.mining_pool.spawn_count if miner.mining_pool is not None else 0
    )
    miner.close()

    # --- parity grid: mine workers x ingest workers x max inflight ----- #
    for ingest_workers in ingest_worker_counts:
        for max_inflight in max_inflight_values:
            for workers in (0, max(ordered)):
                with fresh_miner() as grid_miner:
                    grid_miner.consume(
                        build_stream(spec, grid_miner.registry),
                        ingest_workers=ingest_workers,
                        max_inflight=max_inflight,
                    )
                    result = grid_miner.mine(
                        support, workers=workers, max_inflight=max_inflight
                    )
                patterns = {
                    frozenset(p.sorted_items()): p.support for p in result
                }
                rows.append(
                    {
                        "phase": "parity",
                        "workers": workers,
                        "ingest_workers": ingest_workers,
                        "max_inflight": max_inflight,
                        "patterns": check(patterns),
                    }
                )

    outcome: Dict[str, object] = {
        "experiment": "E11-worker-scaling",
        "workload": spec.name,
        "minsup": support,
        "columns": matrix.num_columns,
        "worker_counts": list(worker_counts),
        "pool_spawns": pool_spawns,
        "rows": rows,
        "parallel_identical": all_identical,
        "speedup_monotone": speedup_monotone,
    }
    if output_path is not None:
        target = Path(output_path)
        target.write_text(
            json.dumps(outcome, indent=2, default=str), encoding="utf-8"
        )
        outcome["output"] = str(target)
    return outcome


# ---------------------------------------------------------------------- #
# E12 — checkpoint/recovery ablation (DESIGN.md §12)
# ---------------------------------------------------------------------- #
def experiment_checkpoint_recovery(
    scale: str = "tiny",
    minsup: Optional[int] = None,
    seed: int = 42,
    checkpoint_every: int = 2,
    crash_after_slides: int = 7,
    output_path: Optional[Union[str, Path]] = "BENCH_e12.json",
) -> Dict[str, object]:
    """Crash/recovery ablation of the checkpoint subsystem (DESIGN.md §12).

    Four phases on the same stream (the batch size is halved versus the
    scale preset so even ``tiny`` yields ~10 slides to crash in):

    * **no-checkpoint** — the plain journalled watch, the wall-clock
      reference;
    * **checkpointed** — the identical watch sealing a snapshot every
      ``checkpoint_every`` slides; ``overhead_ratio`` (checkpointed over
      plain wall-clock) is the snapshot tax the nightly gate budgets, and
      ``snapshot_kb`` the retained on-disk snapshot footprint;
    * **hydrate** — a simulated crash after ``crash_after_slides`` slides,
      then the restore path end to end: load + validate the latest
      snapshot, roll the journal back to the checkpointed slide, rebuild
      the miner;
    * **replay** — the resumed watch over the un-checkpointed stream
      suffix only; ``restore_identical`` asserts the continued
      ``journal.dat`` is byte-identical to the uninterrupted run's — the
      §12 crash-recovery guarantee, and the boolean regression key.

    Like E7-E11, the outcome is written to ``output_path``
    (``BENCH_e12.json`` by default, pass ``None`` to skip) for the CI
    artifact and the nightly regression gate.
    """
    from repro.checkpoint import CheckpointManager, Checkpointer
    from repro.history.journal import DiskJournal, truncate_journal

    workload = default_edge_workload(scale, seed=seed)
    batch_size = max(5, workload.batch_size // 2)
    window_size = workload.window_size
    support = (
        minsup
        if minsup is not None
        else max(2, int(batch_size * window_size * 0.05))
    )
    transactions = list(workload.transactions)

    def journalled_watch(journal, units, resume_from=None, miner=None):
        if miner is None:
            miner = StreamSubgraphMiner(
                window_size=window_size,
                batch_size=batch_size,
                algorithm="vertical",
                on_slide=journal.append,
            )
        with Timer() as timer:
            report = miner.watch(
                TransactionStream(units, batch_size=batch_size),
                support,
                connected_only=False,
                resume_from=resume_from,
            )
        return miner, report.slides, timer.elapsed

    rows: List[Dict[str, object]] = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-checkpoint-") as tmp:
        root = Path(tmp)

        # --- reference: uninterrupted watch, no snapshots -------------- #
        ref_journal = DiskJournal(root / "ref")
        _, slides, base_s = journalled_watch(ref_journal, transactions)
        ref_journal.close()
        rows.append(
            {"mode": "no-checkpoint", "slides": slides, "watch_s": round(base_s, 4)}
        )

        # --- overhead: the same watch sealing periodic snapshots ------- #
        chk_journal = DiskJournal(root / "overhead-journal")
        chk_miner = StreamSubgraphMiner(
            window_size=window_size,
            batch_size=batch_size,
            algorithm="vertical",
            on_slide=chk_journal.append,
        )
        overhead_manager = CheckpointManager(root / "overhead-snapshots", keep=3)
        overhead_checkpointer = Checkpointer(
            overhead_manager, chk_miner, journal=chk_journal, every=checkpoint_every
        )
        chk_miner.add_slide_sink(overhead_checkpointer)
        _, slides, chk_s = journalled_watch(chk_journal, transactions, miner=chk_miner)
        chk_journal.close()
        snapshot_bytes = sum(
            entry.stat().st_size
            for entry in (root / "overhead-snapshots").rglob("*")
            if entry.is_file()
        )
        rows.append(
            {
                "mode": "checkpointed",
                "slides": slides,
                "snapshots": overhead_checkpointer.snapshots_sealed,
                "watch_s": round(chk_s, 4),
                "overhead_ratio": round(chk_s / base_s, 3) if base_s else None,
                "snapshot_kb": round(snapshot_bytes / 1024.0, 1),
            }
        )

        # --- crash: watch only a stream prefix, snapshots enabled ------ #
        live_journal = DiskJournal(root / "live")
        live_miner = StreamSubgraphMiner(
            window_size=window_size,
            batch_size=batch_size,
            algorithm="vertical",
            on_slide=live_journal.append,
        )
        manager = CheckpointManager(root / "snapshots", keep=3)
        live_miner.add_slide_sink(
            Checkpointer(manager, live_miner, journal=live_journal, every=checkpoint_every)
        )
        prefix = transactions[: crash_after_slides * batch_size]
        journalled_watch(live_journal, prefix, miner=live_miner)
        live_journal.close()

        # --- restore: load + validate snapshot, roll back, rebuild ---- #
        with Timer() as restore_timer:
            checkpoint = manager.latest()
            if checkpoint is None:
                raise DatasetError(
                    "E12 crashed before the first snapshot sealed; raise "
                    "crash_after_slides or lower checkpoint_every"
                )
            truncate_journal(root / "live", checkpoint.slide_id)
            resumed_journal = DiskJournal(root / "live")
            resumed_miner = StreamSubgraphMiner.hydrate(
                checkpoint, algorithm="vertical", on_slide=resumed_journal.append
            )
        rows.append(
            {
                "mode": "hydrate",
                "checkpoint_slide": checkpoint.slide_id,
                "runtime_s": round(restore_timer.elapsed, 4),
            }
        )

        # --- replay: only the un-checkpointed suffix ------------------- #
        _, slides, replay_s = journalled_watch(
            resumed_journal, transactions, resume_from=checkpoint, miner=resumed_miner
        )
        resumed_journal.close()
        rows.append(
            {"mode": "replay", "slides": slides, "watch_s": round(replay_s, 4)}
        )

        restore_identical = (root / "ref" / "journal.dat").read_bytes() == (
            root / "live" / "journal.dat"
        ).read_bytes()

    outcome: Dict[str, object] = {
        "experiment": "E12-checkpoint-recovery",
        "workload": workload.name,
        "minsup": support,
        "batch_size": batch_size,
        "checkpoint_every": checkpoint_every,
        "crash_after_slides": crash_after_slides,
        "rows": rows,
        "restore_identical": restore_identical,
    }
    if output_path is not None:
        target = Path(output_path)
        target.write_text(
            json.dumps(outcome, indent=2, default=str), encoding="utf-8"
        )
        outcome["output"] = str(target)
    return outcome


# ---------------------------------------------------------------------- #
# E13 — query-algebra planner ablation (DESIGN.md §13)
# ---------------------------------------------------------------------- #
def _percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty value list (deterministic)."""
    ordered = sorted(values)
    position = int(round(fraction * (len(ordered) - 1)))
    return ordered[min(position, len(ordered) - 1)]


def experiment_query_algebra(
    scale: str = "tiny",
    minsup: Optional[int] = None,
    seed: int = 42,
    repeats: int = 3,
    queries_per_family: int = 8,
    output_path: Optional[Union[str, Path]] = "BENCH_e13.json",
) -> Dict[str, object]:
    """Planner ablation for the pattern-history query algebra (DESIGN.md §13).

    The E10 workload is watched into a journal, then a deterministic
    workload of algebra queries — six families covering containment
    conjunctions, support filters, slide ranges, unions, provenance joins,
    top-k and history curves — is evaluated three ways:

    * **planner** — the cost-based plan (smallest-posting-first driver);
    * **naive** — left-to-right driver choice (``optimize=False``), the
      ablation baseline the planner must not lose to;
    * **brute** — :func:`~repro.history.algebra.brute_force_query` over
      the raw records, the correctness oracle.

    Regression keys: ``planner_matches_bruteforce`` (planner *and* naive
    agree with the oracle on every query), ``planner_not_slower_than_naive``
    (best-of-``repeats`` total wall-clock, 10% slack), and the
    deterministic Q-Error percentiles ``qerror_p50``/``qerror_p95`` taken
    from the planner's per-query Explain output.  The ``super-adversarial``
    family orders conjuncts largest-posting-first on purpose: naive
    evaluation drives from the biggest posting list, the planner must
    reorder.
    """
    from repro.history import algebra
    from repro.history.journal import MemoryJournal, SlideRecord
    from repro.serve.index import JournalIndex

    workload = default_edge_workload(scale, seed=seed)
    support = minsup if minsup is not None else _default_minsup(workload)

    journal = MemoryJournal()
    miner = StreamSubgraphMiner(
        window_size=workload.window_size,
        batch_size=workload.batch_size,
        algorithm="vertical",
        on_slide=journal.append,
    )
    miner.watch(
        TransactionStream(workload.transactions, batch_size=workload.batch_size),
        support,
        connected_only=False,
    )
    records: Tuple[SlideRecord, ...] = journal.records()
    index = JournalIndex(records).current
    slide_ids = index.slide_ids()
    total_rows = sum(index.row_count(slide) for slide in slide_ids)

    # Items sorted rarest-first by posting length: the planner's raw material.
    universe = sorted(index.items(), key=lambda item: (index.posting_total(item), item))
    if not universe:
        raise DatasetError(
            f"workload {workload.name!r} journalled no patterns at minsup={support}"
        )
    rare = universe
    common = list(reversed(universe))

    def pick(pool: Sequence[str], position: int) -> str:
        return pool[position % len(pool)]

    def slide_range(position: int) -> Tuple[int, int]:
        lo = slide_ids[position % len(slide_ids)]
        hi = slide_ids[min(len(slide_ids) - 1, (position % len(slide_ids)) + 2)]
        return (lo, hi) if lo <= hi else (hi, lo)

    count = queries_per_family
    families: Dict[str, List[algebra.Query]] = {
        # Adversarial conjunct order: the common (largest-posting) item is
        # written first, so naive drives from it; the planner must reorder
        # to the rare item's posting list.
        "super-adversarial": [
            algebra.select(
                algebra.and_(
                    algebra.contains(pick(common, i)),
                    algebra.contains(pick(rare, i)),
                )
            )
            for i in range(count)
        ],
        "support-filter": [
            algebra.select(
                algebra.and_(
                    algebra.support_gte(support + (i % 3)),
                    algebra.contains(pick(common, i)),
                )
            )
            for i in range(count)
        ],
        "sub-range": [
            algebra.select(
                algebra.and_(
                    algebra.contained_in(
                        *(pick(common, i + offset) for offset in range(4))
                    ),
                    algebra.slides(*slide_range(i)),
                )
            )
            for i in range(count)
        ],
        "or-union": [
            algebra.select(
                algebra.or_(
                    algebra.contains(pick(rare, i)),
                    algebra.contains(pick(rare, i + 1)),
                )
            )
            for i in range(count)
        ],
        "provenance": [
            algebra.select(
                algebra.and_(
                    algebra.contains(pick(common, i)),
                    algebra.became_frequent_within(2, of=(pick(common, i + 1),)),
                )
            )
            for i in range(count)
        ],
        "topk": [
            algebra.top_k(5, where=algebra.contains(pick(common, i)))
            for i in range(count)
        ],
        "history": [
            algebra.history(pick(common, i)) for i in range(count)
        ],
    }

    rows: List[Dict[str, object]] = []
    q_errors: List[float] = []
    matches_bruteforce = True
    planner_total = 0.0
    naive_total = 0.0

    for family, queries in families.items():
        planner_scanned = 0
        naive_scanned = 0
        matches_total = 0
        for query in queries:
            planner_eval = algebra.evaluate(query, index, optimize=True)
            naive_eval = algebra.evaluate(query, index, optimize=False)
            oracle = algebra.brute_force_query(query, records)
            if isinstance(query, algebra.History):
                planner_result: object = planner_eval.curve
                naive_result: object = naive_eval.curve
            else:
                planner_result = planner_eval.matches
                naive_result = naive_eval.matches
            if planner_result != oracle or naive_result != oracle:
                matches_bruteforce = False
            matches_total += len(oracle)  # type: ignore[arg-type]
            planner_scanned += int(planner_eval.explain["scanned"])  # type: ignore[call-overload]
            naive_scanned += int(naive_eval.explain["scanned"])  # type: ignore[call-overload]
            q_errors.append(float(planner_eval.explain["q_error"]))  # type: ignore[arg-type]

        def timed(run) -> float:
            best: Optional[float] = None
            for _ in range(repeats):
                with Timer() as timer:
                    run()
                best = timer.elapsed if best is None else min(best, timer.elapsed)
            return best or 0.0

        planner_s = timed(
            lambda: [algebra.evaluate(q, index, optimize=True) for q in queries]
        )
        naive_s = timed(
            lambda: [algebra.evaluate(q, index, optimize=False) for q in queries]
        )
        brute_s = timed(
            lambda: [algebra.brute_force_query(q, records) for q in queries]
        )
        planner_total += planner_s
        naive_total += naive_s
        shared = {
            "family": family,
            "queries": len(queries),
            "matches": matches_total,
        }
        rows.append(
            {
                **shared,
                "mode": "planner",
                "scanned": planner_scanned,
                "query_total_s": round(planner_s, 4),
            }
        )
        rows.append(
            {
                **shared,
                "mode": "naive",
                "scanned": naive_scanned,
                "query_total_s": round(naive_s, 4),
            }
        )
        rows.append(
            {
                **shared,
                "mode": "brute",
                "scanned": total_rows * len(queries),
                "query_total_s": round(brute_s, 4),
            }
        )

    outcome: Dict[str, object] = {
        "experiment": "E13-query-algebra",
        "workload": workload.name,
        "minsup": support,
        "families": len(families),
        "queries": sum(len(queries) for queries in families.values()),
        "qerror_p50": round(_percentile(q_errors, 0.50), 3),
        "qerror_p95": round(_percentile(q_errors, 0.95), 3),
        "rows": rows,
        "planner_matches_bruteforce": matches_bruteforce,
        "planner_not_slower_than_naive": planner_total <= naive_total * 1.10,
    }
    if output_path is not None:
        target = Path(output_path)
        target.write_text(
            json.dumps(outcome, indent=2, default=str), encoding="utf-8"
        )
        outcome["output"] = str(target)
    return outcome


# ---------------------------------------------------------------------- #
# E14 — chaos resilience: injected faults vs journal parity (DESIGN.md §14)
# ---------------------------------------------------------------------- #
def experiment_chaos_resilience(
    scale: str = "tiny",
    minsup: Optional[int] = None,
    seed: int = 42,
    workers: int = 2,
    ingest_workers: int = 2,
    output_path: Optional[Union[str, Path]] = "BENCH_e14.json",
) -> Dict[str, object]:
    """Chaos ablation of the unified failure policy (DESIGN.md §14).

    Four kinds of run over the same stream:

    * **clean** — the plain sequential journalled watch: the wall-clock
      and ``journal.dat`` reference;
    * **clean-resilient** — the identical watch with the failure policy
      and event log attached but no faults armed; ``overhead_ratio``
      (resilient over plain wall-clock) is the tax of the recovery
      machinery on the fault-free path, and the run must record **zero**
      resilience events (``clean_run_event_free``);
    * **chaos** — one parallel watch per seeded fault plan (worker
      crashes in both pools, journal write errors); every run must recover via the policy and seal a
      ``journal.dat`` **byte-identical** to the reference
      (``chaos_identical``, the §14 acceptance bar and the boolean
      regression key), with its recovery decisions counted per row.

    Like E7-E13, the outcome is written to ``output_path``
    (``BENCH_e14.json`` by default, pass ``None`` to skip) for the CI
    artifact and the nightly regression gate.
    """
    from repro import faults
    from repro.history.journal import DiskJournal
    from repro.resilience import FailurePolicy

    workload = default_edge_workload(scale, seed=seed)
    batch_size = max(5, workload.batch_size // 2)
    window_size = workload.window_size
    support = (
        minsup
        if minsup is not None
        else max(2, int(batch_size * window_size * 0.05))
    )
    transactions = list(workload.transactions)
    # Millisecond backoffs: the ablation measures recovery decisions and
    # parity, not wall-clock spent sleeping between retries.
    policy = FailurePolicy(
        backoff_s=0.001, max_backoff_s=0.002, io_backoff_s=0.001, jitter=0.0
    )
    fault_plans = (
        "mine.shard@1:crash;ingest.encode@2:crash",
        "journal.write@2x2",
    )

    def journalled_watch(path, failure_policy=None, parallel=False):
        journal = DiskJournal(path)
        journal.failure_policy = failure_policy
        miner = StreamSubgraphMiner(
            window_size=window_size,
            batch_size=batch_size,
            algorithm="vertical",
            on_slide=journal.append,
            failure_policy=failure_policy,
        )
        journal.resilience_events = miner.resilience_event_log
        try:
            with Timer() as timer, miner:
                miner.watch(
                    TransactionStream(transactions, batch_size=batch_size),
                    support,
                    connected_only=False,
                    workers=workers if parallel else 0,
                    ingest_workers=ingest_workers if parallel else None,
                )
        finally:
            journal.close()
        return miner.resilience_event_log, timer.elapsed

    rows: List[Dict[str, object]] = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-chaos-") as tmp:
        root = Path(tmp)

        # --- reference: sequential, no policy, no faults --------------- #
        ref_events, base_s = journalled_watch(root / "ref")
        reference = (root / "ref" / "journal.dat").read_bytes()
        rows.append({"mode": "clean", "watch_s": round(base_s, 4)})

        # --- fault-free overhead of the recovery machinery ------------- #
        clean_events, resilient_s = journalled_watch(
            root / "clean-resilient", failure_policy=policy
        )
        clean_identical = (
            root / "clean-resilient" / "journal.dat"
        ).read_bytes() == reference
        rows.append(
            {
                "mode": "clean-resilient",
                "watch_s": round(resilient_s, 4),
                "overhead_ratio": round(resilient_s / base_s, 3)
                if base_s
                else None,
                "events": len(clean_events),
                "identical": clean_identical,
            }
        )

        # --- chaos: one parallel run per seeded fault plan ------------- #
        for index, plan in enumerate(fault_plans):
            path = root / f"chaos-{index}"
            faults.install_plan(plan)
            try:
                events, chaos_s = journalled_watch(
                    path, failure_policy=policy, parallel=True
                )
            finally:
                faults.uninstall_plan()
            rows.append(
                {
                    "mode": "chaos",
                    "faults": plan,
                    "watch_s": round(chaos_s, 4),
                    "identical": (path / "journal.dat").read_bytes()
                    == reference,
                    "events": events.summary() or "clean",
                }
            )

    chaos_identical = clean_identical and all(
        row["identical"] for row in rows if row["mode"] == "chaos"
    )
    outcome: Dict[str, object] = {
        "experiment": "E14-chaos-resilience",
        "workload": workload.name,
        "minsup": support,
        "batch_size": batch_size,
        "workers": workers,
        "ingest_workers": ingest_workers,
        "rows": rows,
        "chaos_identical": chaos_identical,
        "clean_run_event_free": len(ref_events) == 0 and len(clean_events) == 0,
        "resilience_overhead_ok": resilient_s <= base_s * 1.5 + 0.05,
    }
    if output_path is not None:
        target = Path(output_path)
        target.write_text(
            json.dumps(outcome, indent=2, default=str), encoding="utf-8"
        )
        outcome["output"] = str(target)
    return outcome


# ---------------------------------------------------------------------- #
# E15 — serving at scale: wire parity, load, swaps, push
# ---------------------------------------------------------------------- #
def experiment_serving_scale(
    scale: str = "tiny",
    minsup: Optional[int] = None,
    seed: int = 42,
    clients: int = 1000,
    requests_per_client: int = 3,
    queries_per_family: int = 4,
    swap_readers: int = 8,
    queries_per_reader: int = 40,
    output_path: Optional[Union[str, Path]] = "BENCH_e15.json",
) -> Dict[str, object]:
    """Serving-at-scale ablation of the async front end (DESIGN.md §15).

    Four legs over one mined journal, split into a pre-loaded prefix and
    a live suffix committed mid-bench:

    * **parity** — every algebra query is POSTed to the server at every
      commit checkpoint (before, between and after live slides).  The
      response bytes must equal the bytes ``repro query --expr`` prints
      for the same expression over an in-process index of exactly the
      committed records, and the parsed matches/curve must equal
      :func:`~repro.history.algebra.brute_force_query` over them
      (``answers_identical``);
    * **load** — ``clients`` concurrent keep-alive clients drive the
      async server; the row records latency percentiles and throughput
      (volatile, excluded from the regression row identity);
    * **swap-readers** — reader clients query continuously while the
      live suffix commits; every response must byte-equal the canonical
      answer of *some* committed prefix — no torn index state, no
      blocking on the writer (``snapshot_swap_not_blocking``);
    * **standing** — one SSE subscriber's pushed notification stream
      must equal the poll-after-every-slide oracle
      (:func:`~repro.serve.standing.poll_oracle`) exactly
      (``standing_query_matches_poll``).

    Like E7-E14, the outcome is written to ``output_path``
    (``BENCH_e15.json`` by default) for the CI artifact and the nightly
    regression gate.
    """
    import asyncio
    import threading
    import time
    from http.client import HTTPConnection

    from repro.history import algebra
    from repro.history.journal import MemoryJournal, SlideRecord
    from repro.serve.app import ServeApp, evaluate_expression
    from repro.serve.http import BackgroundServer
    from repro.serve.loadgen import run_load, sse_collect
    from repro.serve.index import JournalIndex
    from repro.serve.standing import poll_oracle

    workload = default_edge_workload(scale, seed=seed)
    # Smaller batches than the workload default so the journal holds
    # enough slides for a meaningful live suffix (same trick as E14).
    batch_size = max(5, workload.batch_size // 3)
    window_size = workload.window_size
    support = (
        minsup
        if minsup is not None
        else max(2, int(batch_size * window_size * 0.05))
    )

    mined = MemoryJournal()
    miner = StreamSubgraphMiner(
        window_size=window_size,
        batch_size=batch_size,
        algorithm="vertical",
        on_slide=mined.append,
    )
    miner.watch(
        TransactionStream(list(workload.transactions), batch_size=batch_size),
        support,
        connected_only=False,
    )
    records: Tuple[SlideRecord, ...] = mined.records()
    if len(records) < 4:
        raise DatasetError(
            f"workload {workload.name!r} journalled only {len(records)} "
            f"slides at minsup={support}; E15 needs at least 4"
        )
    split = max(1, (2 * len(records)) // 3)
    prefix, live = records[:split], records[split:]

    # Deterministic query workload straight from the indexed items.
    probe_index = JournalIndex(records)
    universe = sorted(
        probe_index.current.items(),
        key=lambda item: (probe_index.current.posting_total(item), item),
    )
    if not universe:
        raise DatasetError(
            f"workload {workload.name!r} journalled no patterns at minsup={support}"
        )
    rare, common = universe, list(reversed(universe))

    def pick(pool: Sequence[str], position: int) -> str:
        return pool[position % len(pool)]

    queries: List[Dict[str, object]] = []
    for i in range(queries_per_family):
        queries.append(
            algebra.to_json(
                algebra.select(
                    algebra.and_(
                        algebra.contains(pick(common, i)),
                        algebra.contains(pick(rare, i)),
                    )
                )
            )
        )
        queries.append(
            algebra.to_json(
                algebra.select(
                    algebra.or_(
                        algebra.contains(pick(rare, i)),
                        algebra.contains(pick(rare, i + 1)),
                    )
                )
            )
        )
        queries.append(
            algebra.to_json(algebra.top_k(5, where=algebra.contains(pick(common, i))))
        )
        queries.append(algebra.to_json(algebra.history(pick(common, i))))

    def fresh_journal(source: Sequence[SlideRecord]) -> MemoryJournal:
        journal = MemoryJournal()
        for record in source:
            journal.append(record)
        return journal

    def post(connection: HTTPConnection, expression: Dict[str, object]) -> bytes:
        connection.request(
            "POST",
            "/query",
            json.dumps(expression, sort_keys=True),
            {"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        body = response.read()
        if response.status != 200:
            raise DatasetError(
                f"parity query failed with {response.status}: {body.decode('utf-8')}"
            )
        return body

    def rendered(expression: Dict[str, object], index: JournalIndex) -> bytes:
        payload = evaluate_expression(expression, index.current)
        return json.dumps(payload, indent=2, default=str).encode("utf-8")

    def oracle_payload(
        expression: Dict[str, object], committed: Sequence[SlideRecord]
    ) -> object:
        result = algebra.brute_force_query(algebra.parse_query(expression), committed)
        if result and isinstance(result[0], tuple) and len(result[0]) == 2:
            return [{"slide": s, "support": p} for s, p in result]  # type: ignore[misc]
        return [
            {"slide": s, "items": list(items), "support": p}
            for s, items, p in result  # type: ignore[misc]
        ]

    rows: List[Dict[str, object]] = []
    answers_identical = True
    parity_checks = 0

    # --- leg 1: wire bytes vs in-process bytes + brute force ----------- #
    async_app = ServeApp.from_journal(fresh_journal(prefix))
    in_process = JournalIndex(prefix)
    with BackgroundServer(async_app) as background:
        async_conn = HTTPConnection("127.0.0.1", background.port, timeout=30)
        committed: List[SlideRecord] = list(prefix)
        checkpoints = 0
        while True:
            checkpoints += 1
            for expression in queries:
                async_body = post(async_conn, expression)
                parsed = json.loads(async_body)
                key = "history" if "history" in parsed else "matches"
                expected = json.loads(
                    json.dumps(oracle_payload(expression, committed), default=str)
                )
                parity_checks += 1
                if (
                    async_body != rendered(expression, in_process)
                    or parsed[key] != expected
                ):
                    answers_identical = False
            if len(committed) == len(records):
                break
            record = live[len(committed) - len(prefix)]
            async_app.journal.append(record)
            background.refresh()
            in_process.extend([record])
            committed.append(record)
        async_conn.close()
    rows.append(
        {
            "mode": "parity",
            "queries": len(queries),
            "checkpoints": checkpoints,
            "checks": parity_checks,
        }
    )

    # --- leg 2: concurrent-client load ---------------------------------- #
    load_app = ServeApp.from_journal(fresh_journal(records))
    with BackgroundServer(load_app) as background:
        report = run_load(
            "127.0.0.1",
            background.port,
            queries,
            clients=clients,
            requests_per_client=requests_per_client,
        )
    load_row = report.as_dict()
    load_ok = (
        report.errors == 0
        and report.requests_total == clients * requests_per_client
        and set(report.status_counts) == {200}
    )
    rows.append({"mode": "load", "ok": load_ok, **load_row})

    # --- leg 3: snapshot swaps never block or tear readers -------------- #
    probe = queries[0]
    canonical: Dict[bytes, int] = {}
    for end in range(len(prefix), len(records) + 1):
        canonical[rendered(probe, JournalIndex(records[:end]))] = end
    swap_app = ServeApp.from_journal(fresh_journal(prefix))
    swap_latencies: List[float] = []
    torn_responses = 0

    with BackgroundServer(swap_app) as background:
        port = background.port
        commits_done = threading.Event()

        def committer() -> None:
            try:
                for record in live:
                    swap_app.journal.append(record)
                    background.refresh()
                    time.sleep(0.002)
            finally:
                commits_done.set()

        async def reader() -> None:
            nonlocal torn_responses
            from repro.serve.loadgen import _open_with_retry, request_json

            reader_stream, writer_stream = await _open_with_retry("127.0.0.1", port)
            body = json.dumps(probe, sort_keys=True).encode("utf-8")
            try:
                for _ in range(queries_per_reader):
                    started = time.perf_counter()
                    _status, answer = await request_json(
                        reader_stream, writer_stream, "POST", "/query", "127.0.0.1", body
                    )
                    swap_latencies.append((time.perf_counter() - started) * 1000.0)
                    if answer not in canonical:
                        torn_responses += 1
            finally:
                writer_stream.close()

        async def drive() -> None:
            thread = threading.Thread(target=committer, daemon=True)
            thread.start()
            await asyncio.gather(*(reader() for _ in range(swap_readers)))
            await asyncio.get_running_loop().run_in_executor(None, commits_done.wait)
            thread.join(timeout=30)

        asyncio.run(drive())
    snapshot_swap_not_blocking = torn_responses == 0 and len(swap_latencies) == (
        swap_readers * queries_per_reader
    )
    rows.append(
        {
            "mode": "swap-readers",
            "readers": swap_readers,
            "queries_per_reader": queries_per_reader,
            "commits": len(live),
            "torn": torn_responses,
            "latency_p50_ms": round(_percentile(swap_latencies, 0.50), 3),
            "latency_p99_ms": round(_percentile(swap_latencies, 0.99), 3),
        }
    )

    # --- leg 4: standing-query push vs the poll oracle ------------------ #
    standing_events = ("enter", "exit", "update")
    candidates: List[Dict[str, object]] = [
        algebra.to_json(algebra.select(algebra.contains(item)))
        for item in common[: min(6, len(common))]
    ]
    best_expression: Optional[Dict[str, object]] = None
    best_oracle: List[Dict[str, object]] = []
    for candidate in candidates:
        oracle = [
            notification.as_dict()
            for notification in poll_oracle(
                records,
                candidate,
                events=standing_events,
                subscription="sub-0",
                after_slide=prefix[-1].slide_id,
            )
        ]
        if len(oracle) > len(best_oracle):
            best_expression, best_oracle = candidate, oracle
    if best_expression is None or not best_oracle:
        raise DatasetError(
            f"no standing-query candidate produced transitions over the live "
            f"suffix of workload {workload.name!r} at minsup={support}"
        )

    standing_app = ServeApp.from_journal(fresh_journal(prefix))
    with BackgroundServer(standing_app) as background:
        port = background.port

        async def standing_leg() -> List[Tuple[str, Dict[str, object]]]:
            collector = asyncio.create_task(
                sse_collect(
                    "127.0.0.1",
                    port,
                    best_expression,
                    events=",".join(standing_events),
                    expect=len(best_oracle),
                    timeout=30.0,
                )
            )
            loop = asyncio.get_running_loop()

            def wait_subscribed() -> None:
                import time as _time

                for _ in range(1000):
                    if standing_app.subscriptions():
                        return
                    _time.sleep(0.005)
                raise DatasetError("SSE subscription never registered")

            await loop.run_in_executor(None, wait_subscribed)

            def commit_live() -> None:
                for record in live:
                    standing_app.journal.append(record)
                    background.refresh()

            await loop.run_in_executor(None, commit_live)
            return await collector

        frames = asyncio.run(standing_leg())
    pushed = [data for event, data in frames if event == "notification"]
    standing_query_matches_poll = pushed == best_oracle
    rows.append(
        {
            "mode": "standing",
            "events": ",".join(standing_events),
            "notifications": len(best_oracle),
        }
    )

    outcome: Dict[str, object] = {
        "experiment": "E15-serving-scale",
        "workload": workload.name,
        "minsup": support,
        "batch_size": batch_size,
        "slides": len(records),
        "live_slides": len(live),
        "clients": clients,
        "requests_per_client": requests_per_client,
        "parity_queries": len(queries),
        "parity_checks": parity_checks,
        "rows": rows,
        "answers_identical": answers_identical,
        "snapshot_swap_not_blocking": snapshot_swap_not_blocking,
        "standing_query_matches_poll": standing_query_matches_poll,
    }
    if output_path is not None:
        target = Path(output_path)
        target.write_text(
            json.dumps(outcome, indent=2, default=str), encoding="utf-8"
        )
        outcome["output"] = str(target)
    return outcome


#: Mapping of experiment ids to their drivers (used by the CLI).
EXPERIMENTS = {
    "e1": experiment_accuracy,
    "e2": experiment_memory,
    "e3": experiment_runtime_fig2,
    "e4": experiment_minsup_sweep,
    "e5": experiment_scalability,
    "e6": experiment_storage_backends,
    "e7": experiment_strong_scaling,
    "e8": experiment_ingest_scaling,
    "e9": experiment_pipelined_ingest,
    "e10": experiment_journal_history,
    "e11": experiment_worker_scaling,
    "e12": experiment_checkpoint_recovery,
    "e13": experiment_query_algebra,
    "e14": experiment_chaos_resilience,
    "e15": experiment_serving_scale,
}
