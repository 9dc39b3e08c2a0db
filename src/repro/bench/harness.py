"""Workload preparation and single-run measurement.

The harness separates the two phases the paper also separates:

1. *stream ingestion* — feeding every batch of the workload through the
   window structure (DSMatrix / DSTree / DSTable), so the structure ends up
   holding the final window exactly as it would after processing the stream;
2. *mining* — running one algorithm over the final window while measuring
   wall-clock time, peak additional memory, and the algorithm's own
   instrumentation counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.bench.metrics import MemoryMeter, Timer, deep_sizeof
from repro.core.algorithms import get_algorithm
from repro.core.algorithms.baselines import DSTableMiner, DSTreeMiner
from repro.core.postprocess import filter_connected_patterns
from repro.datasets.connect4 import Connect4LikeGenerator
from repro.datasets.random_graphs import GraphStreamGenerator, RandomGraphModel
from repro.datasets.synthetic import IBMSyntheticGenerator
from repro.exceptions import DatasetError
from repro.graph.edge_registry import EdgeRegistry
from repro.storage.dsmatrix import DSMatrix
from repro.stream.batch import Batch
from repro.stream.stream import TransactionStream

Items = FrozenSet[str]
PatternCounts = Dict[Items, int]


@dataclass
class WorkloadSpec:
    """A fully materialised workload: transactions plus streaming parameters."""

    name: str
    transactions: List[Tuple[str, ...]]
    batch_size: int
    window_size: int
    registry: Optional[EdgeRegistry] = None

    def batches(self) -> List[Batch]:
        """The workload as a list of batches."""
        stream = TransactionStream(self.transactions, batch_size=self.batch_size)
        return list(stream.batches())

    def __repr__(self) -> str:
        return (
            f"WorkloadSpec({self.name!r}, transactions={len(self.transactions)}, "
            f"batch_size={self.batch_size}, window={self.window_size})"
        )


@dataclass
class RunResult:
    """Outcome of one measured mining run."""

    algorithm: str
    workload: str
    minsup: int
    runtime_seconds: float
    peak_memory_bytes: int
    structure_bytes: int
    pattern_count: int
    stats: Dict[str, int] = field(default_factory=dict)
    patterns: Optional[PatternCounts] = None

    def as_row(self) -> Dict[str, object]:
        """Flatten into a report row."""
        row: Dict[str, object] = {
            "algorithm": self.algorithm,
            "workload": self.workload,
            "minsup": self.minsup,
            "runtime_s": round(self.runtime_seconds, 4),
            "peak_mem_kb": round(self.peak_memory_bytes / 1024.0, 1),
            "structure_kb": round(self.structure_bytes / 1024.0, 1),
            "patterns": self.pattern_count,
        }
        row.update(self.stats)
        return row


# ---------------------------------------------------------------------- #
# workload builders
# ---------------------------------------------------------------------- #
def build_edge_workload(
    name: str = "random-graph",
    num_vertices: int = 20,
    avg_fanout: float = 4.0,
    topology: str = "uniform",
    avg_edges_per_snapshot: float = 6.0,
    num_snapshots: int = 600,
    batch_size: int = 100,
    window_size: int = 5,
    drift_interval: int = 0,
    seed: int = 42,
) -> WorkloadSpec:
    """A graph-stream workload: snapshots sampled from a random graph model.

    This is the workload whose patterns are edge sets, so the connectivity
    post-processing and the direct algorithm apply.
    """
    model = RandomGraphModel(
        num_vertices=num_vertices,
        avg_fanout=avg_fanout,
        topology=topology,
        centrality_skew=1.0,
        seed=seed,
    )
    registry = model.registry()
    generator = GraphStreamGenerator(
        model,
        avg_edges_per_snapshot=avg_edges_per_snapshot,
        drift_interval=drift_interval,
        seed=seed + 1,
    )
    transactions = [
        registry.encode(snapshot, register_new=False)
        for snapshot in generator.snapshots(num_snapshots)
    ]
    return WorkloadSpec(
        name=name,
        transactions=transactions,
        batch_size=batch_size,
        window_size=window_size,
        registry=registry,
    )


def build_itemset_workload(
    name: str = "ibm-synthetic",
    kind: str = "ibm",
    num_transactions: int = 2000,
    batch_size: int = 400,
    window_size: int = 5,
    seed: int = 42,
    **generator_kwargs,
) -> WorkloadSpec:
    """A plain transaction workload (IBM synthetic or connect4-like dense data)."""
    if kind == "ibm":
        generator = IBMSyntheticGenerator(seed=seed, **generator_kwargs)
        transactions = generator.generate(num_transactions)
    elif kind == "connect4":
        generator = Connect4LikeGenerator(seed=seed, **generator_kwargs)
        transactions = generator.generate(num_transactions)
    else:
        raise DatasetError(f"unknown itemset workload kind {kind!r}")
    return WorkloadSpec(
        name=name,
        transactions=list(transactions),
        batch_size=batch_size,
        window_size=window_size,
        registry=None,
    )


# ---------------------------------------------------------------------- #
# window preparation and measured runs
# ---------------------------------------------------------------------- #
def prepare_window(workload: WorkloadSpec, path=None) -> DSMatrix:
    """Stream every batch of the workload through a DSMatrix.

    The returned matrix holds the last ``window_size`` batches, exactly as it
    would after the stream has flowed through.  With a ``path`` the window
    is persisted in that directory (one segment file per batch), otherwise
    it lives in memory.
    """
    matrix = DSMatrix(window_size=workload.window_size, path=path)
    for batch in workload.batches():
        matrix.append_batch(batch)
    return matrix


def run_dsmatrix_algorithm(
    algorithm_name: str,
    matrix: DSMatrix,
    workload: WorkloadSpec,
    minsup: int,
    connected: bool = False,
    rule: str = "exact",
    keep_patterns: bool = False,
) -> RunResult:
    """Run one DSMatrix algorithm over a prepared window and measure it."""
    algorithm = get_algorithm(algorithm_name)
    with MemoryMeter() as memory, Timer() as timer:
        patterns = algorithm.mine(matrix, minsup, registry=workload.registry)
        if connected and not algorithm.produces_connected_only:
            if workload.registry is None:
                raise DatasetError(
                    f"workload {workload.name!r} has no edge registry; "
                    "connected mining needs an edge workload"
                )
            patterns = filter_connected_patterns(
                patterns, workload.registry, rule=rule
            )
    return RunResult(
        algorithm=algorithm_name,
        workload=workload.name,
        minsup=minsup,
        runtime_seconds=timer.elapsed,
        peak_memory_bytes=memory.peak_bytes,
        structure_bytes=deep_sizeof(matrix),
        pattern_count=len(patterns),
        stats=algorithm.stats.as_dict(),
        patterns=patterns if keep_patterns else None,
    )


def run_baseline_miner(
    baseline_name: str,
    workload: WorkloadSpec,
    minsup: int,
    keep_patterns: bool = False,
) -> RunResult:
    """Run one of the DSTree / DSTable baselines over the workload's stream."""
    if baseline_name == "dstree":
        miner = DSTreeMiner(window_size=workload.window_size)
    elif baseline_name == "dstable":
        miner = DSTableMiner(window_size=workload.window_size)
    else:
        raise DatasetError(f"unknown baseline {baseline_name!r}")
    for batch in workload.batches():
        miner.append_batch(batch)
    with MemoryMeter() as memory, Timer() as timer:
        patterns = miner.mine(minsup)
    return RunResult(
        algorithm=baseline_name,
        workload=workload.name,
        minsup=minsup,
        runtime_seconds=timer.elapsed,
        peak_memory_bytes=memory.peak_bytes,
        structure_bytes=deep_sizeof(miner.structure),
        pattern_count=len(patterns),
        stats=miner.stats.as_dict(),
        patterns=patterns if keep_patterns else None,
    )
