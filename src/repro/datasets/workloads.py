"""Canonical, seeded, scalable benchmark workloads (DESIGN.md §11).

The scaling benchmarks need streams large enough that parallel
execution has something to win — millions of transactions, thousands of
window slides — yet exactly reproducible across machines and runs.  This
module names such streams: a :class:`WorkloadSpec` fixes every generator
parameter and the seed, so ``random-graph[large]`` means the same
million-snapshot stream everywhere, and its first few thousand units can
be validated against the sequential reference before a long run trusts
the rest.

Two families, three sizes each:

* ``random-graph[...]`` — graph-snapshot streams from a scale-free
  :class:`~repro.datasets.random_graphs.RandomGraphModel` with skewed
  edge centrality and slow concept drift;
* ``zipf-transactions[...]`` — IBM Quest-style transaction streams with
  power-law (``pattern_weighting="zipf"``) item skew.

Sizes: ``smoke`` finishes in seconds (CI), ``medium`` in tens of
seconds, ``large`` streams a million units.  Streams are generated
lazily — a million-unit workload never needs a million units resident.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.datasets.random_graphs import GraphStreamGenerator, RandomGraphModel
from repro.datasets.synthetic import IBMSyntheticGenerator
from repro.exceptions import DatasetError
from repro.graph.edge_registry import EdgeRegistry
from repro.graph.graph import GraphSnapshot
from repro.stream.stream import GraphStream, TransactionStream

#: Workload kinds a spec can describe.
WORKLOAD_KINDS = ("graph", "transactions")


@dataclass(frozen=True)
class WorkloadSpec:
    """A fully pinned stream-mining workload.

    Every field that influences the generated stream (topology, skew,
    sizes, seed) is part of the spec, so two processes given the same
    spec produce byte-identical streams — the property
    :func:`validate_workload` checks before a benchmark trusts a spec.
    """

    name: str
    kind: str
    #: Stream length: snapshots for ``"graph"``, transactions otherwise.
    num_units: int
    batch_size: int
    window_size: int
    #: Relative minimum support benchmarks mine the workload with.
    minsup: float
    seed: int = 0
    # --- graph-family parameters -------------------------------------- #
    num_vertices: int = 64
    avg_fanout: float = 4.0
    topology: str = "scale_free"
    centrality_skew: float = 1.2
    avg_edges_per_snapshot: float = 6.0
    drift_interval: int = 0
    # --- transaction-family parameters -------------------------------- #
    num_items: int = 1000
    avg_transaction_length: float = 10.0
    num_patterns: int = 100
    zipf_exponent: float = 1.1

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise DatasetError(
                f"unknown workload kind {self.kind!r}; "
                f"expected one of {WORKLOAD_KINDS}"
            )
        if self.num_units < 1:
            raise DatasetError("num_units must be positive")
        if self.batch_size < 1 or self.window_size < 1:
            raise DatasetError("batch_size and window_size must be positive")
        if not (0.0 < self.minsup <= 1.0):
            raise DatasetError("minsup must lie in (0, 1]")

    @property
    def num_batches(self) -> int:
        """Batches the full stream assembles into (trailing partial kept)."""
        return -(-self.num_units // self.batch_size)


def _graph_spec(name: str, units: int, vertices: int, **overrides) -> WorkloadSpec:
    base = WorkloadSpec(
        name=name,
        kind="graph",
        num_units=units,
        batch_size=max(1, units // 100),
        window_size=10,
        minsup=0.15,
        seed=20_150_323,  # the paper's publication date, fixed forever
        num_vertices=vertices,
    )
    return replace(base, **overrides) if overrides else base


def _txn_spec(name: str, units: int, items: int, **overrides) -> WorkloadSpec:
    base = WorkloadSpec(
        name=name,
        kind="transactions",
        num_units=units,
        batch_size=max(1, units // 100),
        window_size=10,
        minsup=0.2,
        seed=20_150_323,
        num_items=items,
        num_patterns=max(20, items // 10),
    )
    return replace(base, **overrides) if overrides else base


#: The canonical registry: name -> pinned spec.
WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        _graph_spec("random-graph[smoke]", 200, 24, drift_interval=50),
        _graph_spec("random-graph[medium]", 20_000, 96, drift_interval=2_000),
        _graph_spec(
            "random-graph[large]",
            1_000_000,
            256,
            avg_fanout=6.0,
            centrality_skew=1.5,
            avg_edges_per_snapshot=8.0,
            drift_interval=50_000,
            batch_size=10_000,
            window_size=20,
        ),
        _txn_spec("zipf-transactions[smoke]", 500, 60),
        _txn_spec("zipf-transactions[medium]", 50_000, 1_000),
        _txn_spec(
            "zipf-transactions[large]",
            1_000_000,
            10_000,
            avg_transaction_length=12.0,
            batch_size=10_000,
            window_size=20,
        ),
    )
}


def workload_names() -> List[str]:
    """The canonical workload names, sorted."""
    return sorted(WORKLOADS)


def get_workload(name: str) -> WorkloadSpec:
    """Look one canonical workload up by name."""
    spec = WORKLOADS.get(name)
    if spec is None:
        raise DatasetError(
            f"unknown workload {name!r}; available: {workload_names()}"
        )
    return spec


# ---------------------------------------------------------------------- #
# stream construction (lazy)
# ---------------------------------------------------------------------- #
def _graph_model(spec: WorkloadSpec) -> RandomGraphModel:
    return RandomGraphModel(
        num_vertices=spec.num_vertices,
        avg_fanout=spec.avg_fanout,
        topology=spec.topology,
        centrality_skew=spec.centrality_skew,
        seed=spec.seed,
    )


def stream_snapshots(
    spec: WorkloadSpec, limit: Optional[int] = None
) -> Iterator[GraphSnapshot]:
    """Lazily yield the workload's snapshots (graph kind only)."""
    if spec.kind != "graph":
        raise DatasetError(f"workload {spec.name!r} is not a graph workload")
    count = spec.num_units if limit is None else min(limit, spec.num_units)
    generator = GraphStreamGenerator(
        _graph_model(spec),
        avg_edges_per_snapshot=spec.avg_edges_per_snapshot,
        drift_interval=spec.drift_interval,
        seed=spec.seed + 1,
    )
    return generator.snapshots(count)


def stream_transactions(
    spec: WorkloadSpec, limit: Optional[int] = None
) -> Iterator[Tuple[str, ...]]:
    """Lazily yield the workload's transactions (transactions kind only)."""
    if spec.kind != "transactions":
        raise DatasetError(
            f"workload {spec.name!r} is not a transaction workload"
        )
    count = spec.num_units if limit is None else min(limit, spec.num_units)
    generator = IBMSyntheticGenerator(
        num_items=spec.num_items,
        avg_transaction_length=spec.avg_transaction_length,
        num_patterns=spec.num_patterns,
        pattern_weighting="zipf",
        zipf_exponent=spec.zipf_exponent,
        seed=spec.seed,
    )
    return generator.transactions(count)


def build_stream(
    spec: WorkloadSpec,
    registry: Optional[EdgeRegistry] = None,
    limit: Optional[int] = None,
) -> Union[GraphStream, TransactionStream]:
    """The workload as a stream object a miner can ``consume``/``watch``.

    Graph workloads encode through ``registry`` (pass
    ``miner.registry``); a fresh registry is created when omitted.  The
    underlying unit iterator is lazy, so a million-unit stream costs
    memory proportional to one batch, not to the stream.
    """
    if spec.kind == "graph":
        return GraphStream(
            stream_snapshots(spec, limit=limit),
            registry=registry,
            batch_size=spec.batch_size,
        )
    return TransactionStream(
        stream_transactions(spec, limit=limit), batch_size=spec.batch_size
    )


# ---------------------------------------------------------------------- #
# validation against the sequential reference
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class WorkloadValidation:
    """What :func:`validate_workload` established about a spec."""

    name: str
    #: Units actually validated (a prefix of the stream).
    units: int
    #: SHA-256 over the canonical serialisation of the validated prefix.
    digest: str
    #: Whether two independent generator instances produced that digest.
    deterministic: bool
    #: Whether parallel mining of the prefix matched the sequential
    #: reference exactly (None when mining was skipped).
    parallel_identical: Optional[bool]
    #: Patterns the reference mine found (-1 when mining was skipped).
    patterns: int


def _prefix_digest(spec: WorkloadSpec, units: int) -> str:
    hasher = hashlib.sha256()
    source: Iterable[Sequence[str]]
    if spec.kind == "graph":
        source = (
            [f"{e.u}~{e.v}" for e in snapshot.sorted_edges()]
            for snapshot in stream_snapshots(spec, limit=units)
        )
    else:
        source = stream_transactions(spec, limit=units)
    for unit in source:
        hasher.update("\x1f".join(unit).encode("utf-8"))
        hasher.update(b"\x1e")
    return hasher.hexdigest()


def validate_workload(
    spec: WorkloadSpec,
    units: Optional[int] = None,
    mine: bool = True,
    workers: int = 2,
) -> WorkloadValidation:
    """Check a spec's determinism, and its parallel-vs-sequential parity.

    ``units`` bounds the validated prefix (default: the smaller of the
    full stream and 2 000 units, so validating ``random-graph[large]``
    does not cost a million-unit mine).  With ``mine=True`` the prefix is
    mined twice — sequentially and with ``workers`` worker processes —
    and the pattern sets are compared exactly.
    """
    from repro.core.miner import StreamSubgraphMiner  # avoid an import cycle

    prefix = spec.num_units if units is None else min(units, spec.num_units)
    prefix = min(prefix, 2_000) if units is None else prefix
    digest = _prefix_digest(spec, prefix)
    deterministic = digest == _prefix_digest(spec, prefix)

    parallel_identical: Optional[bool] = None
    patterns = -1
    if mine:
        # Graph workloads mine connected subgraphs through the paper's
        # direct algorithm; transaction workloads have no connectivity
        # notion, so they mine plain frequent itemsets (still through a
        # shard-capable algorithm, or the parallel leg would be a no-op).
        connected = spec.kind == "graph"

        def _mine(mine_workers: int) -> List[Tuple[Tuple[str, ...], int]]:
            with StreamSubgraphMiner(
                window_size=spec.window_size,
                batch_size=spec.batch_size,
                algorithm="vertical_direct" if connected else "vertical",
            ) as miner:
                miner.consume(build_stream(spec, miner.registry, limit=prefix))
                result = miner.mine(
                    spec.minsup, connected_only=connected, workers=mine_workers
                )
            return sorted((p.sorted_items(), p.support) for p in result)

        reference = _mine(0)
        patterns = len(reference)
        parallel_identical = _mine(workers) == reference

    return WorkloadValidation(
        name=spec.name,
        units=prefix,
        digest=digest,
        deterministic=deterministic,
        parallel_identical=parallel_identical,
        patterns=patterns,
    )
