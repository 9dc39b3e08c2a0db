"""What runs inside an ingestion worker process.

A worker receives an :class:`IngestChunkTask` — one whole batch of raw
transactions or graph snapshots plus the final segment id that batch will
receive — and does the expensive part of an append without touching the
window: parse, canonicalise, count and materialise the batch into a
:class:`ChunkOutcome` (per-item bit-pattern rows, and the serialised
segment payload whenever the rows are final).

Canonicalisation uses the **registry-merge protocol** (DESIGN.md §5): the
worker reads a snapshot of the shared :class:`EdgeRegistry` (shipped once
per worker process via the pool initializer) and never mutates it.  Edges
unknown to the snapshot are recorded in first-occurrence order and encoded
under *provisional* symbols; the single-writer coordinator later registers
them against the live registry — batches in stream order, edges in
recorded order — which reproduces exactly the symbols sequential encoding
would have assigned, and remaps the provisional rows before committing.

Everything in this module is picklable and importable at module level, so
the tasks work under every multiprocessing start method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union, cast

from repro import faults
from repro.exceptions import EdgeRegistryError, IngestError
from repro.graph.edge import Edge
from repro.graph.edge_registry import EdgeRegistry
from repro.graph.graph import GraphSnapshot
from repro.storage.segments import Segment, rows_from_transactions

#: One unencoded stream element: a raw transaction or a graph snapshot.
RawUnit = Union[Sequence[str], GraphSnapshot]

#: Prefix of provisional item symbols; ``"\x00"`` cannot start a real
#: symbol (registry symbols are ``a..z`` / ``e<N>`` or caller-supplied
#: printable labels), so provisional keys never collide with final ones.
PROVISIONAL_PREFIX = "\x00new#"

#: Unit kinds a task can carry.
CHUNK_KINDS = ("transactions", "snapshots")

# Per-worker-process state, installed by initialize_ingest_worker (which
# the pool runs once per worker) and read by encode_chunk for every task.
# Keyed by the run's context token so concurrent in-process runs cannot
# clobber each other's registry snapshot.
_WORKER_REGISTRIES: Dict[str, Tuple[Optional[EdgeRegistry], bool]] = {}


def provisional_symbol(index: int) -> str:
    """The provisional symbol of the ``index``-th new edge of a batch."""
    return f"{PROVISIONAL_PREFIX}{index}"


def is_provisional(item: str) -> bool:
    """Whether ``item`` is a provisional (not-yet-registered) symbol."""
    return item.startswith(PROVISIONAL_PREFIX)


@dataclass(frozen=True)
class IngestChunkTask:
    """One unit of parallel ingestion work: encode one whole batch.

    ``segment_id`` is the id the batch's segment will receive when
    committed, so the worker can serialise the final payload under its
    real id.  ``context`` names the registry snapshot installed by
    :func:`initialize_ingest_worker`; ``registry``/``register_new_edges``
    may be set instead for direct single-task invocation (tests, tools).
    """

    kind: str
    segment_id: int
    units: Tuple[RawUnit, ...]
    context: str = ""
    registry: Optional[EdgeRegistry] = None
    register_new_edges: bool = True


@dataclass(frozen=True)
class ChunkOutcome:
    """What an ingestion worker sends back: one materialised batch.

    ``rows`` may carry provisional symbols the coordinator remaps;
    ``payload`` is additionally set when every row key is final, so the
    coordinator can persist the serialised bytes verbatim.  ``new_edges``
    lists the edges unknown to the worker's registry snapshot in
    first-occurrence order — the order the coordinator must register them
    in to reproduce sequential symbol assignment.
    """

    segment_id: int
    num_columns: int
    rows: Dict[str, int]
    payload: Optional[bytes] = None
    new_edges: Tuple[Edge, ...] = ()


def initialize_ingest_worker(
    context: str,
    registry: Optional[EdgeRegistry],
    register_new_edges: bool = True,
) -> None:
    """Pool initializer: install one run's registry snapshot in this process.

    The snapshot ships once per worker process (it is pickled with the
    initializer arguments), not once per task.  In-process runs
    (``workers=0``) receive the live registry object — safe, because
    workers only ever read it.
    """
    _WORKER_REGISTRIES[context] = (registry, register_new_edges)


def clear_ingest_worker(context: str) -> None:
    """Release one run's registry snapshot (used after in-process runs)."""
    _WORKER_REGISTRIES.pop(context, None)


def encode_chunk(task: IngestChunkTask) -> ChunkOutcome:
    """Worker entry point: materialise the task's batch.

    Raises :class:`~repro.exceptions.EdgeRegistryError` when an unseen
    edge arrives while ``register_new_edges`` is off, matching the
    sequential :meth:`EdgeRegistry.encode` behaviour.
    """
    faults.trip("ingest.encode")
    if task.kind not in CHUNK_KINDS:
        raise IngestError(
            f"unknown chunk kind {task.kind!r}; expected one of {CHUNK_KINDS}"
        )
    if task.registry is not None:
        registry: Optional[EdgeRegistry] = task.registry
        register_new = task.register_new_edges
    else:
        registry, register_new = _WORKER_REGISTRIES.get(
            task.context, (None, task.register_new_edges)
        )
    new_edges: List[Edge] = []
    new_index: Dict[Edge, int] = {}

    def key_of(edge: Edge) -> str:
        assert registry is not None  # checked before the snapshot loop
        if edge in registry:
            return registry.item_for(edge)
        if not register_new:
            raise EdgeRegistryError(f"edge {edge!r} is not registered")
        index = new_index.get(edge)
        if index is None:
            index = len(new_edges)
            new_index[edge] = index
            new_edges.append(edge)
        return provisional_symbol(index)

    if task.kind == "snapshots":
        if registry is None:
            raise IngestError(
                "snapshot batches need a registry snapshot: run "
                "initialize_ingest_worker with this task's context "
                "first, or set registry= on the task"
            )
        transactions: Sequence[Sequence[str]] = [
            [key_of(edge) for edge in cast(GraphSnapshot, unit).sorted_edges()]
            for unit in task.units
        ]
    else:
        transactions = cast(Sequence[Sequence[str]], task.units)
    num_columns, rows = rows_from_transactions(transactions)
    payload: Optional[bytes] = None
    if not any(is_provisional(item) for item in rows):
        payload = Segment(task.segment_id, num_columns, rows).to_bytes()
    return ChunkOutcome(
        segment_id=task.segment_id,
        num_columns=num_columns,
        rows=rows,
        payload=payload,
        new_edges=tuple(new_edges),
    )
