"""High-level entry points of the parallel ingestion pipeline.

These functions tie the :class:`~repro.ingest.planner.IngestPlanner`, the
pipelined executor (shared with the mining subsystem, DESIGN.md §9) and
the :class:`~repro.ingest.coordinator.WindowCoordinator` together
(DESIGN.md §5).  Chunk outcomes are committed **as they complete**, in
stream order, while later chunks are still encoding — at most
``max_inflight`` encoded chunks are ever resident, so peak memory is
bounded by the parallelism instead of the plan length.  ``workers=0``
executes the identical chunk plan in the calling process, so the
committed window — including the bytes of every persisted segment file —
is byte-identical to sequential appends; that is the property the
ingestion parity suite pins down for every ``max_inflight``.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

from repro.exceptions import IngestError
from repro.graph.edge_registry import EdgeRegistry
from repro.graph.graph import GraphSnapshot
from repro.ingest.coordinator import WindowCoordinator
from repro.ingest.planner import IngestChunk, IngestPlanner
from repro.ingest.worker import (
    IngestChunkTask,
    clear_ingest_worker,
    encode_chunk,
    initialize_ingest_worker,
)
from repro.parallel.pipeline import PipelineExecutor
from repro.parallel.pool import effective_workers
from repro.resilience import EventLog, FailurePolicy, ResilienceEvent
from repro.storage.backend import WindowStore
from repro.storage.dsmatrix import DSMatrix
from repro.stream.batch import Batch

MatrixLike = Union[DSMatrix, WindowStore]


@dataclass(frozen=True)
class IngestReport:
    """What one ingest run did to the window."""

    batches: int
    columns: int
    columns_evicted: int
    new_edges_registered: int
    chunks: int
    workers: int
    execution_mode: str
    #: The configured bound on concurrently resident encoded chunks.
    max_inflight: int = 1
    #: High-water mark of submitted-but-uncommitted chunks actually seen.
    peak_inflight: int = 0
    #: Recovery decisions made during this run (DESIGN.md §14); empty on
    #: a fault-free run.
    resilience_events: Tuple[ResilienceEvent, ...] = ()

    @property
    def retries(self) -> int:
        """I/O and task retries recorded during this run."""
        return sum(1 for e in self.resilience_events if e.kind == "retry")

    @property
    def degradations(self) -> int:
        """Ladder steps (pool degradations) during this run."""
        return sum(1 for e in self.resilience_events if e.kind == "degrade")


def _store_of(matrix: MatrixLike) -> WindowStore:
    return matrix.store if isinstance(matrix, DSMatrix) else matrix


def ingest_transactions(
    store: MatrixLike,
    transactions: Iterable[Sequence[str]],
    batch_size: int,
    workers: int = 0,
    drop_last: bool = False,
    max_inflight: Optional[int] = None,
    on_batch_committed: Optional[Callable[[], None]] = None,
    policy: Optional[FailurePolicy] = None,
    events: Optional[EventLog] = None,
) -> IngestReport:
    """Batch, count and commit raw transactions through ingest workers."""
    planner = IngestPlanner(batch_size)
    chunks = planner.plan_units(transactions, drop_last=drop_last)
    return _run(
        store,
        chunks,
        kind="transactions",
        workers=workers,
        max_inflight=max_inflight,
        on_batch_committed=on_batch_committed,
        policy=policy,
        events=events,
    )


def ingest_snapshots(
    store: MatrixLike,
    snapshots: Iterable[GraphSnapshot],
    batch_size: int,
    registry: EdgeRegistry,
    workers: int = 0,
    register_new_edges: bool = True,
    max_inflight: Optional[int] = None,
    on_batch_committed: Optional[Callable[[], None]] = None,
    policy: Optional[FailurePolicy] = None,
    events: Optional[EventLog] = None,
) -> IngestReport:
    """Encode, count and commit graph snapshots through ingest workers.

    Workers canonicalise against a snapshot of ``registry``; edges unseen
    at ingest start are merged back by the coordinator in stream order,
    reproducing exactly the symbols sequential encoding assigns.
    """
    planner = IngestPlanner(batch_size)
    chunks = planner.plan_units(snapshots)
    return _run(
        store,
        chunks,
        kind="snapshots",
        workers=workers,
        registry=registry,
        register_new_edges=register_new_edges,
        max_inflight=max_inflight,
        on_batch_committed=on_batch_committed,
        policy=policy,
        events=events,
    )


def ingest_batches(
    store: MatrixLike,
    batches: Iterable[Batch],
    workers: int = 0,
    max_inflight: Optional[int] = None,
    on_batch_committed: Optional[Callable[[], None]] = None,
    policy: Optional[FailurePolicy] = None,
    events: Optional[EventLog] = None,
) -> IngestReport:
    """Count and commit ready-made batches through ingest workers.

    The caller's batch boundaries are preserved exactly; workers do the
    per-batch bit-pattern materialisation and serialisation.
    """
    planner = IngestPlanner(batch_size=1)
    chunks = planner.plan_batches(batches)
    return _run(
        store,
        chunks,
        kind="transactions",
        workers=workers,
        max_inflight=max_inflight,
        on_batch_committed=on_batch_committed,
        policy=policy,
        events=events,
    )


def _run(
    store: MatrixLike,
    chunks: List[IngestChunk],
    kind: str,
    workers: int,
    registry: Optional[EdgeRegistry] = None,
    register_new_edges: bool = True,
    max_inflight: Optional[int] = None,
    on_batch_committed: Optional[Callable[[], None]] = None,
    policy: Optional[FailurePolicy] = None,
    events: Optional[EventLog] = None,
) -> IngestReport:
    """Pipeline chunks through workers, committing outcomes in stream order.

    The single-writer coordinator is the pipeline's consumer callback: a
    chunk's segments are committed the moment every earlier chunk has
    committed, while later chunks are still encoding on the workers.
    ``on_batch_committed`` fires inside that commit after each batch — the
    pattern-history subsystem's per-slide hook (it runs in the caller's
    process and may be arbitrarily heavy; workers keep encoding later
    chunks underneath it).

    Single-chunk plans (and ``workers=0``) run in-process — the pool-skip
    heuristic of DESIGN.md §11; the committed window is byte-identical
    either way.
    """
    if workers < 0:
        raise IngestError(f"ingest workers must be non-negative, got {workers}")
    if max_inflight is not None and max_inflight < 1:
        # Same contract as the executor's own check, surfaced as the
        # ingestion API's exception type like the workers validation above.
        raise IngestError(f"max_inflight must be at least 1, got {max_inflight}")
    effective = effective_workers(workers, len(chunks))
    window = _store_of(store)
    base_segment_id = window.next_segment_id
    context = uuid.uuid4().hex
    tasks = [
        IngestChunkTask(
            chunk_id=chunk.chunk_id,
            kind=kind,
            base_segment_id=base_segment_id + chunk.first_batch_index,
            batches=chunk.batches,
            context=context,
            register_new_edges=register_new_edges,
        )
        for chunk in chunks
    ]
    if events is None:
        events = EventLog()
    events_start = len(events)
    coordinator = WindowCoordinator(
        window,
        registry=registry,
        register_new_edges=register_new_edges,
        on_batch_committed=on_batch_committed,
        policy=policy,
        events=events,
    )
    executor = PipelineExecutor(
        effective,
        max_inflight=max_inflight,
        policy=policy,
        events=events,
    )
    try:
        # The registry snapshot ships once per worker via the pool
        # initializer, not once per chunk task; workers never mutate it.
        stats = executor.run(
            encode_chunk,
            tasks,
            coordinator.commit,
            initializer=initialize_ingest_worker,
            initargs=(context, registry, register_new_edges),
        )
    finally:
        # In-process runs installed the snapshot in *this* process; drop it.
        clear_ingest_worker(context)
    return IngestReport(
        batches=coordinator.batches_committed,
        columns=coordinator.columns_committed,
        columns_evicted=coordinator.columns_evicted,
        new_edges_registered=coordinator.edges_registered,
        chunks=len(tasks),
        workers=workers,
        execution_mode=stats.execution_mode,
        max_inflight=executor.max_inflight,
        peak_inflight=stats.peak_inflight,
        resilience_events=events.since(events_start),
    )
