"""The entry point of the parallel ingestion pipeline.

:func:`ingest_batches` ties the stream's batches, the pipelined executor
(shared with the mining subsystem, DESIGN.md §9) and the
:class:`~repro.ingest.coordinator.WindowCoordinator` together
(DESIGN.md §5).  Batches are pulled from the stream lazily, one per
in-flight credit, and their outcomes are committed **as they complete**,
in stream order, while later batches are still encoding — at most
``max_inflight`` batches are ever resident, raw or encoded, so peak memory
is bounded by the parallelism instead of the stream length.
``workers=0`` encodes the same batches in the calling process, so the
committed window — including the bytes of every persisted segment file —
is byte-identical to sequential appends; that is the property the
ingestion parity suite pins down for every ``max_inflight``.
:class:`IngestPipeline` is the same pipeline with the commits left to
the caller: a watch with mining workers stages each encoded batch into
its slide's mining task before committing it (DESIGN.md §9.3).
"""

from __future__ import annotations

import uuid
from contextlib import closing
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple, Union

from repro.exceptions import IngestError
from repro.graph.edge_registry import EdgeRegistry
from repro.ingest.coordinator import WindowCoordinator
from repro.ingest.worker import (
    ChunkOutcome,
    IngestChunkTask,
    RawUnit,
    clear_ingest_worker,
    encode_chunk,
    initialize_ingest_worker,
)
from repro.parallel.pipeline import PipelineExecutor
from repro.resilience import EventLog, FailurePolicy, ResilienceEvent
from repro.storage.backend import WindowStore
from repro.storage.dsmatrix import DSMatrix

MatrixLike = Union[DSMatrix, WindowStore]


@dataclass(frozen=True)
class IngestReport:
    """What one ingest run did to the window."""

    batches: int
    columns: int
    columns_evicted: int
    new_edges_registered: int
    workers: int
    execution_mode: str
    #: The configured bound on concurrently resident batches.
    max_inflight: int = 1
    #: High-water mark of submitted-but-uncommitted batches actually seen.
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


class IngestPipeline:
    """One stream's raw batches on their way through the ingest workers.

    Construction peeks at the first two batches (a one-batch stream, like
    ``workers=0``, runs in-process — the pool-skip heuristic of DESIGN.md
    §11) and leaves the rest of the stream unread.  :meth:`outcomes`
    yields the encoded batches in stream order, pulling one raw batch per
    in-flight credit; the caller commits them (a
    :class:`~repro.ingest.coordinator.WindowCoordinator`) and
    :meth:`report` summarises the run.  Parameters are those of
    :func:`ingest_batches`.
    """

    def __init__(
        self,
        store: MatrixLike,
        batches: Iterable[Sequence[RawUnit]],
        kind: str = "transactions",
        workers: int = 0,
        registry: Optional[EdgeRegistry] = None,
        register_new_edges: bool = True,
        max_inflight: Optional[int] = None,
        policy: Optional[FailurePolicy] = None,
        events: Optional[EventLog] = None,
    ) -> None:
        if workers < 0:
            raise IngestError(f"ingest workers must be non-negative, got {workers}")
        if max_inflight is not None and max_inflight < 1:
            # Same contract as the executor's own check, surfaced as the
            # ingestion API's exception type like the workers validation above.
            raise IngestError(f"max_inflight must be at least 1, got {max_inflight}")
        self.store = _store_of(store)
        # The pool-skip heuristic only needs to know whether a second batch
        # exists; peeking at two keeps the rest of the stream unread.
        pending = iter(batches)
        head = list(islice(pending, 2))
        effective = workers if len(head) > 1 else 0

        def pulled() -> Iterator[Sequence[RawUnit]]:
            while head:  # hand the peeked batches over without keeping them
                yield head.pop(0)
            yield from pending

        first_segment_id = self.store.next_segment_id
        self._context = uuid.uuid4().hex
        self._tasks = (
            IngestChunkTask(
                kind=kind,
                segment_id=first_segment_id + index,
                units=tuple(units),
                context=self._context,
                register_new_edges=register_new_edges,
            )
            for index, units in enumerate(pulled())
        )
        self._workers = workers
        self._initargs = (self._context, registry, register_new_edges)
        self.events = events if events is not None else EventLog()
        self._events_start = len(self.events)
        self._executor = PipelineExecutor(
            effective,
            max_inflight=max_inflight,
            policy=policy,
            events=self.events,
        )

    def outcomes(
        self, downstream: Optional[Callable[[], int]] = None
    ) -> Iterator[ChunkOutcome]:
        """The encoded batches in stream order (see :meth:`PipelineExecutor.iterate`).

        ``downstream`` counts batches the caller has taken but not yet
        finished with; they share the ``max_inflight`` credits.
        """
        try:
            # The registry snapshot ships once per worker via the pool
            # initializer, not once per task; workers never mutate it.
            yield from self._executor.iterate(
                encode_chunk,
                self._tasks,
                initializer=initialize_ingest_worker,
                initargs=self._initargs,
                downstream=downstream,
            )
        finally:
            # In-process runs installed the snapshot in *this* process; drop it.
            clear_ingest_worker(self._context)

    def report(self, coordinator: WindowCoordinator) -> IngestReport:
        """What the run did, once ``coordinator`` has committed its batches."""
        stats = self._executor.last_stats
        return IngestReport(
            batches=coordinator.batches_committed,
            columns=coordinator.columns_committed,
            columns_evicted=coordinator.columns_evicted,
            new_edges_registered=coordinator.edges_registered,
            workers=self._workers,
            execution_mode=stats.execution_mode,
            max_inflight=self._executor.max_inflight,
            peak_inflight=stats.peak_inflight,
            resilience_events=self.events.since(self._events_start),
        )


def ingest_batches(
    store: MatrixLike,
    batches: Iterable[Sequence[RawUnit]],
    kind: str = "transactions",
    workers: int = 0,
    registry: Optional[EdgeRegistry] = None,
    register_new_edges: bool = True,
    max_inflight: Optional[int] = None,
    on_batch_committed: Optional[Callable[[], None]] = None,
    policy: Optional[FailurePolicy] = None,
    events: Optional[EventLog] = None,
) -> IngestReport:
    """Encode, count and commit batches of raw units through ingest workers.

    ``batches`` yields the stream's batches in order — raw transactions
    (``kind="transactions"``) or graph snapshots (``kind="snapshots"``),
    grouped by :func:`repro.stream.stream.group_units` — and is pulled one
    batch per in-flight credit.  Snapshot workers canonicalise against a
    snapshot of ``registry``; edges unseen at ingest start are merged back
    by the coordinator in stream order, reproducing exactly the symbols
    sequential encoding assigns.

    The single-writer coordinator commits each batch's segment the moment
    every earlier batch has committed, while later batches are still
    encoding on the workers.  ``on_batch_committed`` fires inside that
    commit after each batch — the pattern-history subsystem's per-slide
    hook (it runs in the caller's process and may be arbitrarily heavy;
    workers keep encoding later batches underneath it).

    A one-batch stream (and ``workers=0``) runs in-process — the pool-skip
    heuristic of DESIGN.md §11; the committed window is byte-identical
    either way.
    """
    pipeline = IngestPipeline(
        store,
        batches,
        kind=kind,
        workers=workers,
        registry=registry,
        register_new_edges=register_new_edges,
        max_inflight=max_inflight,
        policy=policy,
        events=events,
    )
    coordinator = WindowCoordinator(
        pipeline.store,
        registry=registry,
        register_new_edges=register_new_edges,
        on_batch_committed=on_batch_committed,
        policy=policy,
        events=pipeline.events,
    )
    with closing(pipeline.outcomes()) as outcomes:
        for outcome in outcomes:
            coordinator.commit(outcome)
    return pipeline.report(coordinator)
