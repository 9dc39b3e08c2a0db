"""High-level facade: stream in graph snapshots, mine frequent connected subgraphs.

:class:`StreamSubgraphMiner` wires together the pieces a user needs:

* an :class:`~repro.graph.edge_registry.EdgeRegistry` that turns graph
  snapshots into canonical edge transactions,
* a :class:`~repro.storage.dsmatrix.DSMatrix` that keeps the sliding window on
  disk (or in memory for small experiments),
* one of the five mining algorithms, and
* the connectivity post-processing of §3.5 for the algorithms that need it.

Typical usage::

    miner = StreamSubgraphMiner(window_size=2, batch_size=3)
    miner.add_snapshots(snapshots)           # or add_batch / consume
    result = miner.mine(minsup=2)            # MiningResult of connected patterns
"""

from __future__ import annotations

import time
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.algorithms import ALGORITHMS, get_algorithm
from repro.core.algorithms.base import MiningAlgorithm, resolve_minsup
from repro.core.patterns import MiningResult
from repro.core.postprocess import filter_connected_patterns
from repro.exceptions import CheckpointError, MiningError, ParallelMiningError, StreamError
from repro.graph.edge_registry import EdgeRegistry
from repro.history.journal import SlideRecord, SlideSealer
from repro.ingest.api import IngestPipeline, IngestReport, ingest_batches
from repro.ingest.coordinator import WindowCoordinator
from repro.ingest.worker import RawUnit
from repro.parallel.api import (
    check_parallel_algorithm,
    mine_slides,
    mine_window_parallel,
    window_after,
)
from repro.parallel.pipeline import default_max_inflight
from repro.parallel.pool import PersistentWorkerPool
from repro.parallel.worker import MiningSlideTask, SlideOutcome
from repro.resilience import EventLog, FailurePolicy, ResilienceEvent
from repro.graph.graph import GraphSnapshot
from repro.storage.backend import MemoryWindowStore, WindowStore
from repro.storage.dsmatrix import DSMatrix
from repro.stream.batch import Batch
from repro.stream.stream import (
    GraphStream,
    TransactionStream,
    group_units,
    skip_stream_prefix,
)

if TYPE_CHECKING:  # pragma: no cover - type-only (checkpoint imports nothing back)
    from repro.checkpoint.snapshot import Checkpoint

#: A per-slide sink: receives the sealed record of every window slide.
SlideSink = Callable[[SlideRecord], None]

#: Slides a watch with mining workers mines ahead of the one being sealed
#: and sunk (DESIGN.md §9).  Deeper queues add a period of latency per
#: slide and no throughput while the main process is the slower stage.
SLIDES_AHEAD = 1


@dataclass(frozen=True)
class WatchReport:
    """What one :meth:`StreamSubgraphMiner.watch` run did."""

    #: Window slides mined (= batches committed during the watch).
    slides: int
    #: Transaction columns in the window when the stream ended.
    columns: int
    #: The minsup the watch was configured with (absolute or relative).
    minsup: float
    #: The last sealed record, or ``None`` for an empty stream.
    last_record: Optional[SlideRecord]


class StreamSubgraphMiner:
    """Facade over the stream → DSMatrix → algorithm → post-processing pipeline.

    Parameters
    ----------
    window_size:
        Number of batches retained in the sliding window (``w``).
    batch_size:
        Number of snapshots per batch when feeding raw snapshots through
        :meth:`add_snapshots`.  Ignored when batches are supplied directly.
    algorithm:
        Algorithm name (one of :data:`repro.core.algorithms.ALGORITHMS`) or an
        already-instantiated :class:`MiningAlgorithm`.  Defaults to the
        paper's direct vertical algorithm (§4).
    registry:
        Optional pre-populated edge registry.  A fresh one is created when
        omitted and new edges are registered as they stream in.
    item_universe:
        Optional fixed set of item symbols for the DSMatrix rows.
    storage_path:
        Optional directory; when given the window is persisted there as
        one segment file per batch plus a manifest (the paper's on-disk
        behaviour, O(batch) I/O per append).  Without it the window lives
        in memory.
    storage:
        Optional pre-built :class:`~repro.storage.backend.WindowStore` to
        hold the window instead (used by :meth:`from_checkpoint`).
    on_slide:
        Optional per-slide sink (e.g. ``journal.append``): during
        :meth:`watch` runs it receives one sealed
        :class:`~repro.history.journal.SlideRecord` per window slide.
        Further sinks can be attached with :meth:`add_slide_sink`.
    failure_policy:
        The :class:`~repro.resilience.FailurePolicy` governing retries,
        backoff, straggler timeouts and pool respawns in every parallel
        path this miner drives (DESIGN.md §14).  ``None`` uses the
        default policy.  Every recovery decision is recorded on
        :attr:`resilience_events`.
    """

    def __init__(
        self,
        window_size: int,
        batch_size: int = 1000,
        algorithm: Union[str, MiningAlgorithm] = "vertical_direct",
        registry: Optional[EdgeRegistry] = None,
        item_universe: Optional[Sequence[str]] = None,
        storage_path: Optional[Union[str, Path]] = None,
        storage: Optional[WindowStore] = None,
        on_slide: Optional[SlideSink] = None,
        failure_policy: Optional[FailurePolicy] = None,
    ) -> None:
        if batch_size <= 0:
            raise StreamError(f"batch_size must be positive, got {batch_size}")
        self._failure_policy = failure_policy
        self._events = EventLog()
        self._mining_pool: Optional[PersistentWorkerPool] = None
        self._registry = registry if registry is not None else EdgeRegistry()
        self._matrix = DSMatrix(
            window_size=window_size,
            items=item_universe,
            path=storage_path,
            storage=storage,
        )
        self._batch_size = batch_size
        self._pending: list = []
        self._batches_consumed = 0
        self._algorithm = self._resolve_algorithm(algorithm)
        self._slide_sinks: List[SlideSink] = []
        self._sealer = SlideSealer()
        if on_slide is not None:
            self._slide_sinks.append(on_slide)
        self._last_ingest_report: Optional[IngestReport] = None
        # A slide a worker already mined, waiting for the watch's mine().
        self._premined: Optional[SlideOutcome] = None

    @staticmethod
    def _resolve_algorithm(algorithm: Union[str, MiningAlgorithm]) -> MiningAlgorithm:
        if isinstance(algorithm, MiningAlgorithm):
            return algorithm
        if isinstance(algorithm, str):
            return get_algorithm(algorithm)
        raise MiningError(
            f"algorithm must be a name or a MiningAlgorithm, got {algorithm!r}"
        )

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def registry(self) -> EdgeRegistry:
        """The edge registry used to encode snapshots."""
        return self._registry

    @property
    def matrix(self) -> DSMatrix:
        """The DSMatrix holding the current window."""
        return self._matrix

    @property
    def algorithm(self) -> MiningAlgorithm:
        """The configured mining algorithm."""
        return self._algorithm

    @algorithm.setter
    def algorithm(self, algorithm: Union[str, MiningAlgorithm]) -> None:
        self._algorithm = self._resolve_algorithm(algorithm)

    @property
    def window_size(self) -> int:
        """The sliding-window size ``w``."""
        return self._matrix.window_size

    @property
    def batch_size(self) -> int:
        """Transactions per batch when feeding raw snapshots/transactions."""
        return self._batch_size

    @property
    def batches_consumed(self) -> int:
        """Number of batches fed so far (including those already evicted)."""
        return self._batches_consumed

    @property
    def transaction_count(self) -> int:
        """Transactions currently in the window.

        This counts only transactions already flushed into the window
        matrix; transactions buffered by :meth:`add_transactions` /
        :meth:`add_snapshots` that have not yet filled a batch are reported
        by :attr:`pending_transaction_count` and join the window at the next
        flush (``mine`` flushes automatically).
        """
        return self._matrix.num_columns

    @property
    def pending_transaction_count(self) -> int:
        """Buffered transactions not yet flushed into a batch."""
        return len(self._pending)

    @property
    def last_ingest_report(self) -> Optional[IngestReport]:
        """The report of the most recent parallel-ingest ``consume``/``watch``.

        ``None`` until a stream has been routed through the ingestion
        pipeline (``ingest_workers`` given); sequential feeding does not
        produce a report.
        """
        return self._last_ingest_report

    @property
    def failure_policy(self) -> Optional[FailurePolicy]:
        """The failure policy applied to this miner's parallel paths."""
        return self._failure_policy

    @property
    def resilience_events(self) -> tuple[ResilienceEvent, ...]:
        """Every recovery decision made on this miner's behalf so far.

        Empty on a fault-free run — which is exactly what the chaos
        parity suite asserts for the clean control runs.
        """
        return self._events.events

    @property
    def resilience_event_log(self) -> EventLog:
        """The live event log (attach ``on_event`` to stream decisions)."""
        return self._events

    @property
    def mining_pool(self) -> Optional[PersistentWorkerPool]:
        """The persistent mining pool, once a parallel mine has spawned it."""
        return self._mining_pool

    @property
    def slide_sinks(self) -> Sequence[SlideSink]:
        """The attached per-slide sinks (notified by :meth:`watch`)."""
        return tuple(self._slide_sinks)

    def add_slide_sink(self, sink: SlideSink) -> None:
        """Attach one more per-slide sink (e.g. a second journal backend)."""
        if not callable(sink):
            raise MiningError(f"a slide sink must be callable, got {sink!r}")
        self._slide_sinks.append(sink)

    # ------------------------------------------------------------------ #
    # feeding the stream
    # ------------------------------------------------------------------ #
    def add_batch(self, batch: Batch) -> None:
        """Append one ready-made batch of transactions to the window.

        Any transactions buffered by :meth:`add_transactions` are flushed
        first, so interleaving the two feeding styles preserves stream
        order.
        """
        self.flush_pending()
        self._matrix.append_batch(batch)
        self._batches_consumed += 1

    def add_transactions(self, transactions: Iterable[Sequence[str]]) -> None:
        """Append raw transactions, buffering them into batches of ``batch_size``."""
        for transaction in transactions:
            self._pending.append(tuple(transaction))
            if len(self._pending) == self._batch_size:
                self.flush_pending()

    def add_snapshots(self, snapshots: Iterable[GraphSnapshot]) -> None:
        """Encode and append graph snapshots, buffering into batches."""
        self.add_transactions(
            self._registry.encode(snapshot) for snapshot in snapshots
        )

    def flush_pending(self) -> None:
        """Force the buffered snapshots/transactions into a (possibly small) batch."""
        if not self._pending:
            return
        pending = self._pending
        self._pending = []
        self.add_batch(Batch(pending, batch_id=self._batches_consumed))

    def consume(
        self,
        stream: Union[GraphStream, TransactionStream, Iterable[Batch]],
        ingest_workers: Optional[int] = None,
        max_inflight: Optional[int] = None,
    ) -> None:
        """Consume an entire stream of batches (or a Graph/TransactionStream).

        Parameters
        ----------
        stream:
            A :class:`GraphStream` (must share this miner's registry), a
            :class:`TransactionStream`, or any iterable of ready-made
            :class:`Batch` objects.
        ingest_workers:
            ``None`` (the default) consumes sequentially in this process —
            the historical behaviour.  An integer routes the stream
            through the parallel ingestion pipeline (DESIGN.md §5):
            ``0`` encodes the same batches in-process (byte-identical to
            the sequential path), ``n >= 1`` fans the per-batch
            parsing/encoding/counting out to ``n`` worker processes while
            a single-writer coordinator commits segments in stream order,
            as they complete (DESIGN.md §9).
        max_inflight:
            Bound on batches pulled from the stream but not yet committed
            in the parallel path (``2 * ingest_workers`` by default,
            minimum 1).  Any value yields the byte-identical window; it
            only trades peak memory against encode/commit overlap.
        """
        self._check_stream_registry(stream)
        self._feed(stream, ingest_workers, max_inflight)

    def _check_stream_registry(
        self, stream: Union[GraphStream, TransactionStream, Iterable[Batch]]
    ) -> None:
        """A GraphStream must encode against this miner's own registry."""
        if isinstance(stream, GraphStream) and stream.registry is not self._registry:
            raise StreamError(
                "the GraphStream must share the miner's EdgeRegistry; "
                "pass registry=miner.registry when building the stream"
            )

    def _feed(
        self,
        stream: Union[GraphStream, TransactionStream, Iterable[Batch]],
        ingest_workers: Optional[int],
        max_inflight: Optional[int],
        on_batch_committed: Optional[Callable[[], None]] = None,
    ) -> None:
        """Commit every batch of one stream, calling the hook after each.

        Sequentially in this process when ``ingest_workers`` is ``None``,
        otherwise through the parallel ingestion pipeline.
        """
        if ingest_workers is not None:
            self._consume_with_ingest_workers(
                stream, ingest_workers, max_inflight, on_batch_committed
            )
            return
        for batch in self._sequential_batches(stream):
            self.add_batch(batch)
            if on_batch_committed is not None:
                on_batch_committed()

    def _consume_with_ingest_workers(
        self,
        stream: Union[GraphStream, TransactionStream, Iterable[Batch]],
        ingest_workers: int,
        max_inflight: Optional[int],
        on_batch_committed: Optional[Callable[[], None]],
    ) -> None:
        """Route one stream's raw batches through the ingestion pipeline."""
        self.flush_pending()
        kind, register_new_edges, batches = self._raw_batches(stream)
        report = ingest_batches(
            self._matrix.store,
            batches,
            kind=kind,
            workers=ingest_workers,
            registry=self._registry if kind == "snapshots" else None,
            register_new_edges=register_new_edges,
            max_inflight=max_inflight,
            on_batch_committed=on_batch_committed,
            policy=self._failure_policy,
            events=self._events,
        )
        self._batches_consumed += report.batches
        self._last_ingest_report = report

    def _raw_batches(
        self, stream: Union[GraphStream, TransactionStream, Iterable[Batch]]
    ) -> Tuple[str, bool, Iterable[Sequence[RawUnit]]]:
        """One stream as ingestion input: (kind, register_new_edges, raw batches).

        A Graph/TransactionStream hands over its units grouped by the
        stream's own batching rule; a plain iterable, the transactions of
        each type-checked :class:`Batch`.
        """
        if isinstance(stream, GraphStream):
            batches = group_units(stream.raw_snapshots, stream.batch_size)
            return "snapshots", stream.register_new_edges, batches
        if isinstance(stream, TransactionStream):
            batches = group_units(stream.raw_transactions, stream.batch_size, stream.drop_last)
            return "transactions", True, batches
        plain = (batch.transactions for batch in self._sequential_batches(stream))
        return "transactions", True, plain

    # ------------------------------------------------------------------ #
    # hydration: resume from a sealed checkpoint (DESIGN.md §12)
    # ------------------------------------------------------------------ #
    @classmethod
    def hydrate(
        cls,
        checkpoint: "Checkpoint",
        algorithm: Union[str, MiningAlgorithm] = "vertical_direct",
        batch_size: Optional[int] = None,
        on_slide: Optional[SlideSink] = None,
        failure_policy: Optional[FailurePolicy] = None,
    ) -> "StreamSubgraphMiner":
        """Rebuild a miner from a validated checkpoint.

        The window is reconstituted from the checkpointed segments (same
        segment ids, so the store's auto-numbering continues exactly where
        the crashed run stopped), the registry from the checkpointed
        registration order, and ``batches_consumed`` from the checkpoint —
        everything :meth:`watch` with ``resume_from=checkpoint`` needs to
        replay only the un-checkpointed stream suffix.
        """
        store = MemoryWindowStore.from_segments(
            checkpoint.window_size,
            checkpoint.segments,
            known_items=checkpoint.known_items,
        )
        if store.num_columns != checkpoint.num_columns:
            raise CheckpointError(
                f"checkpoint {checkpoint.path} rebuilt into {store.num_columns} "
                f"window columns, but its manifest recorded "
                f"{checkpoint.num_columns}"
            )
        miner = cls(
            window_size=checkpoint.window_size,
            batch_size=batch_size if batch_size is not None else checkpoint.batch_size,
            algorithm=algorithm,
            registry=checkpoint.registry,
            storage=store,
            on_slide=on_slide,
            failure_policy=failure_policy,
        )
        miner._batches_consumed = checkpoint.batches_consumed
        return miner

    # ------------------------------------------------------------------ #
    # watching: mine-at-every-slide with per-slide sinks (DESIGN.md §10)
    # ------------------------------------------------------------------ #
    def watch(
        self,
        stream: Union[GraphStream, TransactionStream, Iterable[Batch]],
        minsup: float,
        connected_only: bool = True,
        rule: str = "exact",
        algorithm: Optional[Union[str, MiningAlgorithm]] = None,
        workers: int = 0,
        ingest_workers: Optional[int] = None,
        max_inflight: Optional[int] = None,
        resume_from: Optional["Checkpoint"] = None,
    ) -> WatchReport:
        """Consume a stream, mining the window after **every** batch commit.

        This is the continuous-mining entry point behind ``repro watch``:
        each committed batch slides the window, the fresh window is mined
        with ``minsup``, and the per-slide answer is sealed into a
        :class:`~repro.history.journal.SlideRecord` handed to every
        attached slide sink (typically a pattern journal's ``append``).

        Parameters mirror :meth:`consume` (``ingest_workers``/
        ``max_inflight`` route the stream through the parallel ingestion
        pipeline) and :meth:`mine` (``connected_only``/``rule``/
        ``algorithm``/``workers``).  With ``workers=0`` every slide is
        mined in this process, inside the single-writer commit hook under
        parallel ingestion.  With ``workers >= 1`` and parallel ingestion
        each slide's whole window is mined by one worker task, the next
        slide's while this one is sealed and sunk, on at most
        ``SLIDES_AHEAD + 1`` workers (DESIGN.md §9.3).  Sequential feeding
        (``ingest_workers=None``) reads no batch ahead, so a worker would
        have nothing to overlap: its slides are mined in this process
        whatever ``workers`` says.  Records are sealed in
        strict stream order either way, so they (and a disk journal's
        bytes) are identical for every ``workers × ingest_workers ×
        max_inflight`` combination.  ``max_inflight`` bounds the batches
        read from the stream and not yet emitted.

        ``resume_from`` takes the :class:`~repro.checkpoint.Checkpoint`
        this miner was hydrated from (:meth:`hydrate`) and consumes the
        *same source stream* the crashed run was watching, skipping the
        already-committed batch prefix — the continuation seals records
        (and journal bytes) identical to an uninterrupted run.
        """
        self._check_stream_registry(stream)
        self.flush_pending()
        if resume_from is not None:
            if resume_from.window_size != self.window_size:
                raise CheckpointError(
                    f"checkpoint window size {resume_from.window_size} does "
                    f"not match this miner's window size {self.window_size}"
                )
            if self._matrix.next_segment_id != resume_from.batches_consumed:
                raise CheckpointError(
                    f"miner state does not match the checkpoint (next segment "
                    f"{self._matrix.next_segment_id}, checkpoint consumed "
                    f"{resume_from.batches_consumed} batches); hydrate() the "
                    "miner from the checkpoint first"
                )
            stream = skip_stream_prefix(stream, resume_from.batches_consumed)
        if workers > 0 and ingest_workers is not None:
            report_slides, last_record = self._watch_slides(
                stream,
                minsup,
                connected_only,
                rule,
                algorithm,
                workers,
                ingest_workers,
                max_inflight,
            )
        else:
            report_slides = 0
            last_record = None

            def slide() -> None:
                nonlocal report_slides, last_record
                last_record = self._emit_slide(
                    minsup,
                    connected_only=connected_only,
                    rule=rule,
                    algorithm=algorithm,
                    workers=0,
                    max_inflight=max_inflight,
                )
                report_slides += 1

            self._feed(stream, ingest_workers, max_inflight, on_batch_committed=slide)
        return WatchReport(
            slides=report_slides,
            columns=self._matrix.num_columns,
            minsup=minsup,
            last_record=last_record,
        )

    def _watch_slides(
        self,
        stream: Union[GraphStream, TransactionStream, Iterable[Batch]],
        minsup: float,
        connected_only: bool,
        rule: str,
        algorithm: Optional[Union[str, MiningAlgorithm]],
        workers: int,
        ingest_workers: int,
        max_inflight: Optional[int],
    ) -> Tuple[int, Optional[SlideRecord]]:
        """The watch with mining workers: one whole-window task per slide.

        Each batch is *staged* by the ingestion coordinator — materialised
        and shipped inside its slide's task — before it is committed.  A
        slide's segment (and a graph batch's new edges) reach this miner
        only when the slide is emitted, so every sink sees the window,
        registry and journal at its own slide (DESIGN.md §9, §12.1).  The
        task for slide n+1 goes out before slide n is sealed and sunk,
        while the batches taken from the stream and not yet emitted stay
        within ``max_inflight``.  Returns (slides emitted, last record).
        """
        if max_inflight is not None and max_inflight < 1:
            raise ParallelMiningError(f"max_inflight must be at least 1, got {max_inflight}")
        name = check_parallel_algorithm(self._algorithm if algorithm is None else algorithm)
        store = self._matrix.store
        kind, register_new_edges, batches = self._raw_batches(stream)
        ingest = IngestPipeline(
            store,
            batches,
            kind=kind,
            workers=ingest_workers,
            registry=self._registry if kind == "snapshots" else None,
            register_new_edges=register_new_edges,
            max_inflight=max_inflight,
            policy=self._failure_policy,
            events=self._events,
        )
        coordinator = WindowCoordinator(
            store,
            registry=self._registry,
            register_new_edges=register_new_edges,
            policy=self._failure_policy,
            events=self._events,
        )
        bound = max_inflight if max_inflight is not None else default_max_inflight(ingest_workers)
        depth = min(bound, SLIDES_AHEAD + 1)
        # No more workers than slides in flight: a larger pool never fills.
        pool_workers = min(workers, depth)

        def tasks() -> Iterator[MiningSlideTask]:
            # Slides being mined hold ingest credits: together the two
            # stages never hold more than max_inflight batches.  An error
            # reading or staging a batch is raised by the slide stage once
            # every earlier slide is emitted.
            outcomes = ingest.outcomes(downstream=lambda: len(coordinator.staged))
            with closing(outcomes):
                for outcome in outcomes:
                    segment = coordinator.stage(outcome)
                    window = window_after(store, coordinator.staged)
                    columns = sum(handle.num_columns for handle in window.handles)
                    yield MiningSlideTask(
                        slide_id=segment.segment_id,
                        algorithm=name,
                        minsup=resolve_minsup(minsup, columns),
                        window=window,
                        registry=coordinator.staged_registry,
                        connected_only=connected_only,
                        rule=rule,
                    )

        slides = 0
        last_record: Optional[SlideRecord] = None

        def emit(outcome: SlideOutcome) -> None:
            nonlocal slides, last_record
            coordinator.commit_staged()
            self._batches_consumed += 1
            self._premined = outcome
            last_record = self._emit_slide(
                minsup,
                connected_only=connected_only,
                rule=rule,
                algorithm=algorithm,
                workers=workers,
                max_inflight=max_inflight,
            )
            slides += 1

        try:
            # Closing the task generator also shuts the ingestion pipeline
            # down, whichever stage failed.
            with closing(tasks()) as slide_tasks:
                mine_slides(
                    slide_tasks,
                    emit,
                    workers=pool_workers,
                    depth=depth,
                    lineage=store.lineage,
                    pool=self._ensure_pool(pool_workers),
                    policy=self._failure_policy,
                    events=self._events,
                )
        except BaseException:
            self._premined = None
            if coordinator.staged:
                # Workers hold segments the store never committed: retire
                # them before this store's lineage is mined again.
                self.close()
            raise
        self._last_ingest_report = ingest.report(coordinator)
        return slides, last_record

    @staticmethod
    def _sequential_batches(
        stream: Union[GraphStream, TransactionStream, Iterable[Batch]],
    ) -> Iterable[Batch]:
        """One stream as a batch iterable; plain iterables are type-checked."""
        if isinstance(stream, (GraphStream, TransactionStream)):
            return stream.batches()

        def checked() -> Iterable[Batch]:
            for batch in stream:
                if not isinstance(batch, Batch):
                    raise StreamError(
                        f"expected Batch instances, got {type(batch).__name__}"
                    )
                yield batch

        return checked()

    def _emit_slide(
        self,
        minsup: float,
        connected_only: bool,
        rule: str,
        algorithm: Optional[Union[str, MiningAlgorithm]],
        workers: int,
        max_inflight: Optional[int],
    ) -> SlideRecord:
        """Mine the current window once and seal + emit its slide record."""
        started = time.perf_counter()
        absolute = resolve_minsup(minsup, self._matrix.num_columns)
        result = self.mine(
            absolute,
            connected_only=connected_only,
            rule=rule,
            algorithm=algorithm,
            workers=workers,
            max_inflight=max_inflight,
        )
        elapsed = time.perf_counter() - started
        segments = self._matrix.segments()
        record = self._sealer.seal(
            result.rows,
            slide_id=segments[-1].segment_id,
            first_batch=segments[0].segment_id,
            last_batch=segments[-1].segment_id,
            num_columns=self._matrix.num_columns,
            minsup=absolute,
            timings={"mine_s": elapsed},
        )
        for sink in self._slide_sinks:
            sink(record)
        return record

    # ------------------------------------------------------------------ #
    # mining
    # ------------------------------------------------------------------ #
    def mine(
        self,
        minsup: float,
        connected_only: bool = True,
        rule: str = "exact",
        algorithm: Optional[Union[str, MiningAlgorithm]] = None,
        workers: int = 0,
        max_inflight: Optional[int] = None,
    ) -> MiningResult:
        """Mine the current window.

        Parameters
        ----------
        minsup:
            Absolute (integer >= 1) or relative (float in (0, 1)) minimum
            support.
        connected_only:
            Return only connected subgraphs (default).  With ``False`` every
            collection of frequent edges is returned — not available for the
            direct algorithm, which never generates disconnected collections.
        rule:
            Connectivity rule for the post-processing step: ``"exact"`` or
            ``"paper"`` (see DESIGN.md).
        algorithm:
            Optional per-call algorithm override.
        workers:
            Number of worker processes for sharded mining (DESIGN.md §4).
            ``0`` (the default) mines sequentially in this process;
            ``n >= 1`` partitions the search space over ``n`` processes and
            merges the shards back into the identical pattern set,
            incrementally as shards finish (DESIGN.md §9).  Inside a
            :meth:`watch` with mining workers a worker has already mined
            the window whole; ``mine`` returns that answer.
        max_inflight:
            Bound on submitted-but-unmerged shards in the parallel path
            (``2 * workers`` by default, minimum 1).
        """
        self.flush_pending()
        miner = self._algorithm if algorithm is None else self._resolve_algorithm(algorithm)
        absolute = resolve_minsup(minsup, self._matrix.num_columns)
        premined, self._premined = self._premined, None
        if premined is not None:
            # A watch with mining workers already mined this window whole,
            # connectivity filter included (DESIGN.md §9).
            if (premined.slide_id, premined.minsup) != (
                self._matrix.next_segment_id - 1,
                absolute,
            ):
                raise MiningError(
                    f"slide {premined.slide_id} was mined at minsup "
                    f"{premined.minsup}, not for this window at {absolute}"
                )
            rows = premined.patterns
            miner.stats = premined.stats
        elif workers and workers > 0:
            rows, stats = mine_window_parallel(
                self._matrix,
                miner,
                absolute,
                workers=workers,
                registry=self._registry,
                max_inflight=max_inflight,
                pool=self._ensure_pool(workers),
                policy=self._failure_policy,
                events=self._events,
            )
            miner.stats = stats  # aggregated shard instrumentation
        else:
            rows = miner.mine(self._matrix, absolute, registry=self._registry)
        if connected_only:
            if premined is None and not miner.produces_connected_only:
                rows = filter_connected_patterns(rows, self._registry, rule=rule)
        elif miner.produces_connected_only:
            raise MiningError(
                f"algorithm {miner.name!r} mines connected subgraphs directly; "
                "it cannot return disconnected collections"
            )
        return MiningResult.from_counts(rows, registry=self._registry)

    def mine_all_collections(
        self,
        minsup: float,
        algorithm: Optional[Union[str, MiningAlgorithm]] = None,
        workers: int = 0,
    ) -> MiningResult:
        """Mine every collection of frequent edges (connected or disjoint)."""
        return self.mine(
            minsup, connected_only=False, algorithm=algorithm, workers=workers
        )

    def available_algorithms(self) -> Sequence[str]:
        """Names of the algorithms that can be passed to :meth:`mine`."""
        return tuple(sorted(ALGORITHMS))

    # ------------------------------------------------------------------ #
    # worker-pool lifecycle (DESIGN.md §11)
    # ------------------------------------------------------------------ #
    def _ensure_pool(self, workers: int) -> PersistentWorkerPool:
        """The miner's persistent mining pool, (re)built for ``workers``.

        The pool is spawned lazily on the first parallel mine and reused
        by every later one — a watch run that mines each of thousands of
        slides pays the process-spawn cost once, not per slide.  Changing
        the worker count mid-life retires the old pool first.
        """
        pool = self._mining_pool
        if pool is not None and (pool.closed or pool.workers != workers):
            pool.close()
            pool = None
        if pool is None:
            pool = PersistentWorkerPool(workers)
            self._mining_pool = pool
        return pool

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent).

        The miner stays usable afterwards — the next parallel mine simply
        spawns a fresh pool.
        """
        if self._mining_pool is not None:
            self._mining_pool.close()
            self._mining_pool = None

    def __enter__(self) -> "StreamSubgraphMiner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"StreamSubgraphMiner(window={self.window_size}, "
            f"algorithm={self._algorithm.name!r}, "
            f"transactions={self.transaction_count})"
        )
