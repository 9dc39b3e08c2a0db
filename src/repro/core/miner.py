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
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Sequence, Union

from repro.core.algorithms import ALGORITHMS, get_algorithm
from repro.core.algorithms.base import MiningAlgorithm, resolve_minsup
from repro.core.patterns import MiningResult
from repro.core.postprocess import filter_connected_patterns
from repro.exceptions import CheckpointError, MiningError, StreamError
from repro.graph.edge_registry import EdgeRegistry
from repro.history.journal import SlideRecord
from repro.ingest.api import (
    IngestReport,
    ingest_batches,
    ingest_snapshots,
    ingest_transactions,
)
from repro.parallel.api import TRANSPORTS, mine_window_parallel
from repro.parallel.pool import PersistentWorkerPool
from repro.resilience import EventLog, FailurePolicy, ResilienceEvent
from repro.graph.graph import GraphSnapshot
from repro.storage.backend import MemoryWindowStore, WindowStore
from repro.storage.dsmatrix import DSMatrix
from repro.stream.batch import Batch
from repro.stream.stream import GraphStream, TransactionStream, skip_stream_prefix

if TYPE_CHECKING:  # pragma: no cover - type-only (checkpoint imports nothing back)
    from repro.checkpoint.snapshot import Checkpoint

#: A per-slide sink: receives the sealed record of every window slide.
SlideSink = Callable[[SlideRecord], None]


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
        Optional path; when given the DSMatrix persists itself there after
        every batch (the paper's on-disk behaviour).
    storage:
        Storage backend for the window: ``"memory"`` (default without a
        path), ``"disk"`` (segmented per-batch files under ``storage_path``,
        O(batch) I/O per append), ``"single"`` (legacy whole-file mirror at
        ``storage_path``, the default when only a path is given) or a
        pre-built :class:`~repro.storage.backend.WindowStore`.
    on_slide:
        Optional per-slide sink (e.g. ``journal.append``): during
        :meth:`watch` runs it receives one sealed
        :class:`~repro.history.journal.SlideRecord` per window slide.
        Further sinks can be attached with :meth:`add_slide_sink`.
    transport:
        Segment transport for parallel runs (DESIGN.md §11): ``"auto"``
        (shared memory when the host supports it, the default), ``"shm"``
        (demand shared memory) or ``"pickle"`` (force payload shipping).
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
        storage: Optional[Union[str, WindowStore]] = None,
        on_slide: Optional[SlideSink] = None,
        transport: str = "auto",
        failure_policy: Optional[FailurePolicy] = None,
    ) -> None:
        if batch_size <= 0:
            raise StreamError(f"batch_size must be positive, got {batch_size}")
        if transport not in TRANSPORTS:
            raise MiningError(
                f"unknown transport {transport!r}; expected one of {TRANSPORTS}"
            )
        self._transport = transport
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
        if on_slide is not None:
            self._slide_sinks.append(on_slide)
        self._last_ingest_report: Optional[IngestReport] = None

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
    def transport(self) -> str:
        """The configured segment transport for parallel runs."""
        return self._transport

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
            ``0`` executes the identical chunk plan in-process
            (byte-identical to the sequential path), ``n >= 1`` fans the
            per-batch parsing/encoding/counting out to ``n`` worker
            processes while a single-writer coordinator commits segments
            in stream order, as they complete (DESIGN.md §9).
        max_inflight:
            Bound on concurrently resident encoded-but-uncommitted chunks
            in the parallel path (``2 * ingest_workers`` by default,
            minimum 1).  Any value yields the byte-identical window; it
            only trades peak memory against encode/commit overlap.
        """
        if isinstance(stream, GraphStream) and stream.registry is not self._registry:
            raise StreamError(
                "the GraphStream must share the miner's EdgeRegistry; "
                "pass registry=miner.registry when building the stream"
            )
        if ingest_workers is not None:
            self._consume_with_ingest_workers(
                stream, ingest_workers, max_inflight=max_inflight
            )
            return
        if isinstance(stream, GraphStream):
            for batch in stream.batches():
                self.add_batch(batch)
            return
        for batch in stream:
            if not isinstance(batch, Batch):
                raise StreamError(f"expected Batch instances, got {type(batch).__name__}")
            self.add_batch(batch)

    def _consume_with_ingest_workers(
        self,
        stream: Union[GraphStream, TransactionStream, Iterable[Batch]],
        ingest_workers: int,
        max_inflight: Optional[int] = None,
        on_batch_committed: Optional[Callable[[], None]] = None,
    ) -> None:
        """Route one stream through the parallel ingestion pipeline."""
        self.flush_pending()
        store = self._matrix.store
        report: IngestReport
        if isinstance(stream, GraphStream):
            report = ingest_snapshots(
                store,
                stream.raw_snapshots,
                batch_size=stream.batch_size,
                registry=self._registry,
                workers=ingest_workers,
                register_new_edges=stream.register_new_edges,
                max_inflight=max_inflight,
                on_batch_committed=on_batch_committed,
                transport=self._transport,
                policy=self._failure_policy,
                events=self._events,
            )
        elif isinstance(stream, TransactionStream):
            report = ingest_transactions(
                store,
                stream.raw_transactions,
                batch_size=stream.batch_size,
                workers=ingest_workers,
                drop_last=stream.drop_last,
                max_inflight=max_inflight,
                on_batch_committed=on_batch_committed,
                transport=self._transport,
                policy=self._failure_policy,
                events=self._events,
            )
        else:
            report = ingest_batches(
                store,
                stream,
                workers=ingest_workers,
                max_inflight=max_inflight,
                on_batch_committed=on_batch_committed,
                transport=self._transport,
                policy=self._failure_policy,
                events=self._events,
            )
        self._batches_consumed += report.batches
        self._last_ingest_report = report

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
        transport: str = "auto",
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
            transport=transport,
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
        ``algorithm``/``workers``).  Under parallel ingestion the mining
        runs inside the single-writer commit hook, in strict stream order,
        while workers keep encoding later batches — so the sealed records
        (and a disk journal's bytes) are identical for every
        ``workers × ingest_workers × max_inflight`` combination.

        ``resume_from`` takes the :class:`~repro.checkpoint.Checkpoint`
        this miner was hydrated from (:meth:`hydrate`) and consumes the
        *same source stream* the crashed run was watching, skipping the
        already-committed batch prefix — the continuation seals records
        (and journal bytes) identical to an uninterrupted run.
        """
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
        report_slides = 0
        last_record: Optional[SlideRecord] = None

        def slide() -> None:
            nonlocal report_slides, last_record
            last_record = self._emit_slide(
                minsup,
                connected_only=connected_only,
                rule=rule,
                algorithm=algorithm,
                workers=workers,
                max_inflight=max_inflight,
            )
            report_slides += 1

        if ingest_workers is not None:
            if isinstance(stream, GraphStream) and stream.registry is not self._registry:
                raise StreamError(
                    "the GraphStream must share the miner's EdgeRegistry; "
                    "pass registry=miner.registry when building the stream"
                )
            self._consume_with_ingest_workers(
                stream,
                ingest_workers,
                max_inflight=max_inflight,
                on_batch_committed=slide,
            )
        else:
            for batch in self._sequential_batches(stream):
                self.add_batch(batch)
                slide()
        return WatchReport(
            slides=report_slides,
            columns=self._matrix.num_columns,
            minsup=minsup,
            last_record=last_record,
        )

    def _sequential_batches(
        self, stream: Union[GraphStream, TransactionStream, Iterable[Batch]]
    ) -> Iterable[Batch]:
        """One stream as a batch iterable (the sequential consume semantics)."""
        if isinstance(stream, GraphStream):
            if stream.registry is not self._registry:
                raise StreamError(
                    "the GraphStream must share the miner's EdgeRegistry; "
                    "pass registry=miner.registry when building the stream"
                )
            return stream.batches()
        if isinstance(stream, TransactionStream):
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
        record = SlideRecord(
            slide_id=segments[-1].segment_id,
            first_batch=segments[0].segment_id,
            last_batch=segments[-1].segment_id,
            num_columns=self._matrix.num_columns,
            minsup=absolute,
            patterns=result.entries(),
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
            incrementally as shards finish (DESIGN.md §9).
        max_inflight:
            Bound on submitted-but-unmerged shards in the parallel path
            (``2 * workers`` by default, minimum 1).
        """
        self.flush_pending()
        miner = self._algorithm if algorithm is None else self._resolve_algorithm(algorithm)
        absolute = resolve_minsup(minsup, self._matrix.num_columns)
        if workers and workers > 0:
            counts, stats = mine_window_parallel(
                self._matrix,
                miner,
                absolute,
                workers=workers,
                registry=self._registry,
                max_inflight=max_inflight,
                transport=self._transport,
                pool=self._ensure_pool(workers),
                policy=self._failure_policy,
                events=self._events,
            )
            miner.stats = stats  # aggregated shard instrumentation
        else:
            counts = miner.mine(self._matrix, absolute, registry=self._registry)
        if connected_only:
            if not miner.produces_connected_only:
                counts = filter_connected_patterns(counts, self._registry, rule=rule)
        elif miner.produces_connected_only:
            raise MiningError(
                f"algorithm {miner.name!r} mines connected subgraphs directly; "
                "it cannot return disconnected collections"
            )
        return MiningResult.from_counts(counts, registry=self._registry)

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
