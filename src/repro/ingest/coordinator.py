"""The single writer that owns window semantics during parallel ingestion.

Workers materialise batches concurrently, but exactly one
:class:`WindowCoordinator` commits their results to the
:class:`~repro.storage.backend.WindowStore` — in stream (segment id)
order, one segment per batch, through :meth:`WindowStore.append_segment`.
Eviction and boundary semantics are therefore untouched: the store performs the
identical slide it would have performed under sequential
``append_batch`` calls, and (for disk backends) persists the identical
bytes.

The coordinator also executes the registry-merge step of the protocol
(DESIGN.md §5): each batch's newly discovered edges are registered
against the live :class:`~repro.graph.edge_registry.EdgeRegistry` in
stream order and first-occurrence order — exactly the global
first-occurrence order sequential encoding would have used, so the
assigned symbols are identical — and the batch's provisional rows are
remapped to the final symbols before the segment is built.

A pipelined watch (DESIGN.md §9.3) *stages* a batch — merges its new edges
into a private copy of the registry and materialises its segment, so the
segment can ship to a mining worker — before the previous slide's sinks
run, and *commits* it only after them: the live registry and the store
stay at the slide being emitted until its sinks return.
"""

from __future__ import annotations

import copy
from collections import deque
from typing import Callable, Deque, Dict, List, NamedTuple, Optional, Tuple

from repro import faults
from repro.exceptions import EdgeRegistryError, IngestError
from repro.graph.edge import Edge
from repro.graph.edge_registry import EdgeRegistry
from repro.ingest.worker import ChunkOutcome, is_provisional, provisional_symbol
from repro.resilience import EventLog, FailurePolicy, retry_io
from repro.storage.backend import WindowStore
from repro.storage.segments import Segment


class _Staged(NamedTuple):
    """A materialised batch waiting for its commit."""

    segment: Segment
    payload: Optional[bytes]
    #: New edges still to be merged into the live registry at commit
    #: (empty when the merge already happened at staging).
    unmerged_edges: Tuple[Edge, ...]


class WindowCoordinator:
    """Single-writer commit path from worker outcomes to the window store.

    Parameters
    ----------
    store:
        The window store receiving the segments.
    registry:
        The live edge registry new edges are merged into.  Only required
        when batches can report new edges (snapshot ingestion).
    register_new_edges:
        When ``False``, a batch reporting an unregistered edge raises
        :class:`~repro.exceptions.EdgeRegistryError` instead of
        registering it (the sequential ``encode(register_new=False)``
        behaviour).
    on_batch_committed:
        Optional callback invoked after each batch has been appended to
        the store (still inside the single-writer commit, so in strict
        stream order).  This is the window-slide hook the
        pattern-history subsystem mines from (DESIGN.md §10): because it
        fires between appends, the callback observes exactly the window
        states sequential ``append_batch`` calls would have produced,
        regardless of worker count or in-flight bound.
    policy / events:
        The failure policy and shared resilience event log (DESIGN.md
        §14): segment appends are retried under ``policy.io_retries``
        with each retry recorded on ``events``.
    """

    def __init__(
        self,
        store: WindowStore,
        registry: Optional[EdgeRegistry] = None,
        register_new_edges: bool = True,
        on_batch_committed: Optional[Callable[[], None]] = None,
        policy: Optional[FailurePolicy] = None,
        events: Optional[EventLog] = None,
    ) -> None:
        self._store = store
        self._registry = registry
        self._register_new_edges = register_new_edges
        self._on_batch_committed = on_batch_committed
        self._policy = policy
        self._events = events
        #: Batches committed so far.
        self.batches_committed = 0
        #: Transaction columns committed so far.
        self.columns_committed = 0
        #: Columns evicted by the commits so far.
        self.columns_evicted = 0
        #: Edges newly registered by the merge step so far.
        self.edges_registered = 0
        self._staged: Deque[_Staged] = deque()
        # The registry as of the newest staged batch, while it differs
        # from the live one (copy-on-write: a copy handed out is never
        # mutated again).
        self._lookahead: Optional[EdgeRegistry] = None

    @property
    def store(self) -> WindowStore:
        """The window store being written to."""
        return self._store

    @property
    def staged_registry(self) -> Optional[EdgeRegistry]:
        """The registry as of the newest staged batch.

        A private copy while a staged batch brought new edges (a copy is
        never mutated once handed out), else the live registry itself.
        """
        return self._lookahead if self._lookahead is not None else self._registry

    @property
    def staged(self) -> Tuple[Segment, ...]:
        """The segments staged and not yet committed, oldest first."""
        return tuple(staged.segment for staged in self._staged)

    def commit(self, outcome: ChunkOutcome) -> None:
        """Commit one batch's segment, merging its new edges first.

        Outcomes must arrive in segment id order, the store's next id
        first; anything else would reorder the stream and is rejected
        before the registry is touched.
        """
        self.stage(outcome)
        self.commit_staged()

    def stage(self, outcome: ChunkOutcome) -> Segment:
        """Materialise one batch's segment without committing it.

        With nothing staged the new edges go straight into the live
        registry, as :meth:`commit` always did.  Behind a staged batch
        they go into a fresh copy of :attr:`staged_registry`, and reach
        the live registry (with the same symbols) at :meth:`commit_staged`.
        """
        expected = self._store.next_segment_id + len(self._staged)
        if outcome.segment_id != expected:
            raise IngestError(
                f"segment {outcome.segment_id} committed out of stream order; "
                f"expected segment {expected}"
            )
        unmerged: Tuple[Edge, ...] = ()
        if not self._staged:
            symbols = self._merge(self._registry, outcome.new_edges)
        else:
            if outcome.new_edges:
                self._lookahead = copy.deepcopy(self.staged_registry)
                unmerged = outcome.new_edges
            symbols = self._merge(self._lookahead, unmerged, count=False)
        mapping = {provisional_symbol(index): item for index, item in enumerate(symbols)}
        segment, payload = self._materialise(outcome, mapping)
        self._staged.append(_Staged(segment, payload, unmerged))
        return segment

    def commit_staged(self) -> None:
        """Commit the oldest staged batch to the store, then fire the hook."""
        segment, payload, unmerged = self._staged.popleft()
        if unmerged:
            self._merge(self._registry, unmerged)
        if not self._staged:
            self._lookahead = None

        def _append() -> int:
            # Disk appends rewrite the segment file keyed by its id and
            # only then update the manifest, so a retried append after a
            # failed write is idempotent.
            faults.trip("segment.write", OSError)
            return self._store.append_segment(segment, payload=payload)

        self.columns_evicted += retry_io(
            _append,
            site="segment.write",
            policy=self._policy,
            events=self._events,
        )
        self.batches_committed += 1
        self.columns_committed += segment.num_columns
        if self._on_batch_committed is not None:
            self._on_batch_committed()

    @staticmethod
    def _materialise(
        outcome: ChunkOutcome, mapping: Dict[str, str]
    ) -> Tuple[Segment, Optional[bytes]]:
        """One outcome → the segment to append plus its verbatim payload."""
        rows = outcome.rows
        payload = outcome.payload
        if any(is_provisional(item) for item in rows):
            rows = {mapping.get(item, item): bits for item, bits in rows.items()}
            payload = None
            unresolved = sorted(item for item in rows if is_provisional(item))
            if unresolved:
                raise IngestError(
                    f"segment {outcome.segment_id} references "
                    f"{len(unresolved)} provisional items with no "
                    "matching new_edges entry"
                )
        # The worker's payload (when the rows were final) seeds the
        # segment's serialisation cache: persistence and later handle
        # shipping reuse those exact bytes instead of re-serialising.
        segment = Segment(
            outcome.segment_id, outcome.num_columns, rows, payload=payload
        )
        return segment, payload

    def _merge(
        self,
        registry: Optional[EdgeRegistry],
        new_edges: Tuple[Edge, ...],
        count: bool = True,
    ) -> List[str]:
        """Register a batch's new edges in order → their final symbols.

        An edge already registered by an earlier batch's merge simply
        resolves to its existing symbol, which is how overlapping "new"
        discoveries across concurrently encoded batches converge on one
        symbol per edge.  ``count`` adds the truly new ones to
        :attr:`edges_registered` (the live registry's merges only).
        """
        if not new_edges:
            return []
        if registry is None:
            raise IngestError(
                "a batch reported new edges but the coordinator has no "
                "registry to merge them into"
            )
        symbols: List[str] = []
        for edge in new_edges:
            already_known = edge in registry
            if not self._register_new_edges and not already_known:
                raise EdgeRegistryError(f"edge {edge!r} is not registered")
            symbols.append(registry.register(edge))
            if count and not already_known:
                self.edges_registered += 1
        return symbols
