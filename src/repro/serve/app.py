"""The serve application: one journal behind the snapshot-swapped index.

:class:`ServeApp` is the transport-independent core of the async
serving subsystem (DESIGN.md §15) — the HTTP layer
(:mod:`repro.serve.http`), the tests and bench E15 all drive this one
object:

* **reads** (:meth:`query`, :meth:`stats`) pin the current
  :class:`~repro.serve.index.IndexSnapshot` once and evaluate through
  :func:`evaluate_expression` — the one read path behind ``POST
  /query``, ``repro query`` and every library caller;
* **writes** (:meth:`refresh`) index the journal suffix one slide at a
  time: snapshot swap first, then every registered standing query is
  advanced against the *new* snapshot (restricted to the new slide)
  and its transitions are delivered to the subscriber's sink;
* **directories** (:meth:`from_directory`) are read, never written:
  the app loads and follows them through the one journal reader,
  :class:`~repro.history.journal.JournalTail`;
* **warm start** (:meth:`from_directory` with ``warm_dir``) hydrates
  the index from a sealed serve-index checkpoint and re-indexes only
  the journal records appended after the seal.

Write-path threading contract: ``refresh``/``subscribe``/
``unsubscribe`` must be serialised by the caller (the asyncio server
runs them all on its event loop; tests call them from one thread).
Reads need no coordination at all — that is the point of the snapshot
swap.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.checkpoint.serve_index import load_serve_index, seal_serve_index
from repro.exceptions import AlgebraError, ServeError
from repro.history import algebra
from repro.history.journal import JournalTail, PatternJournal, SlideRecord
from repro.serve.index import IndexSnapshot, JournalIndex
from repro.serve.standing import Expression, Notification, StandingQuery

#: A subscriber's delivery sink: called once per fired notification.
Sink = Callable[[Notification], None]


def parse_expression(
    expression: Union[Mapping[str, object], algebra.Query],
) -> algebra.Query:
    """Normalise a query expression (JSON mapping or AST) into an AST."""
    if isinstance(expression, algebra.QUERY_SHAPES):
        return expression
    if isinstance(expression, Mapping):
        return algebra.parse_query(expression)
    raise AlgebraError(
        f"expected a JSON object expression, got {type(expression).__name__}"
    )


def evaluate_expression(
    expression: Union[Mapping[str, object], algebra.Query],
    index: algebra.IndexReader,
) -> Dict[str, object]:
    """Evaluate one expression against any index reader → response payload.

    The payload carries the echoed ``query``, the result (``matches``/
    ``count`` or ``history`` + provenance) and the planner's ``explain``.
    Malformed expressions raise :class:`~repro.exceptions.AlgebraError`
    with the offending node path; the front ends turn that into a
    structured error.
    """
    return algebra.evaluate(parse_expression(expression), index).payload()


class ServeApp:
    """Queries, stats, standing subscriptions and commits over one journal:
    an in-process :class:`PatternJournal`, or a :class:`JournalTail`
    following a directory another process writes."""

    def __init__(
        self,
        journal: Union[PatternJournal, JournalTail],
        *,
        index: Optional[JournalIndex] = None,
        cold_records_indexed: int = 0,
        hydrated_slide: Optional[int] = None,
    ) -> None:
        self._journal = journal
        if index is None:
            records = self._pending(None)
            index = JournalIndex(records)
            cold_records_indexed = len(records)
        self._index = index
        self._subscribers: Dict[str, Tuple[StandingQuery, Sink]] = {}
        self._next_subscription = 0
        self.queries_served = 0
        self.notifications_sent = 0
        self.subscribers_total = 0
        #: Records indexed from scratch at startup (warm start shrinks
        #: this to the journal suffix — the number the warm-start tests
        #: and ``/stats`` pin).
        self.cold_records_indexed = cold_records_indexed
        #: The slide the hydrated snapshot was sealed at (None = cold).
        self.hydrated_slide = hydrated_slide

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_journal(cls, journal: PatternJournal) -> "ServeApp":
        """Serve an in-process journal object (tests, bench, embedding)."""
        return cls(journal)

    @classmethod
    def from_directory(
        cls,
        path: Union[str, Path],
        warm_dir: Optional[Union[str, Path]] = None,
    ) -> "ServeApp":
        """Serve a journal directory (the CLI path) as a reader only.

        Loads every record through a
        :class:`~repro.history.journal.JournalTail` (one read of
        ``journal.dat``; an interrupted compaction or an orphan tail is
        resolved in memory, never on disk), optionally hydrates the index
        from a sealed serve-index snapshot under ``warm_dir``, and keeps
        the tail — its cursor at the log's end — so later refreshes read
        only what a concurrently running writer appends.
        """
        tail = JournalTail.open(path)
        records = tail.poll()
        snapshot = cls._hydrate(warm_dir, records)
        hydrated: Optional[int] = None
        if snapshot is None:
            index, suffix = JournalIndex(records), records
        else:
            index = JournalIndex.from_snapshot(snapshot)
            hydrated = snapshot.last_slide_id
            suffix = [r for r in records if hydrated is None or r.slide_id > hydrated]
            index.extend(suffix)
        return cls(
            tail,
            index=index,
            cold_records_indexed=len(suffix),
            hydrated_slide=hydrated,
        )

    @staticmethod
    def _hydrate(
        warm_dir: Optional[Union[str, Path]],
        records: List[SlideRecord],
    ) -> Optional[IndexSnapshot]:
        """Load a usable warm snapshot, or ``None`` for a cold build.

        A snapshot is only adopted when it is an exact prefix of the
        journal — anything else (an older payload format, a malformed
        payload, a truncated/rolled-back journal, corruption) falls back
        to cold, because warm start must never change an answer.
        """
        if warm_dir is None:
            return None
        payload = load_serve_index(warm_dir)
        if payload is None:
            return None
        try:
            snapshot = IndexSnapshot.from_payload(payload)
        except ServeError:
            return None
        order = snapshot.slide_ids()
        if order != [record.slide_id for record in records[: len(order)]]:
            return None
        return snapshot

    # ------------------------------------------------------------------ #
    # the read path
    # ------------------------------------------------------------------ #
    @property
    def journal(self) -> Union[PatternJournal, JournalTail]:
        return self._journal

    @property
    def index(self) -> JournalIndex:
        return self._index

    def query(
        self, expression: Union[Mapping[str, object], Expression]
    ) -> Dict[str, object]:
        """Evaluate one algebra expression against the pinned snapshot."""
        snapshot = self._index.current
        self.queries_served += 1
        return evaluate_expression(expression, snapshot)

    def stats(self) -> Dict[str, object]:
        """The ``/stats`` payload: index shape + journal + serve counters."""
        snapshot = self._index.current
        payload = dict(snapshot.stats())
        payload["journal"] = {
            "backend": getattr(self._journal, "kind", "unknown"),
            "path": str(self._journal.path) if self._journal.path else None,
            "disk_size_bytes": self._journal.disk_size_bytes(),
        }
        payload["serve"] = {
            "generation": snapshot.generation,
            "snapshot_swaps": self._index.swaps,
            "queries": self.queries_served,
            "subscribers": len(self._subscribers),
            "subscribers_total": self.subscribers_total,
            "standing_notifications": self.notifications_sent,
            "warm_start": {
                "hydrated_slide": self.hydrated_slide,
                "cold_records_indexed": self.cold_records_indexed,
            },
        }
        return payload

    # ------------------------------------------------------------------ #
    # the write path (single caller at a time)
    # ------------------------------------------------------------------ #
    def pending_records(self) -> List[SlideRecord]:
        """Journal records not yet indexed (cross-process via the tail)."""
        return self._pending(self._index.current.last_slide_id)

    def _pending(self, indexed: Optional[int]) -> List[SlideRecord]:
        if isinstance(self._journal, JournalTail):
            return self._journal.poll()
        return self._journal.records_after(indexed)

    def refresh(self) -> int:
        """Index the journal suffix; swap, advance standing queries, push.

        One snapshot swap *per slide*: a standing query is always
        advanced against a snapshot whose newest slide is exactly the
        slide being processed, which is what makes the transition stream
        equal to the poll-after-every-slide oracle.
        """
        suffix = self.pending_records()
        for record in suffix:
            snapshot = self._index.extend([record])
            for standing, sink in list(self._subscribers.values()):
                for notification in standing.advance(snapshot, record.slide_id):
                    self.notifications_sent += 1
                    sink(notification)
        return len(suffix)

    # ------------------------------------------------------------------ #
    # standing subscriptions
    # ------------------------------------------------------------------ #
    def subscribe(
        self,
        expression: Expression,
        events: Tuple[str, ...] = ("enter", "exit"),
        sink: Optional[Sink] = None,
    ) -> str:
        """Register a standing query; returns the subscription id.

        The baseline is primed at the current snapshot: the subscriber
        is notified about transitions from *now* on.
        """
        subscription = f"sub-{self._next_subscription}"
        standing = StandingQuery(subscription, expression, events)
        standing.prime(self._index.current)
        self._next_subscription += 1
        self._subscribers[subscription] = (standing, sink or (lambda _: None))
        self.subscribers_total += 1
        return subscription

    def unsubscribe(self, subscription: str) -> bool:
        """Drop one subscription; False when it was already gone."""
        return self._subscribers.pop(subscription, None) is not None

    def subscriptions(self) -> Dict[str, Dict[str, object]]:
        """The registered standing queries (the ``/stats`` drill-down)."""
        return {
            subscription: {
                "query": standing.expression_json(),
                "events": list(standing.events),
                "last_slide": standing.last_slide,
                "notified": standing.notified,
            }
            for subscription, (standing, _) in self._subscribers.items()
        }

    # ------------------------------------------------------------------ #
    # warm-start sealing and lifecycle
    # ------------------------------------------------------------------ #
    def seal_warm(self, warm_dir: Union[str, Path]) -> Path:
        """Seal the current snapshot for the next process's warm start."""
        return seal_serve_index(warm_dir, self._index.current.to_payload())

    def close(self) -> None:
        """Nothing to release: the app keeps no file open between polls."""


__all__ = ["ServeApp", "Sink", "evaluate_expression", "parse_expression"]
