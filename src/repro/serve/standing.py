"""Standing queries: fire-on-transition semantics over slide commits.

A standing query is one algebra expression (``select`` or
``top_k``) registered by a subscriber.  It is *not* re-run over the
whole journal on every commit — after slide ``S`` commits, the
expression is evaluated restricted to slide ``S`` only (the registered
``where`` conjoined with ``slides(S, S)``).  The expression is planned
once, at subscribe (:class:`~repro.history.algebra.SlidePlan`);
each commit only binds the slide.  The restriction does two things at
once:

* **incrementality** — only slide ``S``'s postings and rows are
  touched;
* **transition semantics** — the matched row set *at* ``S`` is diffed
  against the matched row set at the previously processed slide, and
  the differences fire as events: ``enter`` ("pattern P became
  matching — e.g. became frequent / support crossed τ"), ``exit``
  (stopped matching) and ``update`` (still matching, support changed).

Exactly-once delivery falls out of the slide ordering: slides commit
with strictly increasing ids, :meth:`StandingQuery.advance` refuses to
process a slide twice, and every diff is a pure function of two
adjacent evaluations — there is no state that could replay or skip a
transition.  :func:`poll_oracle` pins that claim in tests and bench
E15: it re-derives the notification stream by brute-force polling the
raw records after every slide, with no index and no shared code path
on the evaluation side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.exceptions import ServeError
from repro.history import algebra
from repro.history.journal import SlideRecord

#: Transition kinds a subscriber may ask for.
EVENT_KINDS = ("enter", "exit", "update")

#: The matched rows of one evaluation: pattern items → support.
Rows = Dict[Tuple[str, ...], int]

#: What subscribers register: a JSON expression or a parsed AST.
Expression = Union[Mapping[str, object], algebra.Query]


@dataclass(frozen=True)
class Notification:
    """One fired transition, as pushed over SSE and checked by the oracle."""

    subscription: str
    slide: int
    event: str
    items: Tuple[str, ...]
    support: int
    previous_support: Optional[int]

    def as_dict(self) -> Dict[str, object]:
        return {
            "subscription": self.subscription,
            "slide": self.slide,
            "event": self.event,
            "items": list(self.items),
            "support": self.support,
            "previous_support": self.previous_support,
        }


def parse_standing_expression(expression: Expression) -> algebra.Query:
    """Validate a subscriber's expression: ``select`` or ``top_k`` only.

    ``history`` is a curve, not a row set — it has no enter/exit
    transitions to fire on, so registering one is a caller error.
    """
    if isinstance(expression, algebra.QUERY_SHAPES):
        parsed = expression
    elif isinstance(expression, Mapping):
        parsed = algebra.parse_query(expression)
    else:
        raise ServeError(
            f"expected a JSON object expression, got {type(expression).__name__}"
        )
    if isinstance(parsed, algebra.History):
        raise ServeError(
            "standing queries need a select or top_k shape; history is a "
            "curve and has no row transitions to notify on"
        )
    return parsed


def normalise_events(events: Iterable[str]) -> Tuple[str, ...]:
    """Validate and order a subscriber's requested event kinds."""
    wanted = tuple(kind for kind in EVENT_KINDS if kind in set(events))
    unknown = sorted(set(events) - set(EVENT_KINDS))
    if unknown:
        raise ServeError(
            f"unknown standing-query events {unknown}; expected a subset "
            f"of {list(EVENT_KINDS)}"
        )
    if not wanted:
        raise ServeError(
            f"a standing query needs at least one event kind out of "
            f"{list(EVENT_KINDS)}"
        )
    return wanted


def _restricted(query: algebra.Query, slide: int) -> algebra.Query:
    """The per-slide restriction, as an expression (what the oracle polls)."""
    window = algebra.slides(slide, slide)
    if isinstance(query, algebra.Select):
        return algebra.select(algebra.and_(query.where, window))
    if isinstance(query, algebra.TopK):
        where = window if query.where is None else algebra.and_(query.where, window)
        return algebra.top_k(query.k, where=where)
    raise ServeError("standing queries need a select or top_k shape")


def _pattern_order(items: Tuple[str, ...]) -> Tuple[int, Tuple[str, ...]]:
    return (len(items), items)


def diff_rows(
    subscription: str,
    slide: int,
    before: Rows,
    after: Rows,
    events: Sequence[str],
) -> List[Notification]:
    """The transitions between two adjacent per-slide evaluations.

    Deterministic order: enters, then exits, then updates, each in
    canonical (size, items) pattern order — so two deliveries of the
    same commit stream are byte-identical.
    """
    notifications: List[Notification] = []
    if "enter" in events:
        for items in sorted(after.keys() - before.keys(), key=_pattern_order):
            notifications.append(
                Notification(subscription, slide, "enter", items, after[items], None)
            )
    if "exit" in events:
        for items in sorted(before.keys() - after.keys(), key=_pattern_order):
            notifications.append(
                Notification(subscription, slide, "exit", items, 0, before[items])
            )
    if "update" in events:
        for items in sorted(before.keys() & after.keys(), key=_pattern_order):
            if before[items] != after[items]:
                notifications.append(
                    Notification(
                        subscription, slide, "update", items, after[items], before[items]
                    )
                )
    return notifications


class StandingQuery:
    """One registered expression plus its last evaluated row set."""

    def __init__(
        self,
        subscription: str,
        expression: Expression,
        events: Iterable[str] = ("enter", "exit"),
    ) -> None:
        self.subscription = subscription
        self.query = parse_standing_expression(expression)
        self._plan = algebra.SlidePlan(self.query)
        self.events = normalise_events(events)
        self.notified = 0
        self._rows: Rows = {}
        self._last_slide: Optional[int] = None

    @property
    def last_slide(self) -> Optional[int]:
        """The newest slide this query has processed (or primed at)."""
        return self._last_slide

    def expression_json(self) -> Dict[str, object]:
        """The registered expression in JSON form (the /stats surface)."""
        return algebra.to_json(self.query)

    def rows_at(self, index: algebra.IndexReader, slide: int) -> Rows:
        """The matched row set of the expression restricted to one slide."""
        return self._plan.run(index, slide)

    def prime(self, index: algebra.IndexReader) -> None:
        """Set the transition baseline at registration time.

        A subscriber registered while slide ``S`` is current starts from
        the matched set *at* ``S`` — it is notified about changes from
        now on, not replayed the whole history.
        """
        last = index.last_slide_id
        self._last_slide = last
        self._rows = self.rows_at(index, last) if last is not None else {}

    def advance(self, index: algebra.IndexReader, slide: int) -> List[Notification]:
        """Process one committed slide → the transitions it fired.

        Idempotent per slide: a slide at or below the last processed one
        returns no notifications (the exactly-once guard — redelivering
        a commit cannot duplicate events).
        """
        if self._last_slide is not None and slide <= self._last_slide:
            return []
        after = self.rows_at(index, slide)
        notifications = diff_rows(
            self.subscription, slide, self._rows, after, self.events
        )
        self._rows = after
        self._last_slide = slide
        self.notified += len(notifications)
        return notifications


def poll_oracle(
    records: Sequence[SlideRecord],
    expression: Expression,
    events: Iterable[str] = ("enter", "exit"),
    subscription: str = "oracle",
    after_slide: Optional[int] = None,
) -> List[Notification]:
    """The poll-after-every-slide reference notification stream.

    Replays the journal brute-force — no index, no compiler — polling
    the expression at every slide and diffing adjacent polls.  Slides
    up to ``after_slide`` only establish the baseline (matching a
    subscriber that registered at that point).  Tests and bench E15
    compare the push path against this, pinning the exactly-once
    fire-on-transition contract.
    """
    parsed = parse_standing_expression(expression)
    wanted = normalise_events(events)
    notifications: List[Notification] = []
    before: Rows = {}
    for record in records:
        result = algebra.brute_force_query(_restricted(parsed, record.slide_id), records)
        after: Rows = {items: support for _, items, support in result}  # type: ignore[misc]
        if after_slide is None or record.slide_id > after_slide:
            notifications.extend(
                diff_rows(subscription, record.slide_id, before, after, wanted)
            )
        before = after
    return notifications


__all__ = [
    "EVENT_KINDS",
    "Expression",
    "Notification",
    "Rows",
    "StandingQuery",
    "diff_rows",
    "normalise_events",
    "parse_standing_expression",
    "poll_oracle",
]
