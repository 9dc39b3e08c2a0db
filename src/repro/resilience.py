"""The unified failure policy and resilience event log (DESIGN.md §14).

Before this module, recovery behaviour was scattered and inconsistent:
the pipeline degraded a whole uncommitted suffix to in-process execution
on the first ``BrokenProcessPool`` and disk-write errors simply
propagated.
:class:`FailurePolicy` centralises the knobs — how many times to retry, how
long to back off (exponential, capped, with *seeded* jitter so chaos runs
are reproducible), when a task counts as a straggler — and
:class:`EventLog` records every recovery decision as a structured
:class:`ResilienceEvent` so `--stats`, :class:`IngestReport` and the
supervisor's JSON event stream can surface what actually happened.

The degradation ladder is explicit and ordered::

    pool  →  in-process

Each rung trades performance for independence from a failing mechanism:
the pool needs working worker processes (a broken one is first respawned
under the retry budget), in-process execution needs nothing but this
interpreter.
Every rung computes byte-identical results — degradation changes *where*
work runs, never the answer — which is what the chaos parity suite
asserts.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from repro.exceptions import InjectedWorkerCrash, ResilienceError

__all__ = [
    "DEFAULT_POLICY",
    "DEGRADATION_LADDER",
    "EventLog",
    "FailurePolicy",
    "ResilienceEvent",
    "call_with_crash_retry",
    "retry_io",
]

T = TypeVar("T")

#: The explicit degradation ladder (fastest first).  Runs start on the
#: highest rung their configuration allows and only ever step down.
DEGRADATION_LADDER: Tuple[str, ...] = ("pool", "in-process")

#: Event kinds recorded by the recovery layers.
EVENT_KINDS = ("retry", "respawn", "degrade", "timeout", "skip", "drop")


@dataclass(frozen=True)
class FailurePolicy:
    """Retry, backoff, and straggler limits shared by every layer.

    Parameters
    ----------
    max_retries:
        How many times task-level infrastructure failures (a broken pool,
        an injected in-process crash) are retried before degrading to the
        next rung of the ladder.
    backoff_s / backoff_factor / max_backoff_s:
        Exponential backoff for task-level retries: retry ``i`` sleeps
        ``backoff_s * backoff_factor**i`` seconds, capped.
    jitter:
        Fractional jitter applied to every delay (``0.25`` = ±25%), drawn
        from a generator seeded with ``seed`` — two runs with the same
        policy sleep the same amounts.
    seed:
        Seed for the jitter stream.
    task_timeout_s:
        Straggler threshold: a submitted task not finished after this many
        seconds is speculatively re-executed in the coordinating process
        (the slow copy's result is discarded).  ``None`` disables it.
    io_retries / io_backoff_s:
        Retry budget and backoff base for single I/O operations (journal
        appends, segment writes) — cheaper and tighter than
        task-level retries.
    """

    max_retries: int = 2
    backoff_s: float = 0.02
    backoff_factor: float = 2.0
    max_backoff_s: float = 1.0
    jitter: float = 0.25
    seed: int = 0
    task_timeout_s: Optional[float] = None
    io_retries: int = 2
    io_backoff_s: float = 0.01

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ResilienceError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_s < 0:
            raise ResilienceError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.backoff_factor < 1.0:
            raise ResilienceError(
                f"backoff_factor must be >= 1.0, got {self.backoff_factor}"
            )
        if self.max_backoff_s < self.backoff_s:
            raise ResilienceError(
                f"max_backoff_s ({self.max_backoff_s}) must be >= backoff_s "
                f"({self.backoff_s})"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ResilienceError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ResilienceError(
                f"task_timeout_s must be positive, got {self.task_timeout_s}"
            )
        if self.io_retries < 0:
            raise ResilienceError(f"io_retries must be >= 0, got {self.io_retries}")
        if self.io_backoff_s < 0:
            raise ResilienceError(
                f"io_backoff_s must be >= 0, got {self.io_backoff_s}"
            )

    def delay_s(self, attempt: int, base: Optional[float] = None) -> float:
        """The jittered backoff before retry ``attempt`` (0-based).

        Deterministic: the jitter is drawn from a generator seeded with
        ``(seed, attempt)``, so the same policy produces the same delay
        for the same attempt in every process.
        """
        if base is None:
            base = self.backoff_s
        delay = min(base * self.backoff_factor**attempt, self.max_backoff_s)
        if self.jitter and delay:
            rng = random.Random(self.seed * 1_000_003 + attempt)
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay

    def io_delay_s(self, attempt: int) -> float:
        """The jittered backoff before I/O retry ``attempt`` (0-based)."""
        return self.delay_s(attempt, base=self.io_backoff_s)


#: The policy every layer uses when the caller does not supply one.
DEFAULT_POLICY = FailurePolicy()


@dataclass(frozen=True)
class ResilienceEvent:
    """One recovery decision: what happened, where, on which attempt."""

    kind: str  # one of EVENT_KINDS
    site: str  # fault site or subsystem, e.g. "journal.write", "pool"
    attempt: int = 0
    detail: str = ""

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form (the supervisor event stream shape)."""
        return {
            "event": "resilience",
            "kind": self.kind,
            "site": self.site,
            "attempt": self.attempt,
            "detail": self.detail,
        }


class EventLog:
    """A thread-safe, append-only log of :class:`ResilienceEvent`.

    ``on_event`` (optional) is invoked synchronously for each recorded
    event — the CLI wires it to a JSON-lines emitter on stderr so a
    supervisor tails recovery decisions live.
    """

    def __init__(
        self, on_event: Optional[Callable[[ResilienceEvent], None]] = None
    ) -> None:
        self._events: List[ResilienceEvent] = []
        self._lock = threading.Lock()
        self._on_event = on_event

    @property
    def on_event(self) -> Optional[Callable[[ResilienceEvent], None]]:
        """The live-event callback (settable after construction)."""
        return self._on_event

    @on_event.setter
    def on_event(self, callback: Optional[Callable[[ResilienceEvent], None]]) -> None:
        self._on_event = callback

    def record(
        self, kind: str, site: str, attempt: int = 0, detail: str = ""
    ) -> ResilienceEvent:
        """Append an event (and notify the ``on_event`` callback)."""
        if kind not in EVENT_KINDS:
            raise ResilienceError(
                f"unknown resilience event kind {kind!r}; one of {EVENT_KINDS}"
            )
        event = ResilienceEvent(kind=kind, site=site, attempt=attempt, detail=detail)
        with self._lock:
            self._events.append(event)
        if self._on_event is not None:
            self._on_event(event)
        return event

    @property
    def events(self) -> Tuple[ResilienceEvent, ...]:
        with self._lock:
            return tuple(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def since(self, start: int) -> Tuple[ResilienceEvent, ...]:
        """Events recorded at index ``start`` or later."""
        with self._lock:
            return tuple(self._events[start:])

    def counts(self) -> Dict[str, int]:
        """Event totals by kind (only kinds that occurred)."""
        totals: Dict[str, int] = {}
        with self._lock:
            for event in self._events:
                totals[event.kind] = totals.get(event.kind, 0) + 1
        return totals

    def summary(self) -> str:
        """One-line human form, e.g. ``"retry=2 degrade=1"`` (``""`` if empty)."""
        counts = self.counts()
        return " ".join(f"{kind}={counts[kind]}" for kind in EVENT_KINDS if kind in counts)


def call_with_crash_retry(
    fn: Callable[..., T],
    task: object,
    policy: FailurePolicy,
    events: EventLog,
    site: str = "task",
) -> T:
    """Run ``fn(task)`` in this process, retrying injected crashes.

    A ``crash`` fault firing in the coordinating process raises
    :class:`~repro.exceptions.InjectedWorkerCrash` instead of killing the
    interpreter; it is the in-process analogue of broken pool
    infrastructure, so it gets the same retry budget.  Genuine task
    exceptions propagate unchanged on the first occurrence.
    """
    attempt = 0
    while True:
        try:
            return fn(task)
        except InjectedWorkerCrash as exc:
            if attempt >= policy.max_retries:
                raise
            events.record("retry", site, attempt=attempt + 1, detail=str(exc))
            delay = policy.delay_s(attempt)
            if delay:
                time.sleep(delay)
            attempt += 1


def retry_io(
    fn: Callable[[], T],
    *,
    site: str,
    policy: Optional[FailurePolicy] = None,
    events: Optional[EventLog] = None,
    reset: Optional[Callable[[], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Run a single I/O operation under the policy's I/O retry budget.

    On an ``OSError``: record a ``retry`` event, run the optional ``reset`` hook
    (undo partial effects — e.g. truncate a half-appended file), back off,
    and call ``fn`` again.  After ``policy.io_retries`` retries the last
    exception propagates unchanged.
    """
    if policy is None:
        policy = DEFAULT_POLICY
    attempt = 0
    while True:
        try:
            return fn()
        except OSError as exc:
            if attempt >= policy.io_retries:
                raise
            if events is not None:
                events.record(
                    "retry",
                    site,
                    attempt=attempt + 1,
                    detail=f"{type(exc).__name__}: {exc}",
                )
            if reset is not None:
                reset()
            delay = policy.io_delay_s(attempt)
            if delay:
                sleep(delay)
            attempt += 1
