"""Seeded, deterministic fault injection (DESIGN.md §14).

Production failure modes — a worker segfaulting on its Nth task, a
straggling encode, a disk returning ``EIO`` mid-append, a client hanging up mid-response — are rare
by construction, which makes the recovery code the least-tested code in
the system.  This module makes them *injectable on demand and exactly
reproducible*: a :class:`FaultPlan` names instrumented call sites and the
hit counts at which they must fail, the plan travels to worker processes
through one environment variable, and every instrumented site costs a
single dictionary lookup when no plan is armed.

Spec grammar (``;``-separated specs, whitespace ignored)::

    SITE@AT[xTIMES][:ACTION][~DELAY]

    journal.write@2           raise at the 2nd hit of journal.write
    segment.write@1x3         raise at hits 1, 2 and 3
    mine.shard@2:crash        hard-kill the worker at its 2nd mining task
    ingest.encode@1:sleep~0.2 sleep 0.2s before the 1st encode returns

``AT`` is the 1-based hit number at which the fault starts firing and
``TIMES`` (default 1) is how many consecutive hits fail.  Actions:

``raise``
    (default) raise the exception type the call site would see from the
    real failure — ``OSError`` for disk writes — so recovery code cannot
    tell injected from real.
``crash``
    ``os._exit(77)`` when running in a spawned worker process (surfaces
    to the coordinator as ``BrokenProcessPool``); raise
    :class:`~repro.exceptions.InjectedWorkerCrash` when running in the
    coordinating process itself, which the execution engine retries under
    the same policy.
``sleep``
    block for ``DELAY`` seconds (default 0.05), then continue normally —
    a straggler, not a failure.  ``~DELAY`` is accepted on ``sleep`` only;
    on any other action it is a :class:`~repro.exceptions.FaultSpecError`
    rather than a delay silently dropped.

Numbers are ASCII digits.  ``FaultPlan.to_text`` writes a plan back so
that ``parse_fault_plan(plan.to_text()) == plan`` — it is also how a plan
reaches worker processes.

Hit counters are **per process** and **per site**: a respawned worker
starts counting from zero again, exactly like a fresh process losing its
in-memory state would.  Determinism therefore holds per schedule, not per
wall clock — the same plan against the same run produces the same fault
sequence.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import re
import threading
import time
from dataclasses import dataclass
from decimal import Decimal
from typing import Dict, Optional, Tuple, Type, Union

from repro.exceptions import FaultSpecError, InjectedWorkerCrash

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "ENV_VAR",
    "active_plan",
    "hits",
    "install_plan",
    "parse_fault_plan",
    "reset_counters",
    "trip",
    "uninstall_plan",
]

#: Environment variable through which an armed plan reaches worker
#: processes (``ProcessPoolExecutor`` children inherit the environment).
ENV_VAR = "REPRO_FAULTS"

#: Exit status used by the ``crash`` action in worker processes; chosen
#: to be distinguishable from normal pool-teardown statuses in debugging.
CRASH_EXIT_STATUS = 77

_ACTIONS = ("raise", "crash", "sleep")

#: Seconds a ``sleep`` fault blocks when the spec gives no ``~DELAY``.
DEFAULT_DELAY_S = 0.05

#: Instrumented call sites (the authoritative list; ``trip`` accepts any
#: string so layers can add sites without editing this module, but specs
#: naming unknown sites are rejected to catch typos in chaos schedules).
SITES = (
    "mine.shard",  # parallel/worker.run_mining_shard and run_mining_slide
    "ingest.encode",  # ingest/worker.encode_chunk
    "journal.write",  # history/journal.DiskJournal._persist
    "checkpoint.write",  # checkpoint/snapshot.CheckpointManager.seal
    "segment.write",  # ingest/coordinator.WindowCoordinator commit
    "http.response",  # serve/http response write
)

_SPEC_RE = re.compile(
    r"""^
    (?P<site>[a-z][a-z0-9_.-]*)
    @(?P<at>[0-9]+)
    (?:x(?P<times>[0-9]+))?
    (?::(?P<action>[a-z]+))?
    (?:~(?P<delay>[0-9]+(?:\.[0-9]+)?))?
    $""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: fail ``site`` at hits ``at .. at+times-1``."""

    site: str
    at: int
    times: int = 1
    action: str = "raise"
    delay_s: float = DEFAULT_DELAY_S

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise FaultSpecError(
                f"unknown fault site {self.site!r}; known sites: {', '.join(SITES)}"
            )
        if self.at < 1:
            raise FaultSpecError(f"fault hit number must be >= 1, got {self.at}")
        if self.times < 1:
            raise FaultSpecError(f"fault times must be >= 1, got {self.times}")
        if self.action not in _ACTIONS:
            raise FaultSpecError(
                f"unknown fault action {self.action!r}; one of {', '.join(_ACTIONS)}"
            )
        if not (math.isfinite(self.delay_s) and self.delay_s >= 0):
            raise FaultSpecError(
                f"fault delay must be finite and >= 0, got {self.delay_s}"
            )
        if self.action != "sleep" and self.delay_s != DEFAULT_DELAY_S:
            raise FaultSpecError(
                f"a fault delay applies to the sleep action only, not {self.action!r}"
            )

    def to_text(self) -> str:
        """The spec back in grammar form (``parse_fault_plan`` round-trips)."""
        text = f"{self.site}@{self.at}"
        if self.times != 1:
            text += f"x{self.times}"
        if self.action != "raise":
            text += f":{self.action}"
        if self.delay_s != DEFAULT_DELAY_S:
            text += f"~{_decimal_text(self.delay_s)}"
        return text

    def covers(self, hit: int) -> bool:
        """Whether this spec fires at the given 1-based hit number."""
        return self.at <= hit < self.at + self.times


def _decimal_text(value: float) -> str:
    """``value`` as a plain decimal (no exponent) that ``float`` reads back
    exactly: ``repr`` is the shortest exact form, ``Decimal`` unfolds it."""
    text = format(Decimal(repr(value)), "f")
    return text[:-2] if text.endswith(".0") else text


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of fault specs, at most one per site."""

    specs: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for spec in self.specs:
            if spec.site in seen:
                raise FaultSpecError(
                    f"duplicate fault spec for site {spec.site!r} "
                    "(one spec per site; use xTIMES for repeated failures)"
                )
            seen.add(spec.site)

    def to_text(self) -> str:
        """The whole plan in grammar form."""
        return ";".join(spec.to_text() for spec in self.specs)

    def for_site(self, site: str) -> Optional[FaultSpec]:
        """The spec armed for ``site``, if any."""
        for spec in self.specs:
            if spec.site == site:
                return spec
        return None


def parse_fault_plan(text: str) -> FaultPlan:
    """Parse ``;``-separated specs into a :class:`FaultPlan`.

    Raises :class:`~repro.exceptions.FaultSpecError` on malformed specs,
    unknown sites or actions, and duplicate sites.
    """
    specs = []
    for raw in text.split(";"):
        part = raw.strip()
        if not part:
            continue
        match = _SPEC_RE.match(part)
        if match is None:
            raise FaultSpecError(
                f"malformed fault spec {part!r} "
                "(expected SITE@AT[xTIMES][:ACTION][~DELAY])"
            )
        action = match.group("action") or "raise"
        delay = match.group("delay")
        if delay is not None and action != "sleep":
            raise FaultSpecError(
                f"malformed fault spec {part!r}: ~DELAY applies to the sleep action only"
            )
        try:
            at = int(match.group("at"))
            times = int(match.group("times") or 1)
        except ValueError as exc:  # more digits than int() converts
            raise FaultSpecError(f"malformed fault spec {part!r}: {exc}") from None
        specs.append(
            FaultSpec(
                site=match.group("site"),
                at=at,
                times=times,
                action=action,
                delay_s=float(delay) if delay is not None else DEFAULT_DELAY_S,
            )
        )
    return FaultPlan(tuple(specs))


# --------------------------------------------------------------------- #
# process-wide armed plan + hit counters
# --------------------------------------------------------------------- #
_LOCK = threading.Lock()
_PLAN: Optional[FaultPlan] = None
_HITS: Dict[str, int] = {}
#: Memoised parse of the environment value (workers arm lazily from it).
_ENV_CACHE: Optional[Tuple[str, FaultPlan]] = None


def install_plan(plan: Union[FaultPlan, str, None]) -> Optional[FaultPlan]:
    """Arm ``plan`` process-wide and export it to future worker processes.

    Accepts a :class:`FaultPlan`, a spec string, or ``None``/empty
    (equivalent to :func:`uninstall_plan`).  Hit counters reset.  Returns
    the armed plan.
    """
    if isinstance(plan, str):
        plan = parse_fault_plan(plan)
    if plan is not None and not plan.specs:
        plan = None
    global _PLAN
    with _LOCK:
        _PLAN = plan
        _HITS.clear()
        if plan is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = plan.to_text()
    return plan


def uninstall_plan() -> None:
    """Disarm fault injection and clear the environment export."""
    install_plan(None)


def reset_counters() -> None:
    """Zero every hit counter (the armed plan stays armed)."""
    with _LOCK:
        _HITS.clear()


def hits(site: str) -> int:
    """How many times ``site`` has been reached in this process."""
    with _LOCK:
        return _HITS.get(site, 0)


def active_plan() -> Optional[FaultPlan]:
    """The armed plan: installed explicitly, or inherited via the environment."""
    if _PLAN is not None:
        return _PLAN
    env = os.environ.get(ENV_VAR)
    if not env:
        return None
    global _ENV_CACHE
    if _ENV_CACHE is None or _ENV_CACHE[0] != env:
        try:
            _ENV_CACHE = (env, parse_fault_plan(env))
        except FaultSpecError:
            # A malformed inherited value must not take down a worker that
            # never asked for faults; a fresh install_plan validates loudly.
            _ENV_CACHE = (env, FaultPlan())
    return _ENV_CACHE[1]


def _in_worker_process() -> bool:
    return multiprocessing.parent_process() is not None


def trip(site: str, exception: Type[BaseException] = RuntimeError) -> None:
    """Fault-injection point: fail here if the armed plan says so.

    ``exception`` is the type the call site would see from the *real*
    failure (``OSError`` for disk writes); ``raise`` faults use it so
    recovery code downstream cannot distinguish injected failures from
    genuine ones.  No-op (one dict lookup) when no plan is armed or the
    site is not in the plan.
    """
    plan = active_plan()
    if plan is None:
        return
    spec = plan.for_site(site)
    if spec is None:
        return
    with _LOCK:
        hit = _HITS.get(site, 0) + 1
        _HITS[site] = hit
    if not spec.covers(hit):
        return
    if spec.action == "sleep":
        time.sleep(spec.delay_s)
        return
    if spec.action == "crash":
        if _in_worker_process():
            # A real worker dies without cleanup, like a segfault or an
            # OOM kill; the coordinator sees BrokenProcessPool.
            os._exit(CRASH_EXIT_STATUS)
        raise InjectedWorkerCrash(
            f"injected fault: crash at {site} (hit {hit}) in coordinating process"
        )
    raise exception(f"injected fault: {site} (hit {hit})")
