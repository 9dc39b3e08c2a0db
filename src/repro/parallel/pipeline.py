"""The pipelined as-completed execution engine (DESIGN.md §9, §14).

A barrier map (``Executor.map`` collected into a list) materialises
every task result before the first one is consumed, so the coordinator
sits idle while workers encode and peak memory grows with the *plan*,
not with the *parallelism*.  The :class:`PipelineExecutor` replaces that barrier with
a credit-based producer/consumer pipeline:

* at most ``max_inflight`` tasks are submitted-but-uncommitted at any
  moment, so the number of concurrently resident results is bounded by
  ``max_inflight`` regardless of stream length;
* completions are reordered back into **task (stream) order** and handed
  to a consumer callback as soon as every predecessor has been consumed —
  commits therefore overlap with the encoding of later tasks;
* ``workers=0`` runs the identical plan in this process, one task at a
  time (compute, then immediately consume), which is the deterministic
  reference mode the parity suites compare against.

The consumer sees exactly the sequence ``fn(task_0), fn(task_1), ...`` in
that order under every ``workers``/``max_inflight`` combination — only
the interleaving with task execution changes.  Exceptions raised by tasks
propagate unchanged (remaining submissions are cancelled first).  An
exception raised while *reading* the next task ends the input instead: it
propagates once every task read before it has been consumed, as it would
from a sequential loop.

Recovery is governed by the unified :class:`~repro.resilience.FailurePolicy`
(DESIGN.md §14).  Broken pool infrastructure (an OOM-killed or crashed
worker) is retried at **task granularity**: the executor is respawned and
only the uncommitted suffix is resubmitted, up to ``max_retries`` rounds
with backoff, before stepping down the degradation ladder to an
in-process re-run of that suffix.  When ``task_timeout_s`` is set, a task
whose result has not arrived within the limit is treated as a straggler
and speculatively re-executed in the coordinating process; whichever copy
finishes first wins, the other is discarded.  Every respawn, degrade and
timeout is recorded on the executor's :class:`~repro.resilience.EventLog`.
"""

from __future__ import annotations

import itertools
import time
from contextlib import closing
from concurrent.futures import FIRST_COMPLETED, Executor, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, Generic, Iterable, Iterator, Optional, Set, Tuple, TypeVar

from repro.exceptions import ParallelMiningError
from repro.parallel.pool import PersistentWorkerPool, process_pools_available
from repro.resilience import (
    DEFAULT_POLICY,
    EventLog,
    FailurePolicy,
    call_with_crash_retry,
)

Task = TypeVar("Task")
Result = TypeVar("Result")


class _TaskInput(Generic[Task]):
    """The tasks of one run; a failed read ends them and is kept for later."""

    def __init__(self, tasks: Iterable[Task]) -> None:
        self._tasks = iter(tasks)
        self.error: Optional[Exception] = None

    def __iter__(self) -> "_TaskInput[Task]":
        return self

    def __next__(self) -> Task:
        if self.error is not None:
            raise StopIteration
        try:
            return next(self._tasks)
        except StopIteration:
            raise
        except Exception as exc:  # noqa: BLE001 - raised after the tasks read before it
            self.error = exc
            raise StopIteration from None

#: In-flight credits granted per worker when ``max_inflight`` is omitted:
#: one task executing plus one queued/awaiting commit keeps every worker
#: busy without letting results pile up.
DEFAULT_INFLIGHT_PER_WORKER = 2


def default_max_inflight(workers: int) -> int:
    """The default in-flight bound for ``workers`` worker processes."""
    return max(1, DEFAULT_INFLIGHT_PER_WORKER * workers)


@dataclass
class PipelineStats:
    """What one pipelined run did (exposed for reports and assertions)."""

    #: Tasks pulled from the plan.
    tasks: int = 0
    #: Results handed to the consumer (equals ``tasks`` on success).
    committed: int = 0
    #: High-water mark of submitted-but-uncommitted tasks — the number of
    #: concurrently resident results never exceeds this.
    peak_inflight: int = 0
    #: ``"in-process"`` or ``"pipelined-pool"``.
    execution_mode: str = "in-process"


class PipelineExecutor:
    """Run picklable tasks with bounded in-flight work and ordered commits.

    Parameters
    ----------
    workers:
        ``0`` — execute tasks sequentially in this process (deterministic
        reference mode); ``n >= 1`` — schedule onto a process pool of
        ``n`` workers, committing completions in stream order as they
        become contiguous.
    max_inflight:
        Maximum number of submitted-but-uncommitted tasks.  Defaults to
        ``2 * workers`` (minimum 1); ``1`` degenerates to lock-step
        submit/commit, larger values trade memory for overlap.
    pool:
        Optional :class:`~repro.parallel.pool.PersistentWorkerPool` to
        schedule onto instead of a run-scoped executor (DESIGN.md §11).
        The pool is *borrowed*: this executor never shuts it down.  A
        broken executor is reported back via ``pool.mark_broken()`` and a
        fresh one requested for the retry round.  Because a persistent
        pool's workers outlive the run, per-run ``initializer``/
        ``initargs`` cannot be used with one — runs must ship their state
        on the tasks themselves.
    policy:
        The :class:`~repro.resilience.FailurePolicy` governing respawn
        retries, backoff and straggler timeouts (defaults to
        :data:`~repro.resilience.DEFAULT_POLICY`).
    events:
        Shared :class:`~repro.resilience.EventLog` to record recovery
        decisions on (a private log is created when omitted; it is
        exposed as :attr:`events`).
    """

    def __init__(
        self,
        workers: int,
        max_inflight: Optional[int] = None,
        pool: Optional[PersistentWorkerPool] = None,
        policy: Optional[FailurePolicy] = None,
        events: Optional[EventLog] = None,
    ) -> None:
        if workers < 0:
            raise ParallelMiningError(
                f"workers must be non-negative, got {workers}"
            )
        if max_inflight is None:
            max_inflight = default_max_inflight(workers)
        if max_inflight < 1:
            raise ParallelMiningError(
                f"max_inflight must be at least 1, got {max_inflight}"
            )
        self._workers = workers
        self._max_inflight = max_inflight
        self._pool = pool
        self._policy = policy if policy is not None else DEFAULT_POLICY
        #: Recovery decisions made by this executor's runs.
        self.events = events if events is not None else EventLog()
        #: Stats of the last :meth:`run` call.
        self.last_stats = PipelineStats()

    @property
    def workers(self) -> int:
        """The configured worker count (0 = in-process)."""
        return self._workers

    @property
    def max_inflight(self) -> int:
        """The configured bound on submitted-but-uncommitted tasks."""
        return self._max_inflight

    @property
    def policy(self) -> FailurePolicy:
        """The failure policy governing this executor's recovery."""
        return self._policy

    def run(
        self,
        fn: Callable[[Task], Result],
        tasks: Iterable[Task],
        consumer: Callable[[Result], None],
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple = (),
    ) -> PipelineStats:
        """Execute ``fn`` over ``tasks``, feeding results to ``consumer`` in order.

        ``tasks`` may be any iterable; it is pulled lazily, one task per
        granted in-flight credit, so an arbitrarily long plan never has
        more than ``max_inflight`` results resident at once.
        ``initializer``/``initargs`` run once per worker process (and once
        in this process for the in-process mode).
        """
        with closing(self.iterate(fn, tasks, initializer, initargs)) as results:
            for result in results:
                consumer(result)
        return self.last_stats

    def iterate(
        self,
        fn: Callable[[Task], Result],
        tasks: Iterable[Task],
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple = (),
        downstream: Optional[Callable[[], int]] = None,
    ) -> Iterator[Result]:
        """The results of :meth:`run`, yielded in task order instead of pushed.

        A task's result counts as committed once the caller pulls the next
        one, so the caller's work on a result runs while later tasks
        execute — exactly as a :meth:`run` consumer does.  ``downstream``,
        when given, reports how many already-yielded results the caller
        still holds in a later pipeline stage; they count against
        ``max_inflight`` too, so the two stages together never hold more
        than ``max_inflight`` tasks (DESIGN.md §9).  An error raised by
        ``tasks`` itself is raised after the results of every task read
        before it.
        """
        stats = PipelineStats()
        self.last_stats = stats
        iterator = _TaskInput(tasks)
        held = downstream if downstream is not None else (lambda: 0)
        if self._workers == 0 or not process_pools_available():
            yield from self._run_in_process(fn, iterator, initializer, initargs, stats)
        else:
            if self._pool is not None and initializer is not None:
                raise ParallelMiningError(
                    "a persistent pool cannot run per-run initializers; "
                    "attach the run's state to its tasks instead"
                )
            yield from self._run_pool(fn, iterator, initializer, initargs, stats, held)
        if iterator.error is not None:
            raise iterator.error

    # ------------------------------------------------------------------ #
    # execution modes
    # ------------------------------------------------------------------ #
    def _run_in_process(
        self,
        fn: Callable[[Task], Result],
        iterator: Iterator[Task],
        initializer: Optional[Callable[..., None]],
        initargs: Tuple,
        stats: PipelineStats,
    ) -> Iterator[Result]:
        stats.execution_mode = "in-process"
        if initializer is not None:
            initializer(*initargs)
        for task in iterator:
            stats.tasks += 1
            stats.peak_inflight = max(stats.peak_inflight, 1)
            yield call_with_crash_retry(fn, task, self._policy, self.events)
            stats.committed += 1

    def _run_pool(
        self,
        fn: Callable[[Task], Result],
        iterator: Iterator[Task],
        initializer: Optional[Callable[..., None]],
        initargs: Tuple,
        stats: PipelineStats,
        held: Callable[[], int],
    ) -> Iterator[Result]:
        stats.execution_mode = "pipelined-pool"
        pending_tasks: Dict[int, Task] = {}  # uncommitted task payloads
        respawns = 0
        while True:
            try:
                if self._pool is not None:
                    # Borrowed persistent executor: never shut down here,
                    # and the workers were initialised (if at all) long
                    # ago — run state travels on the tasks.
                    yield from self._drive(
                        self._pool.executor(), fn, iterator, stats, pending_tasks, held
                    )
                else:
                    with ProcessPoolExecutor(
                        max_workers=self._workers,
                        initializer=initializer,
                        initargs=initargs,
                    ) as executor:
                        yield from self._drive(
                            executor, fn, iterator, stats, pending_tasks, held
                        )
                return
            except BrokenProcessPool:
                # Pool infrastructure died mid-run (e.g. an OOM-killed
                # worker).  Committed results are final; the uncommitted
                # suffix (retained task payloads, then the untouched
                # remainder of the plan) is retried at task granularity on
                # a fresh executor, up to the policy's retry budget, before
                # degrading to a deterministic in-process re-run.  Task
                # exceptions are NOT caught here: they propagate from
                # future.result() inside _drive.
                if self._pool is not None:
                    self._pool.mark_broken()
                suffix = [pending_tasks[index] for index in sorted(pending_tasks)]
                pending_tasks.clear()
                stats.tasks -= len(suffix)
                iterator = itertools.chain(suffix, iterator)
                if respawns >= self._policy.max_retries:
                    self.events.record(
                        "degrade",
                        "pool",
                        attempt=respawns,
                        detail="pool -> in-process (respawn budget exhausted)",
                    )
                    yield from self._run_in_process(
                        fn, iterator, initializer, initargs, stats
                    )
                    return
                respawns += 1
                self.events.record(
                    "respawn",
                    "pool",
                    attempt=respawns,
                    detail=f"retrying {len(suffix)} uncommitted task(s) "
                    "on a fresh pool",
                )
                delay = self._policy.delay_s(respawns - 1)
                if delay:
                    time.sleep(delay)

    def _drive(
        self,
        executor: Executor,
        fn: Callable[[Task], Result],
        iterator: Iterator[Task],
        stats: PipelineStats,
        pending_tasks: Dict[int, Task],
        held: Callable[[], int],
    ) -> Iterator[Result]:
        # After a respawn, committed results are final and every committed
        # index was popped from pending_tasks, so both counters line up:
        # the next index to submit is stats.tasks and the next owed to the
        # consumer is stats.committed.
        next_commit = stats.committed
        inflight: Dict[Future[Result], int] = {}
        superseded: Set[int] = set()  # stragglers re-executed speculatively
        ready: Dict[int, Result] = {}  # completed out-of-order results
        exhausted = False
        try:
            while True:
                # Grant credits: keep at most max_inflight tasks
                # submitted-but-uncommitted (executing, queued, or
                # completed and waiting for a predecessor), counting the
                # results a later stage still holds.
                while (
                    not exhausted
                    and stats.tasks - stats.committed + held() < self._max_inflight
                ):
                    try:
                        task = next(iterator)
                    except StopIteration:
                        exhausted = True
                        break
                    # Count the task before submitting: if submit
                    # itself dies (broken pool), the recovery math
                    # in _run_pool still sees a consistent pending set.
                    index = stats.tasks
                    pending_tasks[index] = task
                    stats.tasks += 1
                    inflight[executor.submit(fn, task)] = index
                stats.peak_inflight = max(
                    stats.peak_inflight, stats.tasks - stats.committed + held()
                )
                if exhausted and not pending_tasks and not ready:
                    # Everything committed.  Superseded stragglers may
                    # still be running; their results are no longer
                    # wanted.
                    for future in inflight:
                        future.cancel()
                    break
                if inflight:
                    done, _ = wait(
                        inflight,
                        timeout=self._policy.task_timeout_s,
                        return_when=FIRST_COMPLETED,
                    )
                    for future in done:
                        index = inflight.pop(future)
                        if index in superseded:
                            # The speculative copy already produced this
                            # index's result; whatever the slow copy did
                            # (including raising) is discarded.
                            continue
                        ready[index] = future.result()
                    if not done and self._policy.task_timeout_s is not None:
                        self._speculate(
                            fn, inflight, superseded, ready, pending_tasks
                        )
                # Commit the contiguous prefix: each commit releases
                # a credit, so the submit loop refills immediately.
                while next_commit in ready:
                    result = ready.pop(next_commit)
                    pending_tasks.pop(next_commit)
                    yield result
                    next_commit += 1
                    stats.committed += 1
        except BaseException:
            # A task (or the caller, which closes this generator) failed,
            # or the pool broke: nothing submitted after the failure may
            # commit.  Cancel what has not
            # started so shutdown does not drain a doomed queue (a respawn
            # re-executes the uncommitted tasks from scratch).
            for future in inflight:
                future.cancel()
            raise

    def _speculate(
        self,
        fn: Callable[[Task], Result],
        inflight: Dict[Future[Result], int],
        superseded: Set[int],
        ready: Dict[int, Result],
        pending_tasks: Dict[int, Task],
    ) -> None:
        """Straggler mitigation: re-run the oldest overdue task inline.

        The whole in-flight window exceeded ``task_timeout_s`` without a
        single completion.  The task the consumer is waiting on hardest —
        the lowest uncommitted index still on a worker — is re-executed in
        this process; its eventual worker result is marked superseded and
        discarded.  One speculation per timeout round bounds duplicated
        work.
        """
        candidates = [i for i in inflight.values() if i not in superseded]
        if not candidates:
            return
        index = min(candidates)
        self.events.record(
            "timeout",
            "task",
            attempt=0,
            detail=f"task {index} exceeded {self._policy.task_timeout_s}s; "
            "re-executing in-process",
        )
        superseded.add(index)
        ready[index] = call_with_crash_retry(
            fn, pending_tasks[index], self._policy, self.events
        )
