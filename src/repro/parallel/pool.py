"""Process pools for the pipelined executor (DESIGN.md §9, §11).

:class:`PersistentWorkerPool` keeps one ``ProcessPoolExecutor`` alive
across runs, so a miner that mines every window slide pays the process
spawn once per watch instead of once per slide.
:func:`process_pools_available` detects — once, with a cheap probe —
environments where process pools cannot work at all (restricted
sandboxes), which then run every plan in-process; and
:func:`effective_workers` is the pool-skip heuristic that keeps
single-task plans off the pool entirely.  Either way the answer is
byte-identical: only *where* the work runs changes.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Optional

from repro.exceptions import ParallelMiningError

#: Cached result of the one-time pool-viability probe (None = not probed).
_POOLS_AVAILABLE: Optional[bool] = None


def _probe(value: int) -> int:
    """Trivial picklable task used to probe pool viability."""
    return value


def effective_workers(workers: int, num_tasks: int) -> int:
    """The pool-skip heuristic (DESIGN.md §11): workers actually worth using.

    A plan with at most one task gains nothing from a pool — it pays one
    process round trip to run exactly the sequential work — so it runs
    in-process (``0``); larger plans never get more workers than tasks.
    The in-process mode is byte-identical to the pool mode, so this only
    changes *where* the work runs, never the answer.
    """
    if workers <= 0 or num_tasks <= 1:
        return 0
    return min(workers, num_tasks)


def process_pools_available() -> bool:
    """Whether this interpreter can run a working process pool.

    Probed once per process with a single round-trip task: semaphore or
    queue creation failures (the way restricted sandboxes typically break
    multiprocessing) surface here instead of mid-mining.
    """
    global _POOLS_AVAILABLE
    if _POOLS_AVAILABLE is None:
        try:
            with ProcessPoolExecutor(max_workers=1) as executor:
                _POOLS_AVAILABLE = executor.submit(_probe, 1).result(timeout=60) == 1
        except Exception:  # noqa: BLE001 - any failure means "no pools here"
            _POOLS_AVAILABLE = False
    return _POOLS_AVAILABLE


class PersistentWorkerPool:
    """A reusable process pool that outlives individual runs (DESIGN.md §11).

    ``ProcessPoolExecutor`` creation costs one process spawn per worker;
    paying it per mining call is what made small parallel runs lose to the
    sequential reference.  This pool spawns its executor lazily on first
    use and keeps it alive across runs — a miner that mines every window
    slide amortises the spawn over the whole watch — until :meth:`close`
    shuts it down.

    Because the executor persists, per-run state cannot ship through a
    pool initializer (initializers bind at executor creation).  Runs on a
    persistent pool therefore attach their state to the tasks themselves;
    the workers' per-context caches keep that cheap (the window is rebuilt
    once per worker per run, not once per task).

    A run that finds the pool's infrastructure broken calls
    :meth:`mark_broken`; the dead executor is discarded and the next use
    spawns a fresh one.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ParallelMiningError(
                f"a persistent pool needs at least 1 worker, got {workers}"
            )
        self._workers = workers
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False
        #: How many executors this pool has spawned (1 after first use;
        #: increments only when a broken executor is replaced).
        self.spawn_count = 0

    @property
    def workers(self) -> int:
        """The configured worker count."""
        return self._workers

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def executor(self) -> ProcessPoolExecutor:
        """The live executor, spawning (or respawning) it when needed."""
        if self._closed:
            raise ParallelMiningError("the persistent worker pool is closed")
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self._workers)
            self.spawn_count += 1
        return self._executor

    def mark_broken(self) -> None:
        """Discard a broken executor so the next run gets a fresh one."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def close(self) -> None:
        """Shut the worker processes down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "PersistentWorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
