"""Recovery suite of the pipelined executor (DESIGN.md §14).

Pins down the executor's failure contract: a broken pool is respawned
and only the *uncommitted suffix* re-runs (the consumer still sees every
task exactly once, in order), the respawn budget degrades to a
deterministic in-process re-run, and stragglers are speculatively
re-executed under ``task_timeout_s``.
"""

import os
import time

import pytest

from repro.parallel.pipeline import PipelineExecutor
from repro.parallel.pool import process_pools_available
from repro.resilience import FailurePolicy

pool_required = pytest.mark.skipif(
    not process_pools_available(), reason="process pools unavailable here"
)

#: Millisecond backoffs: these tests exercise recovery, not pacing.
FAST = FailurePolicy(
    max_retries=2, backoff_s=0.001, max_backoff_s=0.002, jitter=0.0
)


def crash_worker_once(spec):
    """(value, sentinel_path): kill this worker process on the first sighting.

    The sentinel file is the cross-process "already crashed" flag, so the
    retry of the same task on the respawned pool succeeds.
    """
    value, sentinel = spec
    if value == 4 and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os._exit(1)
    return value * value


def crash_any_worker(spec):
    """(value, parent_pid): always kill worker processes on task 4.

    The parent-pid guard keeps the degraded in-process re-run (which
    executes in the coordinator) from killing the test process itself.
    """
    value, parent_pid = spec
    if value == 4 and os.getpid() != parent_pid:
        os._exit(1)
    return value * value


def straggle_in_workers(spec):
    """(value, parent_pid, delay): only worker processes are slow."""
    value, parent_pid, delay = spec
    if value == 0 and os.getpid() != parent_pid:
        time.sleep(delay)
    return value * value


@pool_required
class TestRespawn:
    def test_suffix_retried_each_task_consumed_exactly_once(self, tmp_path):
        sentinel = str(tmp_path / "crashed-once")
        consumed = []
        executor = PipelineExecutor(workers=2, policy=FAST)
        stats = executor.run(
            crash_worker_once,
            [(i, sentinel) for i in range(10)],
            consumed.append,
        )
        assert consumed == [i * i for i in range(10)]
        assert stats.committed == 10
        assert stats.execution_mode == "pipelined-pool"
        counts = executor.events.counts()
        assert counts.get("respawn", 0) >= 1
        assert "degrade" not in counts

    def test_budget_exhaustion_degrades_to_in_process(self):
        consumed = []
        policy = FailurePolicy(
            max_retries=1, backoff_s=0.001, max_backoff_s=0.002, jitter=0.0
        )
        executor = PipelineExecutor(workers=2, policy=policy)
        stats = executor.run(
            crash_any_worker,
            [(i, os.getpid()) for i in range(8)],
            consumed.append,
        )
        # The run still finishes, in order, exactly once per task — the
        # ladder stepped down instead of surfacing the crash.
        assert consumed == [i * i for i in range(8)]
        assert stats.committed == 8
        counts = executor.events.counts()
        assert counts.get("respawn") == 1
        assert counts.get("degrade") == 1


@pool_required
class TestStragglerSpeculation:
    def test_overdue_task_re_executed_inline(self):
        consumed = []
        policy = FailurePolicy(
            backoff_s=0.001, max_backoff_s=0.002, jitter=0.0, task_timeout_s=0.05
        )
        executor = PipelineExecutor(workers=2, policy=policy)
        stats = executor.run(
            straggle_in_workers,
            [(i, os.getpid(), 0.5) for i in range(4)],
            consumed.append,
        )
        assert consumed == [i * i for i in range(4)]
        assert stats.committed == 4
        assert executor.events.counts().get("timeout", 0) >= 1

    def test_no_timeout_policy_never_speculates(self):
        consumed = []
        executor = PipelineExecutor(workers=2, policy=FAST)
        executor.run(
            straggle_in_workers,
            [(i, os.getpid(), 0.05) for i in range(4)],
            consumed.append,
        )
        assert consumed == [i * i for i in range(4)]
        assert len(executor.events) == 0
