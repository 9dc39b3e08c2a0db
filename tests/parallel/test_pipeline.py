"""Unit suite of the pipelined as-completed executor (DESIGN.md §9).

Pins down the engine's contract: consumer sees results in task (stream)
order under every mode, at most ``max_inflight`` tasks are
submitted-but-uncommitted, task exceptions propagate unchanged, and
``workers=0`` is the deterministic in-process reference.
"""

import time

import pytest

from repro.exceptions import ParallelMiningError
from repro.parallel.pipeline import (
    PipelineExecutor,
    default_max_inflight,
)
from repro.parallel.pool import process_pools_available

pool_required = pytest.mark.skipif(
    not process_pools_available(), reason="process pools unavailable here"
)


def square(value):
    return value * value


def sleep_then_square(spec):
    """(value, delay) -> value**2 after sleeping; later tasks finish first."""
    value, delay = spec
    time.sleep(delay)
    return value * value


def fail_on_negative(value):
    if value < 0:
        raise ValueError(f"bad task {value}")
    return value


class TestInProcessMode:
    def test_results_committed_in_task_order(self):
        consumed = []
        executor = PipelineExecutor(workers=0)
        stats = executor.run(square, range(10), consumed.append)
        assert consumed == [i * i for i in range(10)]
        assert stats.execution_mode == "in-process"
        assert stats.tasks == stats.committed == 10
        assert stats.peak_inflight == 1  # compute-then-commit, one at a time

    def test_initializer_runs_once_before_tasks(self):
        calls = []
        executor = PipelineExecutor(workers=0)
        executor.run(
            square,
            [1, 2],
            lambda result: calls.append(("result", result)),
            initializer=lambda tag: calls.append(("init", tag)),
            initargs=("ctx",),
        )
        assert calls == [("init", "ctx"), ("result", 1), ("result", 4)]

    def test_empty_plan(self):
        consumed = []
        stats = PipelineExecutor(workers=0).run(square, [], consumed.append)
        assert consumed == []
        assert stats.tasks == stats.committed == stats.peak_inflight == 0

    def test_task_exception_propagates(self):
        consumed = []
        with pytest.raises(ValueError, match="bad task -1"):
            PipelineExecutor(workers=0).run(
                fail_on_negative, [0, 1, -1, 2], consumed.append
            )
        assert consumed == [0, 1]  # everything before the failure committed

    def test_consumer_exception_propagates(self):
        def consumer(result):
            raise RuntimeError("consumer broke")

        with pytest.raises(RuntimeError, match="consumer broke"):
            PipelineExecutor(workers=0).run(square, [1], consumer)


class TestPoolMode:
    @pool_required
    def test_out_of_order_completions_reordered(self):
        # The first tasks sleep longest, so later tasks complete first;
        # the consumer must still see strict stream order.
        specs = [(i, 0.12 - 0.02 * i) for i in range(6)]
        consumed = []
        executor = PipelineExecutor(workers=2, max_inflight=6)
        stats = executor.run(sleep_then_square, specs, consumed.append)
        assert consumed == [i * i for i in range(6)]
        assert stats.execution_mode == "pipelined-pool"
        assert stats.committed == 6

    @pool_required
    @pytest.mark.parametrize("max_inflight", [1, 2, 3])
    def test_inflight_accounting_bounded(self, max_inflight):
        consumed = []
        executor = PipelineExecutor(workers=2, max_inflight=max_inflight)
        stats = executor.run(square, range(8), consumed.append)
        assert consumed == [i * i for i in range(8)]
        assert stats.committed == 8
        assert 1 <= stats.peak_inflight <= max_inflight

    @pool_required
    def test_matches_in_process_reference(self):
        reference = []
        PipelineExecutor(workers=0).run(square, range(12), reference.append)
        for max_inflight in (1, 2, 8):
            consumed = []
            PipelineExecutor(workers=2, max_inflight=max_inflight).run(
                square, range(12), consumed.append
            )
            assert consumed == reference

    @pool_required
    def test_worker_exception_propagates_and_cancels(self):
        consumed = []
        with pytest.raises(ValueError, match="bad task -5"):
            PipelineExecutor(workers=2, max_inflight=2).run(
                fail_on_negative, [0, 1, -5, 2, 3, 4], consumed.append
            )
        # Commits are ordered, so whatever reached the consumer is a strict
        # prefix of the pre-failure stream.
        assert consumed == [0, 1][: len(consumed)]

    @pool_required
    def test_lazy_plan_is_not_materialised(self):
        pulled = []

        def plan():
            for index in range(6):
                pulled.append(index)
                yield index

        consumed = []
        PipelineExecutor(workers=2, max_inflight=2).run(
            square, plan(), consumed.append
        )
        assert consumed == [i * i for i in range(6)]
        assert pulled == list(range(6))  # all pulled, but only on credit

    @pool_required
    @pytest.mark.parametrize("workers", [0, 1])
    def test_a_failed_read_is_raised_after_every_task_read_before_it(self, workers):
        """Task 4 is still running when reading task 5 fails: it commits first."""

        def plan():
            for index in range(5):
                yield (index, 0.3 if index == 4 else 0.0)
            raise ValueError("unreadable input")

        consumed = []
        with pytest.raises(ValueError, match="unreadable input"):
            PipelineExecutor(workers=workers, max_inflight=2).run(
                sleep_then_square, plan(), consumed.append
            )
        assert consumed == [i * i for i in range(5)]


class TestConfiguration:
    def test_negative_workers_rejected(self):
        with pytest.raises(ParallelMiningError):
            PipelineExecutor(workers=-1)

    def test_zero_max_inflight_rejected(self):
        with pytest.raises(ParallelMiningError):
            PipelineExecutor(workers=1, max_inflight=0)

    def test_default_max_inflight(self):
        assert default_max_inflight(0) == 1
        assert default_max_inflight(1) == 2
        assert default_max_inflight(4) == 8
        assert PipelineExecutor(workers=3).max_inflight == 6
        assert PipelineExecutor(workers=3, max_inflight=1).max_inflight == 1
