"""Unit tests of the unified failure policy and resilience event log.

The policy's backoff is exponential, capped, and *deterministically*
jittered; the event log is append-only and summarisable; the two retry
helpers honour the policy's budgets and record one event per decision.
"""

import pytest

from repro.exceptions import InjectedWorkerCrash, ResilienceError
from repro.resilience import (
    DEFAULT_POLICY,
    DEGRADATION_LADDER,
    EventLog,
    FailurePolicy,
    call_with_crash_retry,
    retry_io,
)


class TestFailurePolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"backoff_s": -0.1},
            {"backoff_factor": 0.5},
            {"backoff_s": 2.0, "max_backoff_s": 1.0},
            {"jitter": 1.0},
            {"jitter": -0.1},
            {"task_timeout_s": 0.0},
            {"io_retries": -1},
            {"io_backoff_s": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ResilienceError):
            FailurePolicy(**kwargs)

    def test_delays_are_deterministic_for_a_seed(self):
        policy = FailurePolicy(seed=42)
        again = FailurePolicy(seed=42)
        assert [policy.delay_s(i) for i in range(5)] == [
            again.delay_s(i) for i in range(5)
        ]

    def test_delays_grow_and_cap(self):
        policy = FailurePolicy(
            backoff_s=0.1, backoff_factor=2.0, max_backoff_s=0.3, jitter=0.0
        )
        assert [policy.delay_s(i) for i in range(4)] == [0.1, 0.2, 0.3, 0.3]

    def test_jitter_stays_within_the_band(self):
        policy = FailurePolicy(backoff_s=1.0, max_backoff_s=1.0, jitter=0.25)
        for attempt in range(20):
            assert 0.75 <= policy.delay_s(attempt) <= 1.25

    def test_io_delay_uses_the_io_base(self):
        policy = FailurePolicy(
            backoff_s=1.0, io_backoff_s=0.01, backoff_factor=2.0,
            max_backoff_s=4.0, jitter=0.0,
        )
        assert policy.io_delay_s(0) == 0.01
        assert policy.io_delay_s(1) == 0.02

    def test_degradation_ladder_is_ordered(self):
        assert DEGRADATION_LADDER == ("pool", "in-process")

    def test_default_policy_is_usable(self):
        assert DEFAULT_POLICY.max_retries == 2
        assert DEFAULT_POLICY.task_timeout_s is None


class TestEventLog:
    def test_record_and_read_back(self):
        log = EventLog()
        log.record("retry", "journal.write", attempt=1, detail="EIO")
        log.record("degrade", "pool")
        assert [event.kind for event in log.events] == ["retry", "degrade"]
        assert len(log) == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ResilienceError):
            EventLog().record("explode", "pool")

    def test_since_slices_later_events(self):
        log = EventLog()
        log.record("retry", "a")
        start = len(log)
        log.record("respawn", "b")
        assert [event.site for event in log.since(start)] == ["b"]

    def test_counts_and_summary(self):
        log = EventLog()
        assert log.summary() == ""
        log.record("retry", "a")
        log.record("retry", "b")
        log.record("skip", "c")
        assert log.counts() == {"retry": 2, "skip": 1}
        assert log.summary() == "retry=2 skip=1"

    def test_on_event_streams_live(self):
        seen = []
        log = EventLog(on_event=seen.append)
        log.record("drop", "http.response")
        assert seen[0].kind == "drop"
        assert seen[0].as_dict()["event"] == "resilience"

    def test_on_event_attachable_after_construction(self):
        log = EventLog()
        seen = []
        log.on_event = seen.append
        log.record("timeout", "task")
        assert len(seen) == 1


class TestRetryIO:
    def _flaky(self, failures, exception=OSError):
        calls = {"n": 0}

        def fn():
            calls["n"] += 1
            if calls["n"] <= failures:
                raise exception(f"boom {calls['n']}")
            return calls["n"]

        return fn, calls

    def test_succeeds_after_retries_and_records_each(self):
        fn, calls = self._flaky(2)
        events = EventLog()
        policy = FailurePolicy(io_retries=2, io_backoff_s=0.0, jitter=0.0)
        assert retry_io(fn, site="segment.write", policy=policy, events=events) == 3
        assert calls["n"] == 3
        assert [event.attempt for event in events.events] == [1, 2]
        assert all(event.site == "segment.write" for event in events.events)

    def test_budget_exhausted_propagates_the_last_error(self):
        fn, _ = self._flaky(5)
        policy = FailurePolicy(io_retries=2, io_backoff_s=0.0, jitter=0.0)
        with pytest.raises(OSError, match="boom 3"):
            retry_io(fn, site="journal.write", policy=policy, events=EventLog())

    def test_reset_hook_runs_before_every_retry(self):
        fn, _ = self._flaky(2)
        resets = []
        policy = FailurePolicy(io_retries=2, io_backoff_s=0.0, jitter=0.0)
        retry_io(
            fn, site="journal.write", policy=policy, events=EventLog(),
            reset=lambda: resets.append(True),
        )
        assert len(resets) == 2

    def test_unlisted_exceptions_pass_through_immediately(self):
        fn, calls = self._flaky(1, exception=ValueError)
        with pytest.raises(ValueError):
            retry_io(fn, site="journal.write", events=EventLog())
        assert calls["n"] == 1

    def test_backoff_uses_injected_sleep(self):
        fn, _ = self._flaky(1)
        slept = []
        policy = FailurePolicy(io_retries=1, io_backoff_s=0.5, jitter=0.0)
        retry_io(
            fn, site="segment.write", policy=policy, events=EventLog(),
            sleep=slept.append,
        )
        assert slept == [0.5]


class TestCallWithCrashRetry:
    def test_injected_crash_retried_then_succeeds(self):
        calls = {"n": 0}

        def fn(task):
            calls["n"] += 1
            if calls["n"] == 1:
                raise InjectedWorkerCrash("injected")
            return task * 2

        events = EventLog()
        policy = FailurePolicy(max_retries=2, backoff_s=0.0, jitter=0.0)
        assert call_with_crash_retry(fn, 21, policy, events) == 42
        assert events.counts() == {"retry": 1}

    def test_budget_exhausted_propagates_the_crash(self):
        def fn(task):
            raise InjectedWorkerCrash("always")

        policy = FailurePolicy(max_retries=1, backoff_s=0.0, jitter=0.0)
        with pytest.raises(InjectedWorkerCrash):
            call_with_crash_retry(fn, 0, policy, EventLog())

    def test_genuine_exceptions_are_not_retried(self):
        calls = {"n": 0}

        def fn(task):
            calls["n"] += 1
            raise ValueError("real bug")

        with pytest.raises(ValueError):
            call_with_crash_retry(fn, 0, DEFAULT_POLICY, EventLog())
        assert calls["n"] == 1
