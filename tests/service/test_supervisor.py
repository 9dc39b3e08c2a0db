"""Unit tests for the watch supervisor: budget, backoff, resets, signals.

The spawn/sleep/clock hooks are injected with fakes, so the restart logic
is exercised without real processes or real waiting.
"""

import pytest

from repro.checkpoint.supervisor import RestartPolicy, Supervisor, SupervisorError


class FakeChild:
    def __init__(self, returncode):
        self.returncode = returncode

    def wait(self):
        return self.returncode


class Harness:
    """Scripted children + a clock that advances a set uptime per run."""

    def __init__(self, returncodes, uptimes=None):
        self.returncodes = list(returncodes)
        self.uptimes = list(uptimes) if uptimes is not None else None
        self.spawned = []
        self.sleeps = []
        self.events = []
        self._now = 0.0

    def spawn(self, command):
        self.spawned.append(list(command))
        return FakeChild(self.returncodes[len(self.spawned) - 1])

    def clock(self):
        # Called twice per attempt (start, exit): advance by the scripted
        # uptime on the second call of each pair.
        if self.uptimes is not None and len(self.spawned) <= len(self.uptimes):
            uptime = self.uptimes[len(self.spawned) - 1] / 2.0
        else:
            uptime = 0.0
        self._now += uptime
        return self._now

    def supervisor(self, **policy_kwargs):
        return Supervisor(
            ["repro", "watch", "x"],
            RestartPolicy(**policy_kwargs),
            emit=self.events.append,
            spawn=self.spawn,
            sleep=self.sleeps.append,
            clock=self.clock,
        )


class TestSupervisor:
    def test_clean_exit_stops_without_restarting(self):
        harness = Harness([0])
        assert harness.supervisor().run() == 0
        assert len(harness.spawned) == 1
        assert harness.sleeps == []
        assert [event["event"] for event in harness.events] == ["start", "exit"]

    def test_restart_budget_then_propagate_exit_code(self):
        harness = Harness([1, 1, 1, 1])
        code = harness.supervisor(max_restarts=3, stable_after_s=1e9).run()
        assert code == 1
        assert len(harness.spawned) == 4  # first launch + 3 restarts
        assert harness.events[-1]["event"] == "budget-exhausted"

    def test_backoff_grows_exponentially_and_caps(self):
        harness = Harness([1] * 6)
        harness.supervisor(
            max_restarts=5, backoff_s=0.5, backoff_factor=2.0,
            max_backoff_s=3.0, stable_after_s=1e9,
        ).run()
        assert harness.sleeps == [0.5, 1.0, 2.0, 3.0, 3.0]

    def test_signal_death_maps_to_shell_exit_code(self):
        harness = Harness([-9])
        code = harness.supervisor(max_restarts=0).run()
        assert code == 137  # 128 + SIGKILL

    def test_stable_uptime_resets_budget_and_backoff(self):
        # Crash, restart, run stably, crash again: the stable run forgives
        # the spent restart, so the second crash restarts (fresh budget,
        # base backoff) instead of exhausting a max_restarts=1 budget.
        harness = Harness([1, 1, 0], uptimes=[0.0, 100.0, 0.0])
        code = harness.supervisor(
            max_restarts=1, backoff_s=0.5, backoff_factor=2.0,
            max_backoff_s=30.0, stable_after_s=30.0,
        ).run()
        assert code == 0
        assert len(harness.spawned) == 3
        assert "budget-reset" in [event["event"] for event in harness.events]
        # Backoff restarted from its base after the stable run.
        assert harness.sleeps == [0.5, 0.5]

    def test_backoff_cap_hit_exactly_stays_at_the_cap(self):
        # The ladder lands exactly on max_backoff_s (0.5 -> 1.0 -> 2.0 with
        # a 2.0 cap); the capped value repeats instead of overshooting.
        harness = Harness([1] * 5)
        harness.supervisor(
            max_restarts=4, backoff_s=0.5, backoff_factor=2.0,
            max_backoff_s=2.0, stable_after_s=1e9,
        ).run()
        assert harness.sleeps == [0.5, 1.0, 2.0, 2.0]

    def test_uptime_exactly_at_stability_boundary_resets_budget(self):
        # stable_after_s is inclusive: a child that crashes at exactly the
        # boundary still counts as recovered.  (The harness clock advances
        # half the scripted value per call, so 60.0 measures as 30.0.)
        harness = Harness([1, 1, 0], uptimes=[0.0, 60.0, 0.0])
        code = harness.supervisor(max_restarts=1, stable_after_s=30.0).run()
        assert code == 0
        assert len(harness.spawned) == 3
        assert "budget-reset" in [event["event"] for event in harness.events]

    def test_uptime_just_below_the_boundary_does_not_reset(self):
        harness = Harness([1, 1, 0], uptimes=[0.0, 59.8, 0.0])
        code = harness.supervisor(max_restarts=1, stable_after_s=30.0).run()
        assert code == 1
        assert len(harness.spawned) == 2
        assert harness.events[-1]["event"] == "budget-exhausted"
        assert "budget-reset" not in [event["event"] for event in harness.events]

    def test_no_reset_event_when_no_restarts_were_spent(self):
        # A first launch that runs stably then crashes has nothing to
        # forgive: restarting is fine, but no budget-reset is narrated.
        harness = Harness([1, 0], uptimes=[100.0, 0.0])
        code = harness.supervisor(max_restarts=1, stable_after_s=30.0).run()
        assert code == 0
        assert "budget-reset" not in [event["event"] for event in harness.events]

    @pytest.mark.parametrize(
        "returncode,expected",
        [(-9, 137), (-11, 139), (-15, 143)],  # SIGKILL, SIGSEGV, SIGTERM
    )
    def test_signal_deaths_map_to_shell_convention(self, returncode, expected):
        harness = Harness([returncode])
        assert harness.supervisor(max_restarts=0).run() == expected
        assert harness.events[-1]["exit_code"] == expected

    def test_events_carry_the_command_and_attempt(self):
        harness = Harness([0])
        harness.supervisor().run()
        start = harness.events[0]
        assert start["command"] == ["repro", "watch", "x"]
        assert start["attempt"] == 1

    def test_empty_command_rejected(self):
        with pytest.raises(SupervisorError):
            Supervisor([])


class TestRestartPolicy:
    def test_validation(self):
        with pytest.raises(SupervisorError):
            RestartPolicy(max_restarts=-1)
        with pytest.raises(SupervisorError):
            RestartPolicy(backoff_s=-0.1)
        with pytest.raises(SupervisorError):
            RestartPolicy(backoff_factor=0.5)
        with pytest.raises(SupervisorError):
            RestartPolicy(backoff_s=5.0, max_backoff_s=1.0)
        with pytest.raises(SupervisorError):
            RestartPolicy(stable_after_s=-1.0)

    def test_defaults_are_usable(self):
        policy = RestartPolicy()
        assert policy.max_restarts == 5
        assert policy.backoff_s == 0.5
