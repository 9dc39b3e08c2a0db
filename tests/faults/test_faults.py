"""Unit tests of the deterministic fault-injection grammar and runtime.

Specs parse and round-trip, plans arm process-wide and export through the
environment, hit counters are per process and per site, and each action
(raise / crash / sleep) does exactly what the grammar promises.
"""

import os
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro import faults
from repro.exceptions import FaultSpecError, InjectedWorkerCrash


@pytest.fixture(autouse=True)
def disarm():
    """No test leaves a plan armed (or an env export behind)."""
    yield
    faults.uninstall_plan()


class TestSpecGrammar:
    def test_minimal_spec(self):
        plan = faults.parse_fault_plan("journal.write@2")
        (spec,) = plan.specs
        assert spec.site == "journal.write"
        assert spec.at == 2
        assert spec.times == 1
        assert spec.action == "raise"

    def test_full_spec(self):
        plan = faults.parse_fault_plan("ingest.encode@3x2:sleep~0.25")
        (spec,) = plan.specs
        assert (spec.at, spec.times, spec.action, spec.delay_s) == (3, 2, "sleep", 0.25)

    def test_multiple_specs_and_whitespace(self):
        plan = faults.parse_fault_plan(" mine.shard@1:crash ; segment.write@2 ;")
        assert [spec.site for spec in plan.specs] == ["mine.shard", "segment.write"]

    def test_round_trip(self):
        for text in (
            "journal.write@2",
            "segment.write@1x3",
            "mine.shard@2:crash",
            "ingest.encode@1:sleep~0.2",
            "journal.write@2x2;checkpoint.write@1",
        ):
            assert faults.parse_fault_plan(text).to_text() == text

    @pytest.mark.parametrize(
        "bad",
        [
            "journal.write",  # no hit number
            "journal.write@0",  # hits are 1-based
            "journal.write@2x0",  # times must be >= 1
            "journal.write@2:explode",  # unknown action
            "no.such.site@1",  # unknown site
            "journal.write@2;journal.write@3",  # duplicate site
            "JOURNAL.WRITE@2",  # sites are lowercase
            "journal.write@1:crash~2",  # a delay on a non-sleep action
            "journal.write@1~2",  # ... the default raise action included
            "journal.write@1:raise~0.05",  # ... even the default delay
            "journal.write@\u0663",  # non-ASCII digits (ARABIC-INDIC THREE)
            "segment.write@1x\u0662",
            "ingest.encode@1:sleep~\u0660.5",
            "ingest.encode@1:sleep~" + "9" * 400,  # float('9' * 400) is inf
            "journal.write@" + "9" * 5000,  # beyond int()'s digit limit
        ],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(FaultSpecError):
            faults.parse_fault_plan(bad)

    def test_delay_on_a_non_sleep_spec_is_rejected_when_built_directly(self):
        with pytest.raises(FaultSpecError):
            faults.FaultSpec("journal.write", 1, action="crash", delay_s=2.0)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_plans_round_trip_through_text(self, data):
        """Whatever ``to_text`` writes, ``parse_fault_plan`` reads back to
        the same plan — the worker processes receive plans this way."""
        specs = []
        for site in data.draw(st.lists(st.sampled_from(faults.SITES), unique=True)):
            action = data.draw(st.sampled_from(("raise", "crash", "sleep")))
            delay = faults.DEFAULT_DELAY_S
            if action == "sleep":
                delay = data.draw(
                    st.floats(min_value=0, allow_nan=False, allow_infinity=False)
                )
            specs.append(
                faults.FaultSpec(
                    site,
                    at=data.draw(st.integers(min_value=1, max_value=10**12)),
                    times=data.draw(st.integers(min_value=1, max_value=10**12)),
                    action=action,
                    delay_s=delay,
                )
            )
        plan = faults.FaultPlan(tuple(specs))
        text = plan.to_text()
        assert faults.parse_fault_plan(text) == plan
        assert faults.parse_fault_plan(f" {text.replace(';', ' ; ')} ;") == plan

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(faults.SITES),
        st.sampled_from(["", ":raise", ":crash"]),
        st.from_regex(r"[0-9]+(\.[0-9]+)?", fullmatch=True),
    )
    def test_delay_is_rejected_on_every_non_sleep_action(self, site, action, delay):
        with pytest.raises(FaultSpecError):
            faults.parse_fault_plan(f"{site}@1{action}~{delay}")

    @settings(max_examples=100, deadline=None)
    @given(
        st.characters(whitelist_categories=["Nd"]).filter(
            lambda char: not "0" <= char <= "9"
        ),
        st.sampled_from(["journal.write@{}", "journal.write@1x{}", "ingest.encode@1:sleep~{}"]),
    )
    def test_non_ascii_digits_are_rejected(self, digit, template):
        with pytest.raises(FaultSpecError):
            faults.parse_fault_plan(template.format(digit))

    def test_covers_window(self):
        spec = faults.parse_fault_plan("segment.write@2x3").specs[0]
        assert [spec.covers(hit) for hit in range(1, 7)] == [
            False, True, True, True, False, False,
        ]


class TestPlanLifecycle:
    def test_install_exports_to_environment(self):
        faults.install_plan("journal.write@2")
        assert os.environ[faults.ENV_VAR] == "journal.write@2"
        faults.uninstall_plan()
        assert faults.ENV_VAR not in os.environ

    def test_active_plan_inherits_from_environment(self):
        os.environ[faults.ENV_VAR] = "segment.write@1"
        try:
            plan = faults.active_plan()
            assert plan is not None and plan.for_site("segment.write") is not None
        finally:
            os.environ.pop(faults.ENV_VAR, None)

    def test_malformed_environment_is_ignored_not_fatal(self):
        # A worker inheriting garbage must not die on its first trip().
        os.environ[faults.ENV_VAR] = "not a plan @@"
        try:
            faults.trip("journal.write", OSError)  # must not raise
        finally:
            os.environ.pop(faults.ENV_VAR, None)

    def test_install_resets_counters(self):
        faults.install_plan("journal.write@5")
        faults.trip("journal.write", OSError)
        assert faults.hits("journal.write") == 1
        faults.install_plan("journal.write@5")
        assert faults.hits("journal.write") == 0

    def test_no_plan_is_a_noop(self):
        faults.uninstall_plan()
        faults.trip("journal.write", OSError)
        # Counters do not even advance when nothing is armed.
        assert faults.hits("journal.write") == 0


class TestTrip:
    def test_raise_fires_at_exact_hits_with_site_exception(self):
        faults.install_plan("segment.write@2x2")
        faults.trip("segment.write", OSError)  # hit 1: clean
        with pytest.raises(OSError, match="hit 2"):
            faults.trip("segment.write", OSError)
        with pytest.raises(OSError, match="hit 3"):
            faults.trip("segment.write", OSError)
        faults.trip("segment.write", OSError)  # hit 4: clean again

    def test_counters_are_per_site(self):
        faults.install_plan("journal.write@2;segment.write@5")
        faults.trip("segment.write", OSError)  # hit 1 on its own counter
        faults.trip("journal.write", OSError)  # hit 1: clean
        with pytest.raises(OSError):
            faults.trip("journal.write", OSError)  # hit 2 despite segment hit
        assert faults.hits("segment.write") == 1
        assert faults.hits("journal.write") == 2

    def test_crash_in_coordinator_raises_injected_worker_crash(self):
        # In the coordinating process a crash must NOT os._exit — it
        # surfaces as a retryable exception instead.
        faults.install_plan("mine.shard@1:crash")
        with pytest.raises(InjectedWorkerCrash):
            faults.trip("mine.shard")

    def test_sleep_delays_then_continues(self):
        faults.install_plan("ingest.encode@1:sleep~0.05")
        started = time.perf_counter()
        faults.trip("ingest.encode")  # must not raise
        assert time.perf_counter() - started >= 0.04

    def test_reset_counters_rearms_the_window(self):
        faults.install_plan("journal.write@1")
        with pytest.raises(OSError):
            faults.trip("journal.write", OSError)
        faults.trip("journal.write", OSError)  # hit 2: clean
        faults.reset_counters()
        with pytest.raises(OSError):  # hit 1 again after reset
            faults.trip("journal.write", OSError)
