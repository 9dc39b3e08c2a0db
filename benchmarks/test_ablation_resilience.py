"""Ablation: deterministic fault injection vs journal parity (E14).

Three properties of the unified failure policy are pinned here
(DESIGN.md §14):

* the E14 driver's parity flag holds — every seeded chaos run (worker
  crashes, journal write errors) recovers and seals
  a ``journal.dat`` byte-identical to the fault-free reference
  (``chaos_identical``, the nightly boolean gate);
* the fault-free path records zero resilience events and pays no
  measurable tax for the recovery machinery (``clean_run_event_free``,
  ``resilience_overhead_ok``);
* the retry primitives themselves are cheap: one fault-plan trip on an
  unarmed site and one policy delay computation are measured in
  isolation via pytest-benchmark.
"""

import json

from repro import faults
from repro.bench.experiments import experiment_chaos_resilience
from repro.resilience import DEFAULT_POLICY


def test_e14_driver_flags_and_rows(tmp_path, scale):
    output = tmp_path / "BENCH_e14.json"
    outcome = experiment_chaos_resilience(scale=scale, output_path=output)
    assert outcome["experiment"] == "E14-chaos-resilience"
    # The §14 acceptance bar: chaos never changes the mined history.
    assert outcome["chaos_identical"] is True
    assert outcome["clean_run_event_free"] is True
    modes = [row["mode"] for row in outcome["rows"]]
    assert modes.count("chaos") == 2
    assert "clean" in modes and "clean-resilient" in modes
    chaos_rows = [row for row in outcome["rows"] if row["mode"] == "chaos"]
    assert all(row["identical"] for row in chaos_rows)
    # Each armed plan left recovery decisions behind.
    assert all(row["events"] != "clean" for row in chaos_rows)
    # The driver archives its outcome for the CI artifact upload.
    archived = json.loads(output.read_text(encoding="utf-8"))
    assert archived["rows"] == outcome["rows"]


def test_unarmed_trip_cost(benchmark):
    faults.uninstall_plan()
    # The hot-path question: what does a trip() cost when no plan is
    # armed (the production configuration)?  One None check.
    benchmark(faults.trip, "journal.write", OSError)


def test_policy_delay_cost(benchmark):
    # delay_s seeds a PRNG per call for deterministic jitter; it only
    # runs when a retry is already sleeping, but keep it bounded anyway.
    benchmark(DEFAULT_POLICY.delay_s, 1)
