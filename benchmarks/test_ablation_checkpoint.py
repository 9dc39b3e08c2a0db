"""Ablation: checkpoint seal overhead + crash recovery (E12).

Three properties of the checkpoint subsystem are pinned here
(DESIGN.md §12):

* the E12 driver's recovery flag holds — after a simulated crash, the
  snapshot-restored watch continues the journal byte-identically to an
  uninterrupted run (``restore_identical``, the nightly boolean gate);
* sealing snapshots is a periodic O(window) tax on the watch loop, not a
  per-slide one — the overhead ratio lands in BENCH_e12.json where the
  nightly gate budgets it;
* the seal and restore paths are measured in isolation via
  pytest-benchmark: one snapshot seal of a warm window, and one
  load + hydrate round trip.
"""

import json

from repro.bench.experiments import experiment_checkpoint_recovery
from repro.checkpoint import CheckpointManager
from repro.core.miner import StreamSubgraphMiner


def _warm_miner(edge_workload):
    miner = StreamSubgraphMiner(
        window_size=edge_workload.window_size,
        batch_size=edge_workload.batch_size,
        algorithm="vertical",
    )
    miner.add_transactions(edge_workload.transactions)
    return miner


def test_e12_driver_flags_and_rows(tmp_path, scale):
    output = tmp_path / "BENCH_e12.json"
    outcome = experiment_checkpoint_recovery(scale=scale, output_path=output)
    assert outcome["experiment"] == "E12-checkpoint-recovery"
    # The §12 guarantee: the resumed run's journal.dat is byte-identical.
    assert outcome["restore_identical"] is True
    by_mode = {row["mode"]: row for row in outcome["rows"]}
    assert set(by_mode) == {"no-checkpoint", "checkpointed", "hydrate", "replay"}
    assert (
        by_mode["checkpointed"]["slides"] == by_mode["no-checkpoint"]["slides"] > 0
    )
    assert by_mode["checkpointed"]["snapshots"] > 0
    assert by_mode["checkpointed"]["snapshot_kb"] > 0
    # The replay leg re-mines only the un-checkpointed stream suffix.
    assert (
        0
        < by_mode["replay"]["slides"]
        < by_mode["no-checkpoint"]["slides"]
    )
    assert by_mode["hydrate"]["checkpoint_slide"] >= 0
    # The driver archives its outcome for the CI artifact upload.
    archived = json.loads(output.read_text(encoding="utf-8"))
    assert archived["rows"] == outcome["rows"]


def test_snapshot_seal_cost(benchmark, edge_workload, tmp_path):
    """Wall-clock of sealing one snapshot of a fully warm window."""
    miner = _warm_miner(edge_workload)
    manager = CheckpointManager(tmp_path / "snapshots", keep=3)

    def run():
        return manager.seal(miner)

    checkpoint = benchmark.pedantic(run, rounds=3, iterations=1)
    # Re-sealing the same slide is idempotent, so every round returns the
    # same snapshot; prove it survived its own digest validation.
    assert checkpoint.slide_id == miner.matrix.segments()[-1].segment_id
    assert manager.load(checkpoint.path).slide_id == checkpoint.slide_id
    benchmark.extra_info["segments"] = len(checkpoint.segments)
    benchmark.extra_info["num_columns"] = checkpoint.num_columns


def test_snapshot_restore_cost(benchmark, edge_workload, tmp_path):
    """Wall-clock of one load + hydrate round trip from a sealed snapshot."""
    miner = _warm_miner(edge_workload)
    manager = CheckpointManager(tmp_path / "snapshots", keep=3)
    manager.seal(miner)
    reference = miner.mine(max(2, edge_workload.batch_size // 4), connected_only=False)

    def run():
        checkpoint = manager.latest()
        return StreamSubgraphMiner.hydrate(checkpoint, algorithm="vertical")

    restored = benchmark.pedantic(run, rounds=3, iterations=1)
    assert restored.matrix.num_columns == miner.matrix.num_columns
    result = restored.mine(
        max(2, edge_workload.batch_size // 4), connected_only=False
    )
    assert {
        frozenset(p.sorted_items()): p.support for p in result
    } == {frozenset(p.sorted_items()): p.support for p in reference}
    benchmark.extra_info["num_columns"] = restored.matrix.num_columns
