"""Ablation: strong scaling of sharded parallel ingestion (experiment E8).

The ingestion pipeline pulls the incoming stream one batch at a time,
materialises segments on worker processes and commits them through a
single-writer coordinator (DESIGN.md §5).  This ablation runs the E8
driver end-to-end, asserts the determinism guarantee (every ingest-worker
count produces the identical window and pattern set) and measures the
per-worker-count ingestion wall-clock; absolute speedups depend on the
host's core count, so only the structural properties are asserted here.
"""

import json

from repro.bench.experiments import experiment_ingest_scaling
from repro.ingest import ingest_batches
from repro.storage.backend import MemoryWindowStore
from repro.stream.stream import group_units


def test_e8_driver_parity_and_report(tmp_path, scale):
    output = tmp_path / "BENCH_e8.json"
    outcome = experiment_ingest_scaling(
        scale=scale,
        ingest_worker_counts=(1, 2),
        output_path=output,
    )
    assert outcome["ingest_identical"] is True
    assert outcome["experiment"] == "E8-ingest-scaling"
    # One row per worker count including the ingest_workers=0 reference.
    assert {row["ingest_workers"] for row in outcome["rows"]} == {0, 1, 2}
    assert all(row["ingest_s"] >= 0 for row in outcome["rows"])
    assert len({row["columns"] for row in outcome["rows"]}) == 1
    # The driver archives its outcome for the CI artifact upload.
    archived = json.loads(output.read_text(encoding="utf-8"))
    assert archived["rows"] == outcome["rows"]


def test_parallel_ingest_runtime(benchmark, edge_workload):
    """Wall-clock of a 2-worker sharded ingest of the whole stream."""

    def run():
        store = MemoryWindowStore(edge_workload.window_size)
        report = ingest_batches(
            store,
            group_units(edge_workload.transactions, edge_workload.batch_size),
            workers=2,
        )
        return store, report

    store, report = benchmark.pedantic(run, rounds=3, iterations=1)
    assert report.batches > 0
    assert store.num_columns == report.columns - report.columns_evicted
    benchmark.extra_info["batches"] = report.batches
    benchmark.extra_info["ingest_workers"] = 2
