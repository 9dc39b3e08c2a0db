"""Ablation: pipelined execution engine + segment support caches (E9).

Two properties of the hot ingest → store → mine path are pinned here
(DESIGN.md §9):

* the pipelined executor keeps at most ``max_inflight`` encoded batches
  resident while the barrier emulation materialises the whole stream —
  asserted on the E9 driver's ``peak_inflight`` column;
* the per-segment support caches make repeated ``frequent_items`` /
  ``row`` calls on an unchanged window cache hits, and carry cached rows
  across a window slide with a segment delta instead of a full-window
  rebuild — asserted via the store's cache-hit counters.
"""

import json

from repro.bench.experiments import experiment_pipelined_ingest
from repro.ingest import ingest_batches
from repro.storage.backend import MemoryWindowStore
from repro.stream.batch import Batch
from repro.stream.stream import group_units


def test_e9_driver_bounds_and_parity(tmp_path, scale):
    output = tmp_path / "BENCH_e9.json"
    outcome = experiment_pipelined_ingest(
        scale=scale,
        ingest_workers=2,
        max_inflight_values=(1, 2, 8),
        output_path=output,
    )
    assert outcome["experiment"] == "E9-pipelined-ingest"
    # Every mode committed the identical window ...
    assert outcome["pipeline_identical"] is True
    # ... and no row ever held more encoded batches than its budget.
    assert outcome["inflight_bounded"] is True
    for row in outcome["rows"]:
        assert row["peak_inflight"] <= row["max_inflight"]
    by_mode = {}
    for row in outcome["rows"]:
        by_mode.setdefault(row["mode"], []).append(row)
    # The barrier emulation's budget is the whole stream (its "chunks"
    # field counts batches, one per task); the pipelined rows are the
    # bounded ones the engine is about.
    assert by_mode["barrier"][0]["max_inflight"] == by_mode["barrier"][0]["chunks"]
    assert {row["max_inflight"] for row in by_mode["pipelined"]} == {1, 2, 8}
    # The driver archives its outcome for the CI artifact upload.
    archived = json.loads(output.read_text(encoding="utf-8"))
    assert archived["rows"] == outcome["rows"]


def test_support_caches_hit_on_unchanged_window(edge_workload):
    store = MemoryWindowStore(edge_workload.window_size)
    ingest_batches(
        store,
        group_units(edge_workload.transactions, edge_workload.batch_size),
        workers=0,
    )
    minsup = max(2, edge_workload.batch_size // 4)
    item = store.items()[0]

    baseline = store.cache_stats.as_dict()
    first = store.frequent_items(minsup)
    repeat = store.frequent_items(minsup)
    assert first == repeat
    row_first = store.row(item)
    row_repeat = store.row(item)
    assert row_first.bits == row_repeat.bits
    stats = store.cache_stats.as_dict()
    # One miss populated each cache; every repeated call on the unchanged
    # window was served from it — no full-window rescan.
    assert stats["frequent_misses"] == baseline["frequent_misses"] + 1
    assert stats["frequent_hits"] == baseline["frequent_hits"] + 1
    assert stats["row_misses"] == baseline["row_misses"] + 1
    assert stats["row_hits"] == baseline["row_hits"] + 1


def test_row_cache_survives_window_slide(edge_workload):
    store = MemoryWindowStore(edge_workload.window_size)
    ingest_batches(
        store,
        group_units(edge_workload.transactions, edge_workload.batch_size),
        workers=0,
    )
    items = store.items()[:5]
    for item in items:
        store.row(item)  # populate the cache
    before = store.cache_stats.as_dict()

    # Slide the window: one segment out, one in.
    extra = Batch(
        [tuple(items[:2])] * edge_workload.batch_size,
        batch_id=store.next_segment_id,
    )
    store.append_batch(extra)

    after = store.cache_stats.as_dict()
    # The slide carried every cached row over with a segment delta ...
    assert after["row_slide_updates"] >= before["row_slide_updates"] + len(items)
    # ... and the carried rows are both cache hits and value-identical to
    # a from-scratch rebuild of the same window.
    fresh = MemoryWindowStore.from_segments(
        store.window_size, store.segments(), known_items=store.items()
    )
    for item in items:
        cached = store.row(item)
        assert cached.bits == fresh.row(item).bits
        assert cached.length == fresh.row(item).length
    final = store.cache_stats.as_dict()
    assert final["row_hits"] == after["row_hits"] + len(items)
    assert final["row_misses"] == after["row_misses"]


def test_pipelined_ingest_runtime(benchmark, edge_workload):
    """Wall-clock of a 2-worker pipelined ingest with a bounded in-flight window."""

    def run():
        store = MemoryWindowStore(edge_workload.window_size)
        report = ingest_batches(
            store,
            group_units(edge_workload.transactions, edge_workload.batch_size),
            workers=2,
            max_inflight=2,
        )
        return store, report

    store, report = benchmark.pedantic(run, rounds=3, iterations=1)
    assert report.batches > 0
    assert report.peak_inflight <= report.max_inflight == 2
    benchmark.extra_info["ingest_workers"] = 2
    benchmark.extra_info["max_inflight"] = 2
