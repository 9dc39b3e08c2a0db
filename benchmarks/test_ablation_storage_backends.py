"""Ablation: window storage backends (DESIGN.md §3).

The storage-engine refactor replaced the monolithic bit-matrix with
batch-aligned segments behind a ``WindowStore`` protocol.  This ablation
quantifies the design choice along the axis the refactor targets — the cost
of keeping the window persistent while it slides:

* **disk store** — each append writes one segment file plus a small
  manifest and deletes one evicted file: per-batch I/O is O(batch);
* **in-memory backend** — the no-persistence baseline.

The benchmarks also assert the structural property the refactor promises:
after the window fills, an append writes far less than the persisted
window.
"""

import pytest

from repro.bench.harness import prepare_window
from repro.storage.backend import DiskWindowStore

BACKENDS = ("memory", "disk")


@pytest.mark.parametrize("backend", BACKENDS)
def test_stream_ingestion_per_backend(benchmark, backend, edge_workload, tmp_path_factory):
    """Full-stream ingestion (with window slides) through each backend."""

    def ingest():
        tmp_path = tmp_path_factory.mktemp(f"ablation-{backend}")
        path = tmp_path / "segments" if backend == "disk" else None
        return prepare_window(edge_workload, path=path)

    matrix = benchmark.pedantic(ingest, rounds=3, iterations=1)
    benchmark.extra_info["backend"] = backend
    benchmark.extra_info["disk_kb"] = round(matrix.disk_size_bytes() / 1024, 1)
    store = matrix.store
    if isinstance(store, DiskWindowStore):
        benchmark.extra_info["bytes_last_append"] = store.io_stats.bytes_last_append


def test_segmented_layout_never_rewrites_the_window(edge_workload, tmp_path):
    """Steady-state appends persist O(batch) bytes, not O(window)."""
    matrix = prepare_window(edge_workload, path=tmp_path / "segments")
    stats = matrix.store.io_stats
    assert stats.appends >= matrix.num_batches
    # One steady-state append writes far less than the whole persisted window.
    assert stats.bytes_last_append < matrix.disk_size_bytes()
