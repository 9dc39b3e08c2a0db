"""Ablation: storage-structure design choices.

Two of the paper's design arguments are quantified here:

* **DSMatrix bits vs DSTable pointers (§2.2-§2.3).**  On dense streams the
  DSTable stores one pointer per item occurrence while the DSMatrix stores one
  bit per (item, transaction) cell.  Construction time and structure size are
  benchmarked on a dense (connect4-like) and a sparse (IBM-style) stream.
* **In-memory rows vs rows streamed from disk.**  The ``vertical_disk``
  variant re-reads every row from the persisted matrix file; the benchmark
  quantifies the I/O overhead that buys the smaller resident set.
"""

import pytest

from repro.bench.harness import build_itemset_workload, prepare_window
from repro.bench.metrics import deep_sizeof
from repro.core.algorithms import get_algorithm
from repro.storage.dsmatrix import DSMatrix
from repro.storage.dstable import DSTable

WORKLOAD_KINDS = ("connect4", "ibm")


@pytest.fixture(scope="module")
def structure_workloads():
    workloads = {}
    workloads["connect4"] = build_itemset_workload(
        name="dense-connect4", kind="connect4", num_transactions=400,
        batch_size=100, window_size=4, seed=17,
    )
    workloads["ibm"] = build_itemset_workload(
        name="sparse-ibm", kind="ibm", num_transactions=400,
        batch_size=100, window_size=4, seed=17,
        num_items=200, avg_transaction_length=8.0,
    )
    return workloads


@pytest.mark.parametrize("kind", WORKLOAD_KINDS)
def test_dsmatrix_construction(benchmark, kind, structure_workloads):
    workload = structure_workloads[kind]

    def build():
        matrix = DSMatrix(window_size=workload.window_size)
        for batch in workload.batches():
            matrix.append_batch(batch)
        return matrix

    matrix = benchmark.pedantic(build, rounds=3, iterations=1)
    benchmark.extra_info["workload"] = workload.name
    benchmark.extra_info["matrix_bits"] = matrix.memory_bits()
    benchmark.extra_info["deep_size_kb"] = round(deep_sizeof(matrix) / 1024, 1)


@pytest.mark.parametrize("kind", WORKLOAD_KINDS)
def test_dstable_construction(benchmark, kind, structure_workloads):
    workload = structure_workloads[kind]

    def build():
        table = DSTable(window_size=workload.window_size)
        for batch in workload.batches():
            table.append_batch(batch)
        return table

    table = benchmark.pedantic(build, rounds=3, iterations=1)
    benchmark.extra_info["workload"] = workload.name
    benchmark.extra_info["pointer_count"] = table.pointer_count()
    benchmark.extra_info["deep_size_kb"] = round(deep_sizeof(table) / 1024, 1)


def test_dense_stream_space_argument(structure_workloads):
    """§2.3's argument: on dense data the DSMatrix (1 bit per cell) is far
    smaller than the DSTable (a pointer per occurrence)."""
    workload = structure_workloads["connect4"]
    matrix = prepare_window(workload)
    table = DSTable(window_size=workload.window_size)
    for batch in workload.batches():
        table.append_batch(batch)
    matrix_bytes = deep_sizeof(matrix)
    table_bytes = deep_sizeof(table)
    assert matrix_bytes < table_bytes / 4


@pytest.mark.parametrize("name", ["vertical", "vertical_disk"])
def test_disk_row_streaming_overhead(
    benchmark, name, edge_workload, default_minsup, tmp_path_factory
):
    path = tmp_path_factory.mktemp("ablation") / "window"
    matrix = DSMatrix(window_size=edge_workload.window_size, path=path)
    for batch in edge_workload.batches():
        matrix.append_batch(batch)
    algorithm = get_algorithm(name)
    patterns = benchmark.pedantic(
        lambda: algorithm.mine(matrix, default_minsup, registry=edge_workload.registry),
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["patterns"] = len(patterns)
    benchmark.extra_info["rows_read_from_disk"] = algorithm.stats.extra.get(
        "rows_read_from_disk", 0
    )
