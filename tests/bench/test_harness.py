"""Unit tests for repro.bench.harness."""

import pytest

from repro.bench.harness import (
    build_edge_workload,
    build_itemset_workload,
    prepare_window,
    run_baseline_miner,
    run_dsmatrix_algorithm,
)
from repro.exceptions import DatasetError


@pytest.fixture(scope="module")
def small_workload():
    return build_edge_workload(
        name="unit-test-workload",
        num_vertices=10,
        num_snapshots=80,
        batch_size=20,
        window_size=3,
        seed=7,
    )


@pytest.fixture(scope="module")
def small_matrix(small_workload):
    return prepare_window(small_workload)


class TestWorkloadBuilders:
    def test_edge_workload_shape(self, small_workload):
        assert len(small_workload.transactions) == 80
        assert small_workload.registry is not None
        assert len(small_workload.batches()) == 4

    def test_itemset_workload_ibm(self):
        workload = build_itemset_workload(
            kind="ibm", num_transactions=50, batch_size=10, window_size=2, seed=3
        )
        assert len(workload.transactions) == 50
        assert workload.registry is None

    def test_itemset_workload_connect4(self):
        workload = build_itemset_workload(
            kind="connect4", num_transactions=20, batch_size=10, window_size=2, seed=3
        )
        assert all(len(t) == 43 for t in workload.transactions)

    def test_unknown_itemset_kind(self):
        with pytest.raises(DatasetError):
            build_itemset_workload(kind="nope")

    def test_repr(self, small_workload):
        assert "unit-test-workload" in repr(small_workload)


class TestPrepareWindow:
    def test_window_holds_last_batches(self, small_workload, small_matrix):
        assert small_matrix.num_batches == 3
        assert small_matrix.num_columns == 60

    def test_window_can_persist(self, small_workload, tmp_path):
        matrix = prepare_window(small_workload, path=tmp_path / "window")
        assert matrix.disk_size_bytes() > 0


class TestRuns:
    def test_dsmatrix_run_result_fields(self, small_workload, small_matrix):
        result = run_dsmatrix_algorithm(
            "vertical", small_matrix, small_workload, minsup=5, keep_patterns=True
        )
        assert result.algorithm == "vertical"
        assert result.runtime_seconds >= 0
        assert result.pattern_count == len(result.patterns)
        row = result.as_row()
        assert row["patterns"] == result.pattern_count
        assert "runtime_s" in row

    def test_connected_run_smaller_or_equal(self, small_workload, small_matrix):
        everything = run_dsmatrix_algorithm(
            "vertical", small_matrix, small_workload, minsup=5
        )
        connected = run_dsmatrix_algorithm(
            "vertical", small_matrix, small_workload, minsup=5, connected=True
        )
        assert connected.pattern_count <= everything.pattern_count

    def test_direct_and_postprocessed_agree(self, small_workload, small_matrix):
        direct = run_dsmatrix_algorithm(
            "vertical_direct", small_matrix, small_workload, minsup=5, keep_patterns=True
        )
        post = run_dsmatrix_algorithm(
            "vertical",
            small_matrix,
            small_workload,
            minsup=5,
            connected=True,
            keep_patterns=True,
        )
        assert direct.patterns == post.patterns

    def test_connected_requires_registry(self, small_matrix, small_workload):
        itemset_workload = build_itemset_workload(
            kind="ibm", num_transactions=20, batch_size=10, window_size=2, seed=1
        )
        matrix = prepare_window(itemset_workload)
        with pytest.raises(DatasetError):
            run_dsmatrix_algorithm(
                "vertical", matrix, itemset_workload, minsup=2, connected=True
            )

    def test_baseline_runs(self, small_workload):
        for name in ("dstree", "dstable"):
            result = run_baseline_miner(name, small_workload, minsup=5, keep_patterns=True)
            assert result.algorithm == name
            assert result.pattern_count == len(result.patterns)

    def test_unknown_baseline(self, small_workload):
        with pytest.raises(DatasetError):
            run_baseline_miner("bogus", small_workload, minsup=5)

    def test_baselines_agree_with_dsmatrix(self, small_workload, small_matrix):
        reference = run_dsmatrix_algorithm(
            "vertical", small_matrix, small_workload, minsup=5, keep_patterns=True
        ).patterns
        for name in ("dstree", "dstable"):
            result = run_baseline_miner(name, small_workload, minsup=5, keep_patterns=True)
            assert result.patterns == reference
