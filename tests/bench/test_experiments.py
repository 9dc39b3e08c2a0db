"""Unit tests for the experiment drivers (run at tiny scale)."""

import pytest

from repro.bench.experiments import (
    EXPERIMENTS,
    experiment_accuracy,
    experiment_memory,
    experiment_minsup_sweep,
    experiment_runtime_fig2,
    experiment_scalability,
    experiment_storage_backends,
    experiment_worker_scaling,
    scale_parameters,
)
from repro.exceptions import DatasetError


class TestScaleParameters:
    def test_known_scales(self):
        for scale in ("tiny", "small", "paper"):
            params = scale_parameters(scale)
            assert params["window_size"] == 5
            assert params["batch_size"] > 0

    def test_unknown_scale(self):
        with pytest.raises(DatasetError):
            scale_parameters("huge")

    def test_registry_contains_all_experiments(self):
        assert set(EXPERIMENTS) == {
            "e1",
            "e2",
            "e3",
            "e4",
            "e5",
            "e6",
            "e7",
            "e8",
            "e9",
            "e10",
            "e11",
            "e12",
            "e13",
            "e14",
            "e15",
        }


class TestExperimentDrivers:
    def test_e1_accuracy(self):
        outcome = experiment_accuracy(scale="tiny", seed=11)
        assert outcome["all_collections_identical"] is True
        assert outcome["connected_results_identical"] is True
        assert len(outcome["rows"]) == 8

    def test_e2_memory_ranking(self):
        outcome = experiment_memory(scale="tiny", seed=11)
        results = outcome["results"]
        # The DSTree baseline keeps the global tree plus conditional FP-trees in
        # memory; the vertical miners keep only bit vectors.
        assert (
            results["dstree"]["max_fptree_nodes"]
            >= results["vertical"]["max_fptree_nodes"]
        )
        assert results["vertical"]["max_concurrent_fptrees"] == 0
        assert results["fptree_multi"]["max_concurrent_fptrees"] >= 1

    def test_e3_runtime_rows(self):
        outcome = experiment_runtime_fig2(scale="tiny", seeds=(11,), include_tree_algorithms=False)
        algorithms = {row["algorithm"] for row in outcome["rows"]}
        assert algorithms == {"vertical", "vertical_direct"}
        assert all(row["runtime_s"] >= 0 for row in outcome["rows"])

    def test_e4_minsup_sweep_monotone_patterns(self):
        outcome = experiment_minsup_sweep(
            scale="tiny", fractions=(0.05, 0.2), algorithms=("vertical",), seed=11
        )
        rows = outcome["rows"]
        assert rows[0]["minsup"] < rows[-1]["minsup"]
        # Higher minsup can never produce more patterns.
        assert rows[0]["patterns"] >= rows[-1]["patterns"]

    def test_e5_scalability_rows(self):
        outcome = experiment_scalability(
            scale="tiny", batch_counts=(2, 4), algorithms=("vertical",), seed=11
        )
        assert len(outcome["rows"]) == 2
        assert all(row["total_runtime_s"] >= 0 for row in outcome["rows"])

    def test_e11_worker_scaling(self):
        outcome = experiment_worker_scaling(
            scale="tiny",
            worker_counts=(1, 2),
            ingest_worker_counts=(0, 2),
            max_inflight_values=(1,),
            output_path=None,
        )
        # Every scaling, pool and parity cell mined the same answer.
        assert outcome["parallel_identical"] is True
        assert outcome["workload"] == "random-graph[smoke]"
        phases = {row["phase"] for row in outcome["rows"]}
        assert phases == {"ingest", "scaling", "pool", "parity"}
        pool_rows = [r for r in outcome["rows"] if r["phase"] == "pool"]
        assert [r["call"] for r in pool_rows] == ["first", "repeat"]
        # One miner served both pool calls: at most one executor spawn.
        assert outcome["pool_spawns"] <= 1
        scaling_workers = [
            r["workers"] for r in outcome["rows"] if r["phase"] == "scaling"
        ]
        assert scaling_workers == [0, 1, 2]

    def test_e11_unknown_scale(self):
        with pytest.raises(DatasetError):
            experiment_worker_scaling(scale="huge", output_path=None)

    def test_e6_storage_backends(self):
        outcome = experiment_storage_backends(
            scale="tiny", algorithms=("vertical",), seed=11
        )
        assert outcome["backends_identical"] is True
        by_backend = {row["backend"]: row for row in outcome["rows"]}
        assert set(by_backend) == {"memory", "disk"}
        assert by_backend["memory"]["bytes_last_append"] == 0
        assert by_backend["disk"]["bytes_last_append"] > 0
