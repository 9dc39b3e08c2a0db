"""Tests for the disk-resident vertical miner (`vertical_disk`)."""

import shutil

import pytest

from repro.core.algorithms import get_algorithm
from repro.datasets.paper_example import PAPER_ALL_FREQUENT
from repro.storage.dsmatrix import DSMatrix


@pytest.fixture
def persisted_paper_matrix(paper_batches, tmp_path):
    """The paper-example window persisted to (and kept on) disk."""
    matrix = DSMatrix(window_size=2, path=tmp_path / "window")
    for batch in paper_batches:
        matrix.append_batch(batch)
    return matrix


class TestVerticalDiskMiner:
    def test_matches_paper_example_from_disk(self, persisted_paper_matrix, paper_registry):
        algorithm = get_algorithm("vertical_disk")
        found = algorithm.mine(persisted_paper_matrix, 2, registry=paper_registry)
        assert found == PAPER_ALL_FREQUENT

    def test_reads_rows_from_disk(self, persisted_paper_matrix, paper_registry):
        algorithm = get_algorithm("vertical_disk")
        algorithm.mine(persisted_paper_matrix, 2, registry=paper_registry)
        assert algorithm.stats.extra["rows_read_from_disk"] > 0

    def test_falls_back_to_memory_without_a_path(self, paper_window_matrix, paper_registry):
        algorithm = get_algorithm("vertical_disk")
        found = algorithm.mine(paper_window_matrix, 2, registry=paper_registry)
        assert found == PAPER_ALL_FREQUENT
        assert algorithm.stats.extra["rows_read_from_disk"] == 0

    def test_agrees_with_in_memory_vertical_miner(self, persisted_paper_matrix, paper_registry):
        for minsup in (1, 2, 3, 4, 5):
            from_disk = get_algorithm("vertical_disk").mine(
                persisted_paper_matrix, minsup, registry=paper_registry
            )
            in_memory = get_algorithm("vertical").mine(
                persisted_paper_matrix, minsup, registry=paper_registry
            )
            assert from_disk == in_memory

    def test_intersection_counter(self, persisted_paper_matrix, paper_registry):
        algorithm = get_algorithm("vertical_disk")
        algorithm.mine(persisted_paper_matrix, 2, registry=paper_registry)
        assert algorithm.stats.bitvector_intersections > 0
        assert algorithm.stats.patterns_found == len(PAPER_ALL_FREQUENT)

    def test_stale_path_fallback(self, paper_batches, tmp_path, paper_registry):
        # If the store's directory vanished, the miner still works from memory.
        path = tmp_path / "gone"
        matrix = DSMatrix(window_size=2, path=path)
        for batch in paper_batches:
            matrix.append_batch(batch)
        shutil.rmtree(path)
        found = get_algorithm("vertical_disk").mine(matrix, 2, registry=paper_registry)
        assert found == PAPER_ALL_FREQUENT
