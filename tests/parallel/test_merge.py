"""Unit tests for the merge layer (pattern and stats combination)."""

import pytest

from repro.core.algorithms.base import MiningStats
from repro.exceptions import ParallelMiningError
from repro.parallel import merge_pattern_counts, merge_stats


class TestPatternMerge:
    def test_disjoint_union(self):
        left = {frozenset({"a"}): 3, frozenset({"a", "b"}): 2}
        right = {frozenset({"b"}): 4}
        merged = merge_pattern_counts([left, right])
        assert merged == {**left, **right}

    def test_identical_duplicates_are_tolerated(self):
        part = {frozenset({"a"}): 3}
        assert merge_pattern_counts([part, dict(part)]) == part

    def test_conflicting_support_raises(self):
        with pytest.raises(ParallelMiningError):
            merge_pattern_counts(
                [{frozenset({"a"}): 3}, {frozenset({"a"}): 4}]
            )


class TestStatsMerge:
    def test_counters_add_and_high_water_marks_max(self):
        merged = merge_stats(
            [
                {
                    "fptrees_built": 2,
                    "max_fptree_nodes": 10,
                    "bitvector_intersections": 5,
                    "patterns_found": 3,
                    "rows_read_from_disk": 7,
                },
                {
                    "fptrees_built": 1,
                    "max_fptree_nodes": 25,
                    "bitvector_intersections": 2,
                    "patterns_found": 4,
                    "rows_read_from_disk": 1,
                },
            ]
        )
        assert isinstance(merged, MiningStats)
        assert merged.fptrees_built == 3
        assert merged.max_fptree_nodes == 25
        assert merged.bitvector_intersections == 7
        assert merged.patterns_found == 7
        assert merged.extra["rows_read_from_disk"] == 8

    def test_empty_merge(self):
        merged = merge_stats([])
        assert merged.as_dict()["patterns_found"] == 0
