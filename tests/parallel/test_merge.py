"""Unit tests for the merge layer (pattern rows and stats combination)."""

import pytest

from repro.core.algorithms.base import MiningStats
from repro.core.patterns import PatternRows
from repro.exceptions import ParallelMiningError
from repro.parallel import merge_pattern_rows, merge_stats

TABLE = ("a", "b")


class TestPatternMerge:
    def test_disjoint_union(self):
        left = PatternRows(TABLE, [0b01, 0b11], [3, 2])
        right = PatternRows(TABLE, [0b10], [4])
        merged = merge_pattern_rows([left, right])
        assert merged == {**left, **right}
        assert merged.masks == [0b01, 0b11, 0b10]  # a concatenation

    def test_a_mask_reported_by_two_shards_raises(self):
        # Shards own disjoint pattern sets, so even an equal support is a
        # broken plan.
        part = PatternRows(TABLE, [0b01], [3])
        with pytest.raises(ParallelMiningError, match="two shards"):
            merge_pattern_rows([part, PatternRows(TABLE, [0b01], [3])])

    def test_conflicting_support_raises(self):
        with pytest.raises(ParallelMiningError):
            merge_pattern_rows(
                [PatternRows(TABLE, [0b01], [3]), PatternRows(TABLE, [0b01], [4])]
            )

    def test_different_symbol_tables_raise(self):
        with pytest.raises(ParallelMiningError, match="symbol tables"):
            merge_pattern_rows(
                [PatternRows(TABLE, [0b01], [3]), PatternRows(("a",), [0b1], [3])]
            )

    def test_empty_merge_is_empty_rows(self):
        assert len(merge_pattern_rows([])) == 0


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
