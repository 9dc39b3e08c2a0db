"""Unit tests for repro.core.algorithms.base (stats, minsup resolution, registry)."""

import math
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from repro.core.algorithms import ALGORITHMS, ALL_MINERS, get_algorithm
from repro.core.algorithms.base import MiningStats, resolve_minsup
from repro.exceptions import InvalidSupportError, MiningError


class TestResolveMinsup:
    def test_absolute_integer_passthrough(self):
        assert resolve_minsup(3, 100) == 3
        assert resolve_minsup(1, 0) == 1

    def test_relative_fraction_uses_ceiling(self):
        assert resolve_minsup(0.1, 100) == 10
        assert resolve_minsup(0.101, 100) == 11
        assert resolve_minsup(0.5, 7) == 4

    @pytest.mark.parametrize(
        "minsup, expected", [(0.07, 7), (0.14, 14), (0.28, 28), (0.55, 55)]
    )
    def test_exact_percentages_do_not_round_up(self, minsup, expected):
        # minsup * 100 overshoots the integer in binary floating point
        # (0.07 * 100 == 7.000000000000001); the ceiling must not see that.
        assert resolve_minsup(minsup, 100) == expected

    @given(
        st.floats(min_value=1e-6, max_value=1.0, exclude_max=True),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_relative_fraction_is_the_exact_decimal_ceiling(self, minsup, count):
        exact = math.ceil(Decimal(repr(minsup)) * count)
        assert resolve_minsup(minsup, count) == max(1, exact)

    def test_relative_fraction_never_below_one(self):
        assert resolve_minsup(0.001, 10) == 1

    def test_float_of_integral_value_treated_as_absolute(self):
        assert resolve_minsup(5.0, 100) == 5

    def test_non_integral_absolute_rejected(self):
        with pytest.raises(InvalidSupportError):
            resolve_minsup(2.5, 100)

    def test_zero_and_negative_rejected(self):
        with pytest.raises(InvalidSupportError):
            resolve_minsup(0, 100)
        with pytest.raises(InvalidSupportError):
            resolve_minsup(-1, 100)

    def test_boolean_rejected(self):
        with pytest.raises(InvalidSupportError):
            resolve_minsup(True, 100)


class TestMiningStats:
    def test_as_dict_flattens_extra(self):
        stats = MiningStats(fptrees_built=2, extra={"custom": 7})
        flat = stats.as_dict()
        assert flat["fptrees_built"] == 2
        assert flat["custom"] == 7

    def test_defaults_are_zero(self):
        stats = MiningStats()
        assert stats.patterns_found == 0
        assert stats.bitvector_intersections == 0


class TestAlgorithmRegistry:
    def test_registered_algorithms(self):
        assert set(ALGORITHMS) == {
            "fptree_multi",
            "fptree_single",
            "fptree_topdown",
            "vertical",
            "vertical_disk",
            "vertical_direct",
        }

    def test_all_miners_include_baselines(self):
        assert {"dstree", "dstable"} <= set(ALL_MINERS)

    def test_get_algorithm_unknown_name(self):
        with pytest.raises(MiningError):
            get_algorithm("nope")

    def test_get_algorithm_returns_fresh_instances(self):
        assert get_algorithm("vertical") is not get_algorithm("vertical")

    def test_only_direct_algorithm_is_connected_only(self):
        for name, cls in ALGORITHMS.items():
            assert cls.produces_connected_only == (name == "vertical_direct")

    def test_reset_stats(self, paper_window_matrix, paper_registry):
        algorithm = get_algorithm("vertical")
        algorithm.mine(paper_window_matrix, 2, registry=paper_registry)
        assert algorithm.stats.patterns_found > 0
        algorithm.reset_stats()
        assert algorithm.stats.patterns_found == 0

    def test_repr(self):
        assert "VerticalMiner" in repr(get_algorithm("vertical"))
