"""Unit tests for repro.core.patterns (FrequentPattern and MiningResult)."""

import pytest

from repro.core.patterns import FrequentPattern, MiningResult
from repro.exceptions import MiningError
from repro.graph.edge import Edge
from repro.history.journal import SlideSealer


class TestFrequentPattern:
    def test_empty_pattern_rejected(self):
        with pytest.raises(MiningError):
            FrequentPattern([], support=1)

    def test_negative_support_rejected(self):
        with pytest.raises(MiningError):
            FrequentPattern(["a"], support=-1)

    def test_basic_accessors(self):
        pattern = FrequentPattern(["b", "a"], support=3)
        assert pattern.items == frozenset({"a", "b"})
        assert pattern.sorted_items() == ("a", "b")
        assert pattern.support == 3
        assert pattern.size == 2
        assert len(pattern) == 2
        assert "a" in pattern
        assert list(pattern) == ["a", "b"]

    def test_singleton_detection(self):
        assert FrequentPattern(["a"], 1).is_singleton()
        assert not FrequentPattern(["a", "b"], 1).is_singleton()

    def test_connectivity_requires_edges(self):
        with pytest.raises(MiningError):
            FrequentPattern(["a"], 1).is_connected()

    def test_connectivity_rules(self):
        connected = FrequentPattern(
            ["a", "c"], 2, edges=frozenset({Edge("v1", "v2"), Edge("v1", "v4")})
        )
        disjoint = FrequentPattern(
            ["a", "f"], 2, edges=frozenset({Edge("v1", "v2"), Edge("v3", "v4")})
        )
        assert connected.is_connected(rule="exact")
        assert connected.is_connected(rule="paper")
        assert not disjoint.is_connected(rule="exact")
        assert not disjoint.is_connected(rule="paper")
        with pytest.raises(MiningError):
            connected.is_connected(rule="bogus")

    def test_equality_and_repr(self):
        assert FrequentPattern(["a"], 2) == FrequentPattern(["a"], 2)
        assert FrequentPattern(["a"], 2) != FrequentPattern(["a"], 3)
        assert "{a}:2" in repr(FrequentPattern(["a"], 2))


class TestMiningResult:
    def make_result(self):
        counts = {
            frozenset({"a"}): 5,
            frozenset({"b"}): 2,
            frozenset({"a", "b"}): 2,
            frozenset({"a", "c"}): 4,
            frozenset({"a", "b", "c"}): 1,
        }
        return MiningResult.from_counts(counts)

    def test_from_counts_and_len(self):
        result = self.make_result()
        assert len(result) == 5

    def test_support_of(self):
        result = self.make_result()
        assert result.support_of({"a", "b"}) == 2
        assert result.support_of({"z"}) is None

    def test_contains(self):
        result = self.make_result()
        assert {"a"} in result
        assert ["a", "c"] in result
        assert frozenset({"z"}) not in result
        assert "not-iterable-of-items" not in result

    def test_patterns_sorted_by_size_then_items(self):
        ordered = self.make_result().patterns()
        sizes = [p.size for p in ordered]
        assert sizes == sorted(sizes)

    def test_singletons_and_non_singletons(self):
        result = self.make_result()
        assert len(result.singletons()) == 2
        assert len(result.non_singletons()) == 3

    def test_of_size_and_min_support(self):
        result = self.make_result()
        assert len(result.of_size(2)) == 2
        assert len(result.with_min_support(4)) == 2

    def test_size_histogram_and_max_size(self):
        result = self.make_result()
        assert result.size_histogram() == {1: 2, 2: 2, 3: 1}
        assert result.max_pattern_size() == 3
        assert MiningResult([]).max_pattern_size() == 0

    def test_top_k(self):
        top = self.make_result().top(2)
        assert top[0].support == 5
        assert len(top) == 2

    def test_to_dict_round_trip(self):
        result = self.make_result()
        assert MiningResult.from_counts(result.to_dict()) == result

    def test_conflicting_supports_rejected(self):
        with pytest.raises(MiningError):
            MiningResult(
                [FrequentPattern(["a"], 2), FrequentPattern(["a"], 3)]
            )

    def test_connected_filter_with_registry(self, paper_registry):
        counts = {frozenset({"a", "c"}): 4, frozenset({"a", "f"}): 4}
        result = MiningResult.from_counts(counts, registry=paper_registry)
        connected = result.connected()
        assert {"a", "c"} in connected
        assert {"a", "f"} not in connected

    def test_repr(self):
        assert "5 patterns" in repr(self.make_result())


class TestLazyFromCounts:
    """``from_counts`` validates eagerly but builds patterns only on demand."""

    def test_empty_items_rejected_eagerly(self):
        with pytest.raises(MiningError):
            MiningResult.from_counts({frozenset(): 3})

    def test_negative_support_rejected_eagerly(self):
        with pytest.raises(MiningError):
            MiningResult.from_counts({frozenset({"a"}): -1})

    def test_sealed_patterns_equal_the_sorted_patterns(self):
        counts = {
            frozenset({"c", "a"}): 2,
            frozenset({"b"}): 5,
            frozenset({"a"}): 6,
            frozenset({"b", "a", "c"}): 1,
            frozenset({"a", "b"}): 3,
            frozenset({"e10", "e9"}): 4,
        }
        result = MiningResult.from_counts(counts)
        header = dict(slide_id=0, first_batch=0, last_batch=0, num_columns=9, minsup=1)
        sealed = SlideSealer().seal(result.counts, **header).patterns
        assert sealed == tuple(
            (pattern.sorted_items(), pattern.support) for pattern in result
        )
        assert sealed[0] == (("a",), 6)
        assert SlideSealer().seal(MiningResult.from_counts({}).counts, **header).patterns == ()

    def test_graph_results_unchanged(self, paper_registry):
        counts = {
            frozenset({"a"}): 5,
            frozenset({"c"}): 4,
            frozenset({"f"}): 4,
            frozenset({"a", "c"}): 4,
            frozenset({"a", "f"}): 4,
        }
        lazy = MiningResult.from_counts(counts, registry=paper_registry)
        eager = MiningResult(
            FrequentPattern(items, support, edges=paper_registry.decode(items))
            for items, support in counts.items()
        )
        assert [p.edges for p in lazy] == [p.edges for p in eager]
        assert lazy.connected().to_dict() == eager.connected().to_dict()
        assert lazy.connected(rule="paper").to_dict() == eager.connected(rule="paper").to_dict()
        assert lazy.top(3) == eager.top(3)
        assert lazy.closed().to_dict() == eager.closed().to_dict()
        assert lazy == eager

    def test_items_outside_the_registry_carry_no_edges(self, paper_registry):
        result = MiningResult.from_counts(
            {frozenset({"not-an-edge"}): 2}, registry=paper_registry
        )
        assert [p.edges for p in result] == [None]
