"""Unit tests for repro.graph.edge_registry.EdgeRegistry."""

import pytest

from repro.exceptions import EdgeRegistryError
from repro.graph.edge import Edge
from repro.graph.edge_registry import EdgeRegistry
from repro.graph.graph import GraphSnapshot


class TestRegistration:
    def test_auto_symbols_follow_alphabet(self):
        registry = EdgeRegistry()
        assert registry.register(Edge("v1", "v2")) == "a"
        assert registry.register(Edge("v1", "v3")) == "b"
        assert registry.register(Edge("v1", "v4")) == "c"

    def test_reregistering_returns_existing_symbol(self):
        registry = EdgeRegistry()
        first = registry.register(Edge("v1", "v2"))
        second = registry.register(Edge("v2", "v1"))
        assert first == second
        assert len(registry) == 1

    def test_explicit_symbol(self):
        registry = EdgeRegistry()
        assert registry.register(Edge("v1", "v2"), "x") == "x"
        assert registry.edge_for("x") == Edge("v1", "v2")

    def test_conflicting_rename_rejected(self):
        registry = EdgeRegistry()
        registry.register(Edge("v1", "v2"), "x")
        with pytest.raises(EdgeRegistryError):
            registry.register(Edge("v1", "v2"), "y")

    def test_duplicate_symbol_rejected(self):
        registry = EdgeRegistry()
        registry.register(Edge("v1", "v2"), "x")
        with pytest.raises(EdgeRegistryError):
            registry.register(Edge("v1", "v3"), "x")

    def test_frozen_registry_rejects_new_edges(self):
        registry = EdgeRegistry()
        registry.register(Edge("v1", "v2"))
        registry.freeze()
        assert registry.frozen
        with pytest.raises(EdgeRegistryError):
            registry.register(Edge("v1", "v3"))

    def test_frozen_registry_still_returns_known_edges(self):
        registry = EdgeRegistry()
        symbol = registry.register(Edge("v1", "v2"))
        registry.freeze()
        assert registry.register(Edge("v1", "v2")) == symbol

    def test_many_edges_get_unique_symbols(self):
        registry = EdgeRegistry()
        edges = [Edge(f"v{i}", f"v{i + 1}") for i in range(40)]
        symbols = [registry.register(edge) for edge in edges]
        assert len(set(symbols)) == 40

    def test_auto_symbols_follow_registration_count(self):
        registry = EdgeRegistry()
        symbols = [registry.register(Edge(i, i + 1)) for i in range(30)]
        assert symbols == [chr(ord("a") + i) for i in range(26)] + ["e26", "e27", "e28", "e29"]

    def test_auto_symbol_skips_consecutive_explicit_symbols(self):
        # Explicit symbols hold two consecutive auto slots: the probe for a
        # free auto symbol must advance past both.
        registry = EdgeRegistry()
        registry.register(Edge(1, 2), "c")
        registry.register(Edge(2, 3), "d")
        assert registry.register(Edge(3, 4)) == "e"
        assert registry.register(Edge(4, 5)) == "f"


class TestLookups:
    def test_item_for_unknown_edge_raises(self):
        with pytest.raises(EdgeRegistryError):
            EdgeRegistry().item_for(Edge("v1", "v2"))

    def test_edge_for_unknown_item_raises(self):
        with pytest.raises(EdgeRegistryError):
            EdgeRegistry().edge_for("zz")

    def test_vertices_of(self, paper_registry):
        assert paper_registry.vertices_of("a") == ("v1", "v2")
        assert paper_registry.vertices_of("f") == ("v3", "v4")

    def test_contains_edge_and_item(self, paper_registry):
        assert Edge("v1", "v2") in paper_registry
        assert "a" in paper_registry
        assert "zz" not in paper_registry

    def test_items_in_canonical_order(self, paper_registry):
        assert paper_registry.items() == ["a", "b", "c", "d", "e", "f"]

    def test_edges_parallel_to_items(self, paper_registry):
        edges = paper_registry.edges()
        assert edges[0] == Edge("v1", "v2")
        assert len(edges) == 6


class TestNeighborhood:
    def test_paper_table2(self, paper_registry):
        # Table 2 of the paper.
        assert paper_registry.neighbors_of("a") == frozenset({"b", "c", "d", "e"})
        assert paper_registry.neighbors_of("b") == frozenset({"a", "c", "d", "f"})
        assert paper_registry.neighbors_of("c") == frozenset({"a", "b", "e", "f"})
        assert paper_registry.neighbors_of("d") == frozenset({"a", "b", "e", "f"})
        assert paper_registry.neighbors_of("e") == frozenset({"a", "c", "d", "f"})
        assert paper_registry.neighbors_of("f") == frozenset({"b", "c", "d", "e"})

    def test_neighborhood_table_covers_all_items(self, paper_registry):
        table = paper_registry.neighborhood_table()
        assert set(table) == {"a", "b", "c", "d", "e", "f"}

    def test_itemset_neighborhood_eq1(self, paper_registry):
        # neighbor({a, c}) = neighbor(a) ∪ neighbor(c) − {a, c} = {b, d, e, f}
        assert paper_registry.neighbors_of_itemset({"a", "c"}) == frozenset(
            {"b", "d", "e", "f"}
        )

    def test_itemset_neighborhood_eq2(self, paper_registry):
        # neighbor({a, c, d}) as computed in Example 7: {b, e, f}
        assert paper_registry.neighbors_of_itemset({"a", "c", "d"}) == frozenset(
            {"b", "e", "f"}
        )

    def test_neighbors_never_include_self(self, paper_registry):
        for item in paper_registry.items():
            assert item not in paper_registry.neighbors_of(item)


class TestEncodeDecode:
    def test_encode_registers_new_edges_by_default(self):
        registry = EdgeRegistry()
        snapshot = GraphSnapshot([Edge("v1", "v2"), Edge("v2", "v3")])
        transaction = registry.encode(snapshot)
        assert transaction == ("a", "b")

    def test_encode_without_registration_raises(self):
        registry = EdgeRegistry()
        snapshot = GraphSnapshot([Edge("v1", "v2")])
        with pytest.raises(EdgeRegistryError):
            registry.encode(snapshot, register_new=False)

    def test_encode_is_sorted(self, paper_registry, paper_snapshots):
        transaction = paper_registry.encode(paper_snapshots[3], register_new=False)
        assert transaction == ("a", "c", "d", "f")

    def test_decode_round_trip(self, paper_registry):
        edges = paper_registry.decode({"a", "f"})
        assert edges == frozenset({Edge("v1", "v2"), Edge("v3", "v4")})

    def test_decode_pattern_returns_vertex_pairs(self, paper_registry):
        assert paper_registry.decode_pattern({"a", "c"}) == [("v1", "v2"), ("v1", "v4")]


class TestConstructors:
    def test_from_edges_with_symbols(self):
        registry = EdgeRegistry.from_edges(
            [Edge("v1", "v2"), Edge("v3", "v4")], symbols=["x", "y"]
        )
        assert registry.item_for(Edge("v3", "v4")) == "y"

    def test_from_edges_symbol_length_mismatch(self):
        with pytest.raises(EdgeRegistryError):
            EdgeRegistry.from_edges([Edge("v1", "v2")], symbols=["x", "y"])

    def test_complete_graph_matches_paper_table1(self, paper_registry):
        complete = EdgeRegistry.complete_graph(["v1", "v2", "v3", "v4"])
        assert complete.items() == ["a", "b", "c", "d", "e", "f"]
        for item in complete.items():
            assert complete.vertices_of(item) == paper_registry.vertices_of(item)

    def test_repr(self, paper_registry):
        assert "6 edges" in repr(paper_registry)
