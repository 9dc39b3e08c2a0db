"""Property-based tests for EdgeRegistry encoding and neighbourhoods (hypothesis).

Both checks compare the registry against the straightforward implementations
kept here as oracles: the sorted-edge encoder (every snapshot registers its
unseen edges in ``Edge.sort_key`` order) and the brute-force Table 2 scan
over every registered edge with ``Edge.shares_vertex_with``.
"""

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import EdgeRegistryError
from repro.graph.edge import Edge
from repro.graph.edge_registry import EdgeRegistry
from repro.graph.graph import GraphSnapshot

# Mixed int/str vertices: ``repr`` order ("10" < "9", "'a'" vs "1") differs
# from natural order, and mixed pairs fall back to ``repr`` canonicalisation.
VERTICES = st.one_of(
    st.integers(min_value=0, max_value=12), st.sampled_from(["v1", "v2", "v10", "x"])
)
# A few labels so the same endpoints can carry parallel edges.
LABELS = st.sampled_from([None, None, "p", "q"])


@st.composite
def edges(draw):
    u = draw(VERTICES)
    v = draw(VERTICES.filter(lambda vertex: vertex != u))
    return Edge(u, v, draw(LABELS))


snapshots = st.lists(edges(), min_size=1, max_size=6).map(GraphSnapshot)


@st.composite
def streams(draw):
    """Fresh snapshots interleaved with replays of earlier ones, so known-edge
    snapshots alternate with snapshots that still introduce unseen edges."""
    fresh = draw(st.lists(snapshots, min_size=1, max_size=25))
    stream = []
    for snapshot in fresh:
        stream.append(snapshot)
        if draw(st.booleans()):
            stream.append(draw(st.sampled_from(stream)))
    return stream


def reference_encode(registry, snapshot, register_new=True):
    """The sorted-loop encoder: unseen edges register in canonical edge order."""
    items = []
    for edge in snapshot.sorted_edges():
        if edge not in registry:
            if not register_new:
                raise EdgeRegistryError(f"edge {edge!r} is not registered")
            registry.register(edge)
        items.append(registry.item_for(edge))
    return tuple(sorted(items))


def brute_force_neighbors(registry, item):
    """Paper Table 2 by scanning every registered edge."""
    edge = registry.edge_for(item)
    return frozenset(
        other
        for other in registry.items()
        if other != item and edge.shares_vertex_with(registry.edge_for(other))
    )


def assert_neighbors_match_oracle(registry):
    for item in registry.items():
        assert registry.neighbors_of(item) == brute_force_neighbors(registry, item)


@given(streams())
def test_encode_matches_sorted_loop_reference(stream):
    registry, reference = EdgeRegistry(), EdgeRegistry()
    for snapshot in stream:
        assert registry.encode(snapshot) == reference_encode(reference, snapshot)
        assert registry.to_state() == reference.to_state()


@given(streams(), snapshots)
def test_encode_without_registration_rejects_unseen_edges(stream, probe):
    registry = EdgeRegistry()
    for snapshot in stream:
        registry.encode(snapshot)
    size, state = len(registry), registry.to_state()
    if all(edge in registry for edge in probe):
        assert registry.encode(probe, register_new=False) == reference_encode(
            registry, probe, register_new=False
        )
    else:
        with pytest.raises(EdgeRegistryError):
            registry.encode(probe, register_new=False)
    assert len(registry) == size
    assert registry.to_state() == state


@given(st.lists(st.tuples(edges(), st.sampled_from([None, None, "c", "d", "e27"]))))
def test_neighbors_match_scan_after_register(registrations):
    registry = EdgeRegistry()
    for edge, symbol in registrations:
        if edge in registry or symbol in registry:
            symbol = None
        registry.register(edge, symbol)
    assert_neighbors_match_oracle(registry)
    assert_neighbors_match_oracle(EdgeRegistry.from_state(registry.to_state()))


@given(st.lists(edges(), unique=True))
def test_neighbors_match_scan_from_edges(edge_list):
    assert_neighbors_match_oracle(EdgeRegistry.from_edges(edge_list))
    symbols = [f"s{i}" for i in range(len(edge_list))]
    assert_neighbors_match_oracle(EdgeRegistry.from_edges(edge_list, symbols))


@given(st.lists(VERTICES, unique=True, max_size=7))
def test_neighbors_match_scan_complete_graph(vertices):
    assert_neighbors_match_oracle(EdgeRegistry.complete_graph(vertices))
