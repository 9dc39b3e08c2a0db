"""Canonical mapping between edges and transaction items.

The mining algorithms operate on *items* (short edge labels such as ``"a"``,
``"b"``, ... in the paper's running example).  The :class:`EdgeRegistry` owns
this mapping and the two lookup tables used by the connectivity machinery:

* the *vertex table* (paper Table 1): item -> the edge's two endpoints;
* the *neighborhood table* (paper Table 2): item -> items of edges sharing a
  vertex with it, answered from a vertex -> items index kept at registration.

Items are ordered canonically (lexicographically by symbol), which is the
"canonical order, e.g. alphabetical" the DSTree/DSTable/DSMatrix structures
rely on so that the streaming structures never need reordering when
frequencies drift.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.exceptions import EdgeRegistryError
from repro.graph.edge import Edge, VertexId
from repro.graph.graph import GraphSnapshot

Item = str
Transaction = Tuple[Item, ...]


def _default_symbol(index: int) -> str:
    """Generate a compact deterministic symbol: a..z, then e26, e27, ..."""
    if index < 26:
        return chr(ord("a") + index)
    return f"e{index}"


class EdgeRegistry:
    """Bidirectional edge <-> item mapping with vertex and neighborhood tables.

    The registry can be *frozen* once the edge universe is known; frozen
    registries reject new edges, which is how the miners detect unexpected
    domain drift in a stream.
    """

    def __init__(self) -> None:
        self._edge_to_item: Dict[Edge, Item] = {}
        self._item_to_edge: Dict[Item, Edge] = {}
        # vertex -> items of the registered edges touching it (Table 2 index)
        self._items_at: Dict[VertexId, Set[Item]] = {}
        self._frozen = False

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(self, edge: Edge, symbol: Optional[Item] = None) -> Item:
        """Register ``edge`` and return its item symbol.

        Re-registering a known edge returns the existing symbol (an explicit
        conflicting ``symbol`` raises).  New registrations on a frozen registry
        raise :class:`~repro.exceptions.EdgeRegistryError`.
        """
        existing = self._edge_to_item.get(edge)
        if existing is not None:
            if symbol is not None and symbol != existing:
                raise EdgeRegistryError(
                    f"edge {edge!r} already registered as {existing!r}, "
                    f"cannot rename to {symbol!r}"
                )
            return existing
        if self._frozen:
            raise EdgeRegistryError(f"registry is frozen; cannot register {edge!r}")
        if symbol is None:
            index = len(self._edge_to_item)
            while _default_symbol(index) in self._item_to_edge:
                index += 1
            symbol = _default_symbol(index)
        if symbol in self._item_to_edge:
            raise EdgeRegistryError(f"symbol {symbol!r} is already in use")
        self._edge_to_item[edge] = symbol
        self._item_to_edge[symbol] = edge
        for vertex in edge.vertices:
            self._items_at.setdefault(vertex, set()).add(symbol)
        return symbol

    def register_all(self, edges: Iterable[Edge]) -> List[Item]:
        """Register many edges (in deterministic order) and return their symbols."""
        return [self.register(edge) for edge in sorted(edges, key=Edge.sort_key)]

    def freeze(self) -> "EdgeRegistry":
        """Disallow further registrations; returns ``self`` for chaining."""
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        """Whether the registry rejects new edges."""
        return self._frozen

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def item_for(self, edge: Edge) -> Item:
        """Item symbol of a registered edge."""
        try:
            return self._edge_to_item[edge]
        except KeyError:
            raise EdgeRegistryError(f"edge {edge!r} is not registered") from None

    def edge_for(self, item: Item) -> Edge:
        """Edge behind an item symbol."""
        try:
            return self._item_to_edge[item]
        except KeyError:
            raise EdgeRegistryError(f"item {item!r} is not registered") from None

    def vertices_of(self, item: Item) -> Tuple[VertexId, VertexId]:
        """Endpoints of the edge behind ``item`` (paper Table 1)."""
        return self.edge_for(item).vertices

    def __contains__(self, key: object) -> bool:
        if isinstance(key, Edge):
            return key in self._edge_to_item
        return key in self._item_to_edge

    def __len__(self) -> int:
        return len(self._edge_to_item)

    def __iter__(self) -> Iterator[Item]:
        return iter(self.items())

    def items(self) -> List[Item]:
        """All item symbols in canonical (lexicographic) order."""
        return sorted(self._item_to_edge)

    def edges(self) -> List[Edge]:
        """All registered edges, ordered by their item symbols."""
        return [self._item_to_edge[item] for item in self.items()]

    # ------------------------------------------------------------------ #
    # neighborhood table (paper Table 2)
    # ------------------------------------------------------------------ #
    def neighbors_of(self, item: Item) -> FrozenSet[Item]:
        """Items of edges sharing at least one vertex with ``item``'s edge."""
        u, v = self.edge_for(item).vertices
        return frozenset((self._items_at[u] | self._items_at[v]) - {item})

    def neighborhood_table(self) -> Dict[Item, FrozenSet[Item]]:
        """The full Table 2: item -> neighboring items."""
        return {item: self.neighbors_of(item) for item in self.items()}

    def neighbors_of_itemset(self, itemset: Iterable[Item]) -> FrozenSet[Item]:
        """Neighborhood of a connected itemset, following Eq. (1)-(2) of §4.

        ``neighbor(X) = (U_{x in X} neighbor(x)) \\ X``.
        """
        itemset = frozenset(itemset)
        neighborhood: Set[Item] = set()
        for item in itemset:
            neighborhood |= self.neighbors_of(item)
        return frozenset(neighborhood - itemset)

    # ------------------------------------------------------------------ #
    # encoding / decoding
    # ------------------------------------------------------------------ #
    def encode(self, snapshot: GraphSnapshot, register_new: bool = True) -> Transaction:
        """Convert a graph snapshot into a canonical transaction of items.

        Parameters
        ----------
        snapshot:
            The streamed graph.
        register_new:
            Register previously unseen edges (default).  When ``False`` unseen
            edges raise :class:`~repro.exceptions.EdgeRegistryError`.
        """
        try:
            # Fast path: every edge is known, so no symbol is minted and the
            # registration order (hence the edge sort) does not matter.
            return tuple(sorted(map(self._edge_to_item.__getitem__, snapshot.edges)))
        except KeyError:
            pass
        # Some edge is unseen: register unseen edges in canonical edge order,
        # the order that decides which symbol each one is minted.
        items: List[Item] = []
        for edge in snapshot.sorted_edges():
            if edge not in self._edge_to_item:
                if not register_new:
                    raise EdgeRegistryError(f"edge {edge!r} is not registered")
                self.register(edge)
            items.append(self._edge_to_item[edge])
        return tuple(sorted(items))

    def decode(self, items: Iterable[Item]) -> FrozenSet[Edge]:
        """Convert an itemset back to its edge set."""
        return frozenset(self.edge_for(item) for item in items)

    def decode_pattern(self, items: Iterable[Item]) -> List[Tuple[VertexId, VertexId]]:
        """Convert an itemset to its list of vertex pairs (sorted by item)."""
        return [self.vertices_of(item) for item in sorted(items)]

    # ------------------------------------------------------------------ #
    # serialisation (checkpoints, DESIGN.md §12)
    # ------------------------------------------------------------------ #
    def to_state(self) -> Dict[str, object]:
        """Serialise the registry to a JSON-safe state mapping.

        The edge → symbol pairs are emitted in **registration order** — the
        order is load-bearing: auto-generated symbols depend on how many
        edges were registered before, so replaying the state through
        :meth:`from_state` reproduces the exact future symbol assignment a
        resumed stream will observe.  Vertex ids must round-trip through
        JSON exactly, so only ``str``/``int``/``float``/``bool`` vertices
        are supported (tuples would come back as lists).
        """
        edges: List[List[object]] = []
        for edge, item in self._edge_to_item.items():
            for vertex in (edge.u, edge.v):
                if not isinstance(vertex, (str, int, float)):
                    raise EdgeRegistryError(
                        f"cannot serialise registry: vertex {vertex!r} of edge "
                        f"{edge!r} is not JSON-safe (str/int/float/bool only)"
                    )
            edges.append([edge.u, edge.v, edge.label, item])
        return {"frozen": self._frozen, "edges": edges}

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "EdgeRegistry":
        """Rebuild a registry from :meth:`to_state` output (order preserved)."""
        registry = cls()
        edges = state.get("edges")
        if not isinstance(edges, list):
            raise EdgeRegistryError(f"malformed registry state: {state!r}")
        for entry in edges:
            try:
                u, v, label, item = entry
            except (TypeError, ValueError):
                raise EdgeRegistryError(
                    f"malformed registry state entry: {entry!r}"
                ) from None
            registry.register(Edge(u, v, label), item)
        if state.get("frozen"):
            registry.freeze()
        return registry

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(
        cls, edges: Sequence[Edge], symbols: Optional[Sequence[Item]] = None
    ) -> "EdgeRegistry":
        """Build a registry from a fixed edge universe.

        When ``symbols`` is given it must be the same length as ``edges`` and
        pairs element-wise with them; otherwise symbols are auto-generated in
        ``a``, ``b``, ... order following the order of ``edges``.
        """
        registry = cls()
        if symbols is not None:
            if len(symbols) != len(edges):
                raise EdgeRegistryError(
                    f"{len(edges)} edges but {len(symbols)} symbols were provided"
                )
            for edge, symbol in zip(edges, symbols):
                registry.register(edge, symbol)
        else:
            for edge in edges:
                registry.register(edge)
        return registry

    @classmethod
    def complete_graph(cls, vertices: Sequence[VertexId]) -> "EdgeRegistry":
        """Registry over all possible edges of a vertex universe.

        This mirrors the paper's running example where the domain is every
        edge of the 4-vertex complete graph (items ``a`` .. ``f``).
        """
        ordered = list(vertices)
        edges = [
            Edge(ordered[i], ordered[j])
            for i in range(len(ordered))
            for j in range(i + 1, len(ordered))
        ]
        return cls.from_edges(edges)

    def __repr__(self) -> str:
        state = "frozen" if self._frozen else "mutable"
        return f"EdgeRegistry({len(self)} edges, {state})"
