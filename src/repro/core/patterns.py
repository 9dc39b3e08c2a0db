"""Result types: frequent patterns and mining results.

A :class:`FrequentPattern` is a collection of frequently co-occurring edges
(identified by their item symbols) with its window support; when an
:class:`~repro.graph.edge_registry.EdgeRegistry` is available the pattern also
knows its concrete edges and whether they form a connected subgraph.

A :class:`MiningResult` is an immutable set of patterns with the query helpers
used throughout the examples, tests and benchmarks (filtering, grouping by
size, set-style comparison between algorithms).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.exceptions import EdgeRegistryError, MiningError
from repro.graph.connectivity import is_connected_edge_set, satisfies_paper_rule
from repro.graph.edge import Edge
from repro.graph.edge_registry import EdgeRegistry

Items = FrozenSet[str]


class FrequentPattern:
    """A collection of frequently co-occurring edges.

    Parameters
    ----------
    items:
        The edge item symbols of the pattern.
    support:
        The pattern's frequency within the current sliding window.
    edges:
        The concrete edges, when an edge registry was available to decode them.
    """

    __slots__ = ("_items", "_support", "_edges")

    def __init__(
        self,
        items: Iterable[str],
        support: int,
        edges: Optional[FrozenSet[Edge]] = None,
    ) -> None:
        self._items: Items = frozenset(items)
        if not self._items:
            raise MiningError("a frequent pattern must contain at least one item")
        if support < 0:
            raise MiningError(f"support must be non-negative, got {support}")
        self._support = support
        self._edges = edges

    @property
    def items(self) -> Items:
        """The pattern's edge item symbols."""
        return self._items

    @property
    def support(self) -> int:
        """The pattern's window support."""
        return self._support

    @property
    def edges(self) -> Optional[FrozenSet[Edge]]:
        """The decoded edges, or ``None`` when no registry was supplied."""
        return self._edges

    @property
    def size(self) -> int:
        """Number of edges in the pattern."""
        return len(self._items)

    def is_singleton(self) -> bool:
        """True for single-edge patterns."""
        return len(self._items) == 1

    def is_connected(self, rule: str = "exact") -> bool:
        """Whether the pattern's edges form a connected subgraph.

        ``rule="exact"`` uses union-find connectivity; ``rule="paper"`` uses
        the §3.5 vertex-frequency rule.  Requires decoded edges.
        """
        if self._edges is None:
            raise MiningError(
                "pattern has no decoded edges; supply an EdgeRegistry when mining"
            )
        if rule == "exact":
            return is_connected_edge_set(self._edges)
        if rule == "paper":
            return satisfies_paper_rule(self._edges)
        raise MiningError(f"unknown connectivity rule {rule!r}")

    def sorted_items(self) -> Tuple[str, ...]:
        """Items in canonical order (stable display/serialisation order)."""
        return tuple(sorted(self._items))

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._items))

    def __contains__(self, item: object) -> bool:
        return item in self._items

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrequentPattern):
            return NotImplemented
        return self._items == other._items and self._support == other._support

    def __hash__(self) -> int:
        return hash((self._items, self._support))

    def __repr__(self) -> str:
        items = ",".join(self.sorted_items())
        return f"FrequentPattern({{{items}}}:{self._support})"


class MiningResult:
    """An immutable collection of frequent patterns with query helpers.

    Results built by :meth:`from_counts` keep the validated pattern ->
    support map and build their :class:`FrequentPattern` objects (decoding
    edges through the registry) only when a caller first needs patterns or
    edges; :attr:`counts`, :meth:`to_dict`, :meth:`support_of` and
    ``len`` never need them.
    """

    def __init__(self, patterns: Iterable[FrequentPattern]) -> None:
        by_items: Dict[Items, FrequentPattern] = {}
        for pattern in patterns:
            existing = by_items.get(pattern.items)
            if existing is not None and existing.support != pattern.support:
                raise MiningError(
                    f"conflicting supports for pattern {sorted(pattern.items)}: "
                    f"{existing.support} vs {pattern.support}"
                )
            by_items[pattern.items] = pattern
        self._counts: Dict[Items, int] = {
            items: pattern.support for items, pattern in by_items.items()
        }
        self._registry: Optional[EdgeRegistry] = None
        self._built: Optional[Dict[Items, FrequentPattern]] = by_items

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_counts(
        cls,
        counts: Mapping[Items, int],
        registry: Optional[EdgeRegistry] = None,
    ) -> "MiningResult":
        """Build a result from a pattern -> support mapping.

        Every entry is validated here, as :class:`FrequentPattern` would
        (non-empty items, non-negative support).  When ``registry`` is
        given, each pattern's edges are decoded — on first use of the
        patterns — so the connectivity predicates become available.
        Patterns whose items are not covered by the registry (e.g. raw
        FIMI transactions mined without an edge universe) simply carry no
        decoded edges.
        """
        validated: Dict[Items, int] = {}
        for items, support in counts.items():
            key = frozenset(items)
            if not key:
                raise MiningError("a frequent pattern must contain at least one item")
            if support < 0:
                raise MiningError(f"support must be non-negative, got {support}")
            existing = validated.get(key)
            if existing is not None and existing != support:
                raise MiningError(
                    f"conflicting supports for pattern {sorted(key)}: "
                    f"{existing} vs {support}"
                )
            validated[key] = support
        result = cls.__new__(cls)
        result._counts = validated
        result._registry = registry
        result._built = None
        return result

    @property
    def _patterns(self) -> Dict[Items, FrequentPattern]:
        """Items -> pattern, built (and edges decoded) on first use."""
        if self._built is None:
            registry = self._registry
            built: Dict[Items, FrequentPattern] = {}
            for items, support in self._counts.items():
                edges = None
                if registry is not None:
                    try:
                        edges = registry.decode(items)
                    except EdgeRegistryError:
                        edges = None
                built[items] = FrequentPattern(items, support, edges=edges)
            self._built = built
        return self._built

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    def patterns(self) -> List[FrequentPattern]:
        """All patterns, sorted by (size, items) for deterministic output."""
        return sorted(
            self._patterns.values(), key=lambda p: (p.size, p.sorted_items())
        )

    @property
    def counts(self) -> Mapping[Items, int]:
        """The validated pattern -> support map, as a read-only view (no copy).

        What :class:`~repro.history.journal.SlideSealer` seals: it relies
        on the validation :meth:`from_counts` already did.
        """
        return MappingProxyType(self._counts)

    def support_of(self, items: Iterable[str]) -> Optional[int]:
        """Support of a specific itemset, or ``None`` if it is not frequent."""
        return self._counts.get(frozenset(items))

    def __contains__(self, items: object) -> bool:
        if isinstance(items, FrequentPattern):
            return items.items in self._counts
        if isinstance(items, (set, frozenset, tuple, list)):
            return frozenset(items) in self._counts
        return False

    def __len__(self) -> int:
        return len(self._counts)

    def __iter__(self) -> Iterator[FrequentPattern]:
        return iter(self.patterns())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MiningResult):
            return NotImplemented
        return self._counts == other._counts

    def to_dict(self) -> Dict[Items, int]:
        """Pattern -> support mapping (the canonical comparison form)."""
        return dict(self._counts)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def filter(self, predicate: Callable[[FrequentPattern], bool]) -> "MiningResult":
        """Result restricted to patterns satisfying ``predicate``."""
        return MiningResult(p for p in self._patterns.values() if predicate(p))

    def singletons(self) -> "MiningResult":
        """Only single-edge patterns."""
        return self.filter(FrequentPattern.is_singleton)

    def non_singletons(self) -> "MiningResult":
        """Only patterns with two or more edges."""
        return self.filter(lambda p: p.size >= 2)

    def connected(self, rule: str = "exact") -> "MiningResult":
        """Only patterns whose edges form a connected subgraph."""
        return self.filter(lambda p: p.is_connected(rule=rule))

    def of_size(self, size: int) -> "MiningResult":
        """Only patterns with exactly ``size`` edges."""
        return self.filter(lambda p: p.size == size)

    def with_min_support(self, minsup: int) -> "MiningResult":
        """Only patterns whose support is at least ``minsup``."""
        return self.filter(lambda p: p.support >= minsup)

    def closed(self) -> "MiningResult":
        """Only *closed* patterns: no proper superset has the same support.

        Closed patterns are a lossless summary of the full result — every
        frequent pattern's support can be recovered from them (cf. the closed
        graph mining of Bifet et al. discussed in the paper's related work).
        """
        items_list = list(self._patterns.values())
        closed_patterns = []
        for pattern in items_list:
            has_equal_superset = any(
                other.items > pattern.items and other.support == pattern.support
                for other in items_list
            )
            if not has_equal_superset:
                closed_patterns.append(pattern)
        return MiningResult(closed_patterns)

    def maximal(self) -> "MiningResult":
        """Only *maximal* patterns: no proper superset is in the result at all.

        Maximal patterns are the most compact (lossy) summary: they identify
        the largest frequent connected structures without their supports being
        recoverable for subsets.
        """
        items_list = list(self._patterns.values())
        maximal_patterns = []
        for pattern in items_list:
            has_superset = any(
                other.items > pattern.items for other in items_list
            )
            if not has_superset:
                maximal_patterns.append(pattern)
        return MiningResult(maximal_patterns)

    def size_histogram(self) -> Dict[int, int]:
        """Number of patterns per pattern size."""
        histogram: Dict[int, int] = {}
        for items in self._counts:
            histogram[len(items)] = histogram.get(len(items), 0) + 1
        return dict(sorted(histogram.items()))

    def max_pattern_size(self) -> int:
        """Largest pattern size present (0 for an empty result)."""
        return max(map(len, self._counts), default=0)

    def top(self, k: int) -> List[FrequentPattern]:
        """The ``k`` patterns with the highest support (ties broken by items)."""
        return sorted(
            self._patterns.values(),
            key=lambda p: (-p.support, p.size, p.sorted_items()),
        )[:k]

    def __repr__(self) -> str:
        return f"MiningResult({len(self._counts)} patterns)"
