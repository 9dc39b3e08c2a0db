"""Result types: frequent patterns and mining results.

A :class:`FrequentPattern` is a collection of frequently co-occurring edges
(identified by their item symbols) with its window support; when an
:class:`~repro.graph.edge_registry.EdgeRegistry` is available the pattern also
knows its concrete edges and whether they form a connected subgraph.

:class:`PatternRows` is the integer form patterns travel in from the mining
kernels to the journal: bitmasks over a sorted item table plus supports.

A :class:`MiningResult` is an immutable set of patterns with the query helpers
used throughout the examples, tests and benchmarks (filtering, grouping by
size, set-style comparison between algorithms).
"""

from __future__ import annotations

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


class PatternRows(Mapping[Items, int]):
    """One window's patterns as integer rows: the form mining hands on.

    ``symbols`` is a strictly ascending item table — for a mined window,
    its frequent items, which is the JRNL symbol table of the slide's
    record — and row ``i`` is the pattern whose items are the set bits of
    ``masks[i]`` (bit ``j`` names ``symbols[j]``) with support
    ``supports[i]``.  The vertical kernels build the masks as they recurse
    (``prefix_mask | bit[index]``), shards pickle them as ints, the
    parallel merge concatenates them and the sealer sorts one int key per
    row (DESIGN.md §4.2, §10.1), so no per-pattern ``frozenset`` is made
    between a kernel and the journal.

    The class is also the read-only ``Mapping[frozenset, int]`` of those
    patterns, derived on first use (:meth:`by_items`): equality with a
    dict, lookup by item set and iteration all go through it.  Rows are
    trusted as given — the kernels produce distinct non-empty masks by
    construction — and :meth:`from_counts` is the validating door for
    caller data.
    """

    __slots__ = ("symbols", "masks", "supports", "_view")

    def __init__(
        self, symbols: Tuple[str, ...], masks: List[int], supports: List[int]
    ) -> None:
        self.symbols = symbols
        self.masks = masks
        self.supports = supports
        self._view: Optional[Dict[Items, int]] = None

    @classmethod
    def from_counts(
        cls,
        counts: Mapping[Iterable[str], int],
        symbols: Optional[Iterable[str]] = None,
    ) -> "PatternRows":
        """Validate a pattern -> support mapping and encode it as rows.

        Every pattern must be non-empty with a non-negative support, and
        two keys naming one item set must agree on it.  ``symbols``
        defaults to the sorted union of the patterns' items; a given table
        must hold every item.
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
        table = tuple(sorted(set().union(*validated) if symbols is None else symbols))
        bit = {item: 1 << position for position, item in enumerate(table)}
        try:
            masks = [sum(map(bit.__getitem__, key)) for key in validated]
        except KeyError as exc:
            raise MiningError(f"item {exc.args[0]!r} is not in the symbol table") from None
        rows = cls(table, masks, list(validated.values()))
        rows._view = validated
        return rows

    def items_of(self, mask: int) -> Tuple[str, ...]:
        """The items of one row's mask, in table (sorted) order."""
        symbols = self.symbols
        items = []
        while mask:
            low = mask & -mask
            items.append(symbols[low.bit_length() - 1])
            mask ^= low
        return tuple(items)

    def by_items(self) -> Dict[Items, int]:
        """The ``{frozenset(items): support}`` dict, built once (do not mutate)."""
        view = self._view
        if view is None:
            view = {
                frozenset(self.items_of(mask)): support
                for mask, support in zip(self.masks, self.supports)
            }
            self._view = view
        return view

    def where(self, keep: Callable[[int], bool]) -> "PatternRows":
        """The rows whose mask satisfies ``keep``, over the same table."""
        kept = [
            (mask, support)
            for mask, support in zip(self.masks, self.supports)
            if keep(mask)
        ]
        return PatternRows(
            self.symbols, [mask for mask, _ in kept], [support for _, support in kept]
        )

    def __getitem__(self, items: Items) -> int:
        return self.by_items()[items]

    def __iter__(self) -> Iterator[Items]:
        return iter(self.by_items())

    def __len__(self) -> int:
        return len(self.masks)

    def __contains__(self, items: object) -> bool:
        return items in self.by_items()

    def items(self):  # type: ignore[override]
        return self.by_items().items()

    def values(self):  # type: ignore[override]
        return self.by_items().values()

    def __reduce__(self):
        return (PatternRows, (self.symbols, self.masks, self.supports))

    def __repr__(self) -> str:
        return f"PatternRows({len(self.masks)} rows over {len(self.symbols)} items)"


class MiningResult:
    """An immutable collection of frequent patterns with query helpers.

    A result holds its patterns as :class:`PatternRows`.  Results built
    by :meth:`from_counts` build their :class:`FrequentPattern` objects
    (decoding edges through the registry) only when a caller first needs
    patterns or edges; :attr:`rows`, :attr:`counts`, :meth:`to_dict`,
    :meth:`support_of` and ``len`` never need them.
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
        self._rows = PatternRows.from_counts(
            {items: pattern.support for items, pattern in by_items.items()}
        )
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
        """Build a result from mined rows or a pattern -> support mapping.

        :class:`PatternRows` are taken as they are; any other mapping is
        validated by :meth:`PatternRows.from_counts` (non-empty items,
        non-negative support, no conflicting duplicates).  When
        ``registry`` is given, each pattern's edges are decoded — on first
        use of the patterns — so the connectivity predicates become
        available.  Patterns whose items are not covered by the registry
        (e.g. raw FIMI transactions mined without an edge universe) simply
        carry no decoded edges.
        """
        result = cls.__new__(cls)
        result._rows = (
            counts if isinstance(counts, PatternRows) else PatternRows.from_counts(counts)
        )
        result._registry = registry
        result._built = None
        return result

    @property
    def _counts(self) -> Dict[Items, int]:
        return self._rows.by_items()

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
    def rows(self) -> PatternRows:
        """The patterns as integer rows: what
        :class:`~repro.history.journal.SlideSealer` seals."""
        return self._rows

    @property
    def counts(self) -> Mapping[Items, int]:
        """The validated pattern -> support map, as a read-only view (no copy).

        The rows themselves, read as a ``Mapping[frozenset, int]``.
        """
        return self._rows

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
        return len(self._rows)

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
        for mask in self._rows.masks:
            size = mask.bit_count()
            histogram[size] = histogram.get(size, 0) + 1
        return dict(sorted(histogram.items()))

    def max_pattern_size(self) -> int:
        """Largest pattern size present (0 for an empty result)."""
        return max((mask.bit_count() for mask in self._rows.masks), default=0)

    def top(self, k: int) -> List[FrequentPattern]:
        """The ``k`` patterns with the highest support (ties broken by items)."""
        return sorted(
            self._patterns.values(),
            key=lambda p: (-p.support, p.size, p.sorted_items()),
        )[:k]

    def __repr__(self) -> str:
        return f"MiningResult({len(self._rows)} patterns)"
