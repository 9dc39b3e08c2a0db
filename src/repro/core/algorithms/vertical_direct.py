"""Algorithm 5 — direct vertical mining of connected subgraphs (paper §4).

Instead of mining every collection of frequent edges and pruning the
disconnected ones afterwards, the direct algorithm only ever extends a pattern
with edges from its *neighborhood* (edges sharing a vertex with the pattern,
Eq. (1)-(2)), so every enumerated pattern is a connected subgraph by
construction.  Support is computed with the same bit-vector intersections as
algorithm 4.

Enumeration strategy (DESIGN.md §7.4): each connected frequent edge set is
generated exactly once by growing from its minimum edge in canonical order and
only adding larger edges; a per-start ``seen`` set suppresses the duplicates
that different growth orders of the same set would otherwise produce.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.algorithms.base import MatrixLike, MiningAlgorithm, PatternCounts
from repro.exceptions import MiningError
from repro.graph.edge_registry import EdgeRegistry

Items = FrozenSet[str]


class VerticalDirectMiner(MiningAlgorithm):
    """Neighborhood-guided vertical mining that yields only connected patterns."""

    name = "vertical_direct"
    produces_connected_only = True

    def mine(
        self,
        matrix: MatrixLike,
        minsup: int,
        registry: Optional[EdgeRegistry] = None,
    ) -> PatternCounts:
        if registry is None:
            raise MiningError(
                "the direct algorithm needs an EdgeRegistry for neighborhood lookups"
            )
        self.reset_stats()
        patterns: PatternCounts = {}
        frequent_items = matrix.frequent_items(minsup)
        frequent_set = set(frequent_items)
        rows: Dict[str, int] = {item: matrix.row(item).bits for item in frequent_items}
        neighbor_table = {item: registry.neighbors_of(item) for item in frequent_items}

        for item in frequent_items:
            patterns[frozenset({item})] = rows[item].bit_count()

        for start in frequent_items:
            self._grow_from(
                start=start,
                rows=rows,
                frequent_set=frequent_set,
                neighbor_table=neighbor_table,
                minsup=minsup,
                patterns=patterns,
            )
        self.stats.patterns_found = len(patterns)
        return patterns

    def mine_shard(
        self,
        matrix: MatrixLike,
        minsup: int,
        owned_items: Iterable[str],
        registry: Optional[EdgeRegistry] = None,
    ) -> PatternCounts:
        """Grow only from owned start edges.

        The enumeration strategy already generates each connected frequent
        edge set exactly once from its minimum edge, so a partition of the
        start edges is a partition of the output — shards never collide.
        """
        if registry is None:
            raise MiningError(
                "the direct algorithm needs an EdgeRegistry for neighborhood lookups"
            )
        self.reset_stats()
        owned = set(owned_items)
        patterns: PatternCounts = {}
        frequent_items = matrix.frequent_items(minsup)
        frequent_set = set(frequent_items)
        rows: Dict[str, int] = {item: matrix.row(item).bits for item in frequent_items}
        neighbor_table = {item: registry.neighbors_of(item) for item in frequent_items}
        for start in frequent_items:
            if start not in owned:
                continue
            patterns[frozenset({start})] = rows[start].bit_count()
            self._grow_from(
                start=start,
                rows=rows,
                frequent_set=frequent_set,
                neighbor_table=neighbor_table,
                minsup=minsup,
                patterns=patterns,
            )
        self.stats.patterns_found = len(patterns)
        return patterns

    def _grow_from(
        self,
        start: str,
        rows: Dict[str, int],
        frequent_set: Set[str],
        neighbor_table: Dict[str, FrozenSet[str]],
        minsup: int,
        patterns: PatternCounts,
    ) -> None:
        """Enumerate connected frequent sets whose minimum edge is ``start``.

        ``rows`` maps each frequent item to its raw row bits; intersections
        are ``&`` plus ``int.bit_count``, counted locally and added to the
        stats once per call.
        """
        seen: Set[Items] = set()
        intersections = 0
        # Stack entries: (itemset, row bits, neighborhood of the itemset).
        stack: List[Tuple[Items, int, FrozenSet[str]]] = [
            (frozenset({start}), rows[start], neighbor_table[start])
        ]
        while stack:
            itemset, bits, neighborhood = stack.pop()
            for candidate in sorted(neighborhood):
                if candidate <= start or candidate not in frequent_set:
                    continue
                extended = itemset | {candidate}
                if extended in seen:
                    continue
                seen.add(extended)
                intersection = bits & rows[candidate]
                intersections += 1
                support = intersection.bit_count()
                if support < minsup:
                    continue
                patterns[extended] = support
                # Eq. (2): neighbor(X ∪ {y}) = neighbor(X) ∪ neighbor(y) − X − {y}
                extended_neighborhood = (
                    neighborhood | neighbor_table.get(candidate, frozenset())
                ) - extended
                stack.append((extended, intersection, frozenset(extended_neighborhood)))
        self.stats.bitvector_intersections += intersections
