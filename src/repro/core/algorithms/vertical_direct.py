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

Everything the search touches is an ``int``: a pattern is a bitmask over the
window's sorted frequent edges (the rows it returns), and a neighborhood is
a bitmask over the same table — an infrequent neighbor can never extend a
pattern, so it is left out of the mask.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

from repro.core.algorithms.base import MatrixLike, MiningAlgorithm
from repro.core.patterns import PatternRows
from repro.exceptions import MiningError
from repro.graph.edge_registry import EdgeRegistry


class VerticalDirectMiner(MiningAlgorithm):
    """Neighborhood-guided vertical mining that yields only connected patterns."""

    name = "vertical_direct"
    produces_connected_only = True

    def mine(
        self,
        matrix: MatrixLike,
        minsup: int,
        registry: Optional[EdgeRegistry] = None,
    ) -> PatternRows:
        return self._mine(matrix, minsup, registry, None)

    def mine_shard(
        self,
        matrix: MatrixLike,
        minsup: int,
        owned_items: Iterable[str],
        registry: Optional[EdgeRegistry] = None,
    ) -> PatternRows:
        """Grow only from owned start edges.

        The enumeration strategy already generates each connected frequent
        edge set exactly once from its minimum edge, so a partition of the
        start edges is a partition of the output — shards never collide.
        """
        return self._mine(matrix, minsup, registry, set(owned_items))

    def _mine(
        self,
        matrix: MatrixLike,
        minsup: int,
        registry: Optional[EdgeRegistry],
        owned: Optional[Set[str]],
    ) -> PatternRows:
        """Grow from every frequent start edge (or only the ``owned`` ones)."""
        if registry is None:
            raise MiningError(
                "the direct algorithm needs an EdgeRegistry for neighborhood lookups"
            )
        self.reset_stats()
        symbols = tuple(matrix.frequent_items(minsup))
        position = {item: index for index, item in enumerate(symbols)}
        rows: List[int] = [matrix.row(item).bits for item in symbols]
        neighbors: List[int] = [
            sum(
                1 << position[neighbor]
                for neighbor in registry.neighbors_of(item)
                if neighbor in position
            )
            for item in symbols
        ]
        starts = [
            start
            for start, item in enumerate(symbols)
            if owned is None or item in owned
        ]
        found = PatternRows(
            symbols,
            [1 << start for start in starts],
            [rows[start].bit_count() for start in starts],
        )
        for start in starts:
            self._grow_from(start, rows, neighbors, minsup, found)
        self.stats.patterns_found = len(found)
        return found

    def _grow_from(
        self,
        start: int,
        rows: List[int],
        neighbors: List[int],
        minsup: int,
        found: PatternRows,
    ) -> None:
        """Enumerate connected frequent sets whose minimum edge is ``start``.

        ``start`` is a position in the sorted frequent-edge table;
        ``rows`` and ``neighbors`` hold each frequent edge's raw row bits
        and frequent-neighbor mask by position.  Candidates are visited in
        ascending table order; intersections are ``&`` plus
        ``int.bit_count``, counted locally and added to the stats once per
        call.
        """
        start_bit = 1 << start
        later = ~((start_bit << 1) - 1)  # edges after the start edge
        seen: Set[int] = set()
        intersections = 0
        # Stack entries: (pattern mask, row bits, neighborhood mask).
        stack: List[Tuple[int, int, int]] = [(start_bit, rows[start], neighbors[start])]
        while stack:
            mask, bits, neighborhood = stack.pop()
            pending = neighborhood & later
            while pending:
                low = pending & -pending
                pending ^= low
                extended = mask | low
                if extended in seen:
                    continue
                seen.add(extended)
                candidate = low.bit_length() - 1
                intersection = bits & rows[candidate]
                intersections += 1
                support = intersection.bit_count()
                if support < minsup:
                    continue
                found.masks.append(extended)
                found.supports.append(support)
                # Eq. (2): neighbor(X ∪ {y}) = neighbor(X) ∪ neighbor(y) − X − {y}
                stack.append(
                    (extended, intersection, (neighborhood | neighbors[candidate]) & ~extended)
                )
        self.stats.bitvector_intersections += intersections
