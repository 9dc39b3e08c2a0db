"""Algorithm 4 — vertical bit-vector mining (paper §3.4).

Every DSMatrix row is a bit vector over the window's transaction columns.  The
row sum of an item is its frequency; intersecting two bit vectors and counting
the result gives the frequency of the pair, and so on.  The algorithm performs
a depth-first enumeration over canonical item order (each extension only adds
items later in the order, so every itemset is generated exactly once) and
never materialises any tree — only the prefix's bit vector is kept per
recursion level, which is why the vertical algorithms are the most
memory-frugal of the five.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.core.algorithms.base import MatrixLike, MiningAlgorithm, PatternCounts
from repro.graph.edge_registry import EdgeRegistry


class VerticalMiner(MiningAlgorithm):
    """Depth-first vertical (Eclat-style) mining over DSMatrix bit vectors.

    The kernel intersects the rows' raw ``int`` bits (``&`` plus
    ``int.bit_count``) rather than :class:`~repro.storage.bitvector.BitVector`
    objects: every row of one window has the same length, so the per-call
    validation and allocation of ``BitVector.intersect`` buys nothing here.
    Rows still come from ``matrix.row()``, so the store's row cache is
    reused across slides.
    """

    name = "vertical"
    produces_connected_only = False

    def mine(
        self,
        matrix: MatrixLike,
        minsup: int,
        registry: Optional[EdgeRegistry] = None,
    ) -> PatternCounts:
        self.reset_stats()
        patterns: PatternCounts = {}
        ordered: List[str] = matrix.frequent_items(minsup)  # canonical order
        rows: List[int] = [matrix.row(item).bits for item in ordered]

        for item, bits in zip(ordered, rows):
            patterns[frozenset({item})] = bits.bit_count()

        for index, item in enumerate(ordered):
            self._extend((item,), rows[index], index + 1, ordered, rows, minsup, patterns)
        self.stats.patterns_found = len(patterns)
        return patterns

    def mine_shard(
        self,
        matrix: MatrixLike,
        minsup: int,
        owned_items: Iterable[str],
        registry: Optional[EdgeRegistry] = None,
    ) -> PatternCounts:
        """Depth-first search restricted to prefixes starting at owned items.

        Every itemset's canonical minimum item is its owner, so only the
        owned start items are expanded — the shard does ``1/num_shards`` of
        the enumeration work instead of filtering a full run.
        """
        self.reset_stats()
        owned = set(owned_items)
        patterns: PatternCounts = {}
        ordered: List[str] = matrix.frequent_items(minsup)
        rows: List[int] = [matrix.row(item).bits for item in ordered]
        for index, item in enumerate(ordered):
            if item not in owned:
                continue
            patterns[frozenset({item})] = rows[index].bit_count()
            self._extend((item,), rows[index], index + 1, ordered, rows, minsup, patterns)
        self.stats.patterns_found = len(patterns)
        return patterns

    def _extend(
        self,
        prefix: Tuple[str, ...],
        prefix_bits: int,
        start: int,
        ordered: List[str],
        rows: List[int],
        minsup: int,
        patterns: PatternCounts,
    ) -> None:
        """Enumerate every frequent extension of ``prefix`` depth-first.

        ``rows[i]`` holds the bits of ``ordered[i]``.  Intersections are
        counted locally and added to the stats once per call.
        """
        self.stats.bitvector_intersections += _extend_bits(
            prefix, prefix_bits, start, ordered, rows, minsup, patterns
        )


def _extend_bits(
    prefix: Tuple[str, ...],
    prefix_bits: int,
    start: int,
    ordered: List[str],
    rows: List[int],
    minsup: int,
    patterns: PatternCounts,
) -> int:
    """The recursive kernel of :meth:`VerticalMiner._extend`; returns its
    intersection count."""
    intersections = 0
    for index in range(start, len(ordered)):
        bits = prefix_bits & rows[index]
        intersections += 1
        support = bits.bit_count()
        if support < minsup:
            continue
        extended = prefix + (ordered[index],)
        patterns[frozenset(extended)] = support
        intersections += _extend_bits(extended, bits, index + 1, ordered, rows, minsup, patterns)
    return intersections
