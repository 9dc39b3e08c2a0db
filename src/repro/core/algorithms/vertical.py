"""Algorithm 4 — vertical bit-vector mining (paper §3.4).

Every DSMatrix row is a bit vector over the window's transaction columns.  The
row sum of an item is its frequency; intersecting two bit vectors and counting
the result gives the frequency of the pair, and so on.  The algorithm performs
a depth-first enumeration in a fixed total order of the frequent items (each
extension only adds items later in the order, so every itemset is generated
exactly once) and never materialises any tree — only the prefix's bit vector
is kept per recursion level, which is why the vertical algorithms are the most
memory-frugal of the five.

The order and the candidates are Eclat's (Zaki, "Scalable Algorithms for
Association Mining", IEEE TKDE 2000):

* **Search order.**  Items are sorted by ascending window support, ties
  broken by the item itself (:func:`search_order`).  Rare items come first,
  so the long candidate lists hang off prefixes whose bit vectors are sparse
  and die young.
* **Candidate lists.**  A prefix ``P + x`` is extended only with the frequent
  extensions ``y > x`` of its parent ``P`` (its equivalence class): an item
  infrequent with ``P`` is infrequent with every superset of ``P``.
  Candidates are visited from the last in the order to the first, so when
  ``P + x`` is reached every frequent extension after ``x`` is already known
  and the recursion can descend at once with the one intersection it just
  computed — the resident state stays one prefix bit vector per level plus
  lists of ``int`` indices, never a list of sibling bit vectors.

A pattern is **owned** by its first item in the search order.  Every shard
of one window computes the same order, so any partition of the frequent
items partitions the patterns (DESIGN.md §4.1).

Patterns leave the kernel as :class:`~repro.core.patterns.PatternRows`:
each one a bitmask over the window's sorted frequent items, built as the
recursion descends (``prefix_mask | bit[index]``), plus its support.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence, Set

from repro.core.algorithms.base import MatrixLike, MiningAlgorithm
from repro.core.patterns import PatternRows
from repro.graph.edge_registry import EdgeRegistry


def search_order(supports: Mapping[str, float]) -> List[str]:
    """The frequent items in search order: ascending ``(support, item)``.

    Any anti-monotone support works — the time-fading miner orders by
    faded support.
    """
    return sorted(supports, key=lambda item: (supports[item], item))


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
    ) -> PatternRows:
        return self._mine(matrix, minsup, None)

    def mine_shard(
        self,
        matrix: MatrixLike,
        minsup: int,
        owned_items: Iterable[str],
        registry: Optional[EdgeRegistry] = None,
    ) -> PatternRows:
        """Depth-first search restricted to prefixes starting at owned items.

        Every itemset's first item in the search order is its owner, so only
        the owned start items are expanded — the shard does its share of
        the enumeration work instead of filtering a full run.
        """
        return self._mine(matrix, minsup, set(owned_items))

    def _mine(
        self, matrix: MatrixLike, minsup: int, owned: Optional[Set[str]]
    ) -> PatternRows:
        """Expand every frequent start item (or only the ``owned`` ones)."""
        self.reset_stats()
        symbols = tuple(matrix.frequent_items(minsup))
        order = search_order({item: matrix.item_frequency(item) for item in symbols})
        position = {item: index for index, item in enumerate(symbols)}
        bits = [1 << position[item] for item in order]
        rows: List[int] = [matrix.row(item).bits for item in order]
        masks: List[int] = []
        supports: List[int] = []
        intersections = 0
        last = len(order) - 1
        for index in range(last, -1, -1):
            if owned is not None and order[index] not in owned:
                continue
            row = rows[index]
            masks.append(bits[index])
            supports.append(row.bit_count())
            if index < last:
                intersections += _extend_bits(
                    bits[index], row, range(last, index, -1),
                    bits, rows, minsup, masks, supports,
                )
        self.stats.bitvector_intersections = intersections
        self.stats.patterns_found = len(masks)
        return PatternRows(symbols, masks, supports)


def _extend_bits(
    prefix_mask: int,
    prefix_bits: int,
    candidates: Sequence[int],
    bits: List[int],
    rows: List[int],
    minsup: int,
    masks: List[int],
    supports: List[int],
) -> int:
    """Record every frequent extension of the prefix depth-first.

    ``candidates`` are indices into ``bits``/``rows`` (search order) in
    descending order; each frequent extension is appended to ``masks`` and
    ``supports``.  Returns the intersection count (one per candidate,
    recursively).  A child iterates ``found`` while it is the parent's
    list: the parent appends to it only after the child returns.
    """
    intersections = len(candidates)
    found: List[int] = []  # frequent extensions so far, descending
    for index in candidates:
        row = prefix_bits & rows[index]
        support = row.bit_count()
        if support < minsup:
            continue
        mask = prefix_mask | bits[index]
        masks.append(mask)
        supports.append(support)
        if found:
            intersections += _extend_bits(
                mask, row, found, bits, rows, minsup, masks, supports
            )
        found.append(index)
    return intersections
