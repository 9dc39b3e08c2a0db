"""Disk-resident vertical mining (limited-memory variant of algorithm 4).

The paper's motivation for the DSMatrix is that the window may be too big for
main memory: the matrix lives on disk and only the pieces needed at any moment
are brought into RAM.  :class:`VerticalDiskMiner` takes that literally — it is
the vertical miner of §3.4 except that **item rows are read from persistent
storage on demand** (via the window store's ``row_persisted``, which seeks
the item's row out of each per-batch segment file) instead of being loaded up
front.  It enumerates exactly as ``vertical`` does — the same search order
(:func:`~repro.core.algorithms.vertical.search_order`) and the same
candidate lists — so a candidate pruned from a prefix's list is also a row
that is never read.  At any moment the resident set is one bit vector per
level of the depth-first search plus the row currently being intersected.

When the window has no persistent storage (or its files vanished) the miner
transparently falls back to reading rows from the in-memory structure, still
one row at a time.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.core.algorithms.base import MatrixLike, MiningAlgorithm
from repro.core.algorithms.vertical import search_order
from repro.core.patterns import PatternRows
from repro.graph.edge_registry import EdgeRegistry
from repro.storage.bitvector import BitVector


class VerticalDiskMiner(MiningAlgorithm):
    """Vertical (Eclat-style) mining that streams rows from persistent storage."""

    name = "vertical_disk"
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
        """Disk-streaming variant of the vertical shard search.

        The singleton pass still scans every item (each shard needs the
        full search order for its extensions), but only owned start items
        are expanded, keeping the shard's resident set at one prefix
        vector per search level.
        """
        return self._mine(matrix, minsup, set(owned_items))

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _mine(
        self, matrix: MatrixLike, minsup: int, owned: Optional[Set[str]]
    ) -> PatternRows:
        self.reset_stats()
        self.stats.extra["rows_read_from_disk"] = 0

        # First pass: singleton frequencies, one row resident at a time.
        supports: Dict[str, int] = {}
        for item in matrix.items():
            support = self._load_row(matrix, item).count()
            if support >= minsup:
                supports[item] = support
        order = search_order(supports)
        symbols = tuple(sorted(supports))
        position = {item: index for index, item in enumerate(symbols)}
        bits = [1 << position[item] for item in order]
        rows = PatternRows(symbols, [], [])

        # Depth-first extension in search order; only the prefix vectors of
        # the current search path are resident.
        for index in range(len(order) - 1, -1, -1):
            item = order[index]
            if owned is not None and item not in owned:
                continue
            rows.masks.append(bits[index])
            rows.supports.append(supports[item])
            if index + 1 < len(order):
                self._extend(
                    matrix=matrix,
                    prefix_mask=bits[index],
                    prefix_vector=self._load_row(matrix, item),
                    candidates=range(len(order) - 1, index, -1),
                    order=order,
                    bits=bits,
                    minsup=minsup,
                    rows=rows,
                )
        self.stats.patterns_found = len(rows)
        return rows

    def _load_row(self, matrix: MatrixLike, item: str) -> BitVector:
        """Read one item row, preferring persistent storage when available."""
        persisted = matrix.row_persisted(item)
        if persisted is not None:
            self.stats.extra["rows_read_from_disk"] += 1
            return persisted
        return matrix.row(item)

    def _extend(
        self,
        matrix: MatrixLike,
        prefix_mask: int,
        prefix_vector: BitVector,
        candidates: Sequence[int],
        order: List[str],
        bits: List[int],
        minsup: int,
        rows: PatternRows,
    ) -> None:
        """The ``vertical`` kernel over ``BitVector`` rows read on demand."""
        found: List[int] = []  # frequent extensions so far, descending
        for index in candidates:
            item = order[index]
            intersection = prefix_vector.intersect(self._load_row(matrix, item))
            self.stats.bitvector_intersections += 1
            support = intersection.count()
            if support < minsup:
                continue
            mask = prefix_mask | bits[index]
            rows.masks.append(mask)
            rows.supports.append(support)
            if found:
                self._extend(
                    matrix=matrix,
                    prefix_mask=mask,
                    prefix_vector=intersection,
                    candidates=found,
                    order=order,
                    bits=bits,
                    minsup=minsup,
                    rows=rows,
                )
            found.append(index)
