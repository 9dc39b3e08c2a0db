"""Disk-resident vertical mining (limited-memory variant of algorithm 4).

The paper's motivation for the DSMatrix is that the window may be too big for
main memory: the matrix lives on disk and only the pieces needed at any moment
are brought into RAM.  :class:`VerticalDiskMiner` takes that literally — it is
the vertical miner of §3.4 except that **item rows are read from persistent
storage on demand** (via the window store's ``row_persisted``, which seeks
the item's row out of each per-batch segment file) instead of being loaded up
front.  At any moment the resident set is one bit
vector per level of the depth-first search plus the row currently being
intersected.

When the window has no persistent storage (or its files vanished) the miner
transparently falls back to reading rows from the in-memory structure, still
one row at a time.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.core.algorithms.base import MatrixLike, MiningAlgorithm, PatternCounts
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
    ) -> PatternCounts:
        self.reset_stats()
        self.stats.extra["rows_read_from_disk"] = 0
        patterns: PatternCounts = {}

        # First pass: singleton frequencies, one row resident at a time.
        frequent_items: List[str] = []
        for item in matrix.items():
            row = self._load_row(matrix, item)
            support = row.count()
            if support >= minsup:
                frequent_items.append(item)
                patterns[frozenset({item})] = support

        # Depth-first extension in canonical order; only the prefix vectors of
        # the current search path are resident.
        for index, item in enumerate(frequent_items):
            prefix_vector = self._load_row(matrix, item)
            self._extend(
                matrix=matrix,
                prefix=(item,),
                prefix_vector=prefix_vector,
                start=index + 1,
                ordered=frequent_items,
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
        """Disk-streaming variant of the vertical shard search.

        The singleton pass still scans every item (each shard needs the
        full frequent-item order for its extensions), but only owned start
        items are expanded, keeping the shard's resident set at one prefix
        vector per search level.
        """
        self.reset_stats()
        self.stats.extra["rows_read_from_disk"] = 0
        owned = set(owned_items)
        patterns: PatternCounts = {}
        frequent_items: List[str] = []
        for item in matrix.items():
            row = self._load_row(matrix, item)
            support = row.count()
            if support >= minsup:
                frequent_items.append(item)
                if item in owned:
                    patterns[frozenset({item})] = support
        for index, item in enumerate(frequent_items):
            if item not in owned:
                continue
            prefix_vector = self._load_row(matrix, item)
            self._extend(
                matrix=matrix,
                prefix=(item,),
                prefix_vector=prefix_vector,
                start=index + 1,
                ordered=frequent_items,
                minsup=minsup,
                patterns=patterns,
            )
        self.stats.patterns_found = len(patterns)
        return patterns

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
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
        prefix: Tuple[str, ...],
        prefix_vector: BitVector,
        start: int,
        ordered: List[str],
        minsup: int,
        patterns: PatternCounts,
    ) -> None:
        for index in range(start, len(ordered)):
            item = ordered[index]
            candidate_row = self._load_row(matrix, item)
            intersection = prefix_vector.intersect(candidate_row)
            self.stats.bitvector_intersections += 1
            support = intersection.count()
            if support < minsup:
                continue
            extended = prefix + (item,)
            patterns[frozenset(extended)] = support
            self._extend(
                matrix=matrix,
                prefix=extended,
                prefix_vector=intersection,
                start=index + 1,
                ordered=ordered,
                minsup=minsup,
                patterns=patterns,
            )
