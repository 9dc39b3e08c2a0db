"""Shard planning: how a window's search space is partitioned (DESIGN.md §4).

**Item shards** partition the *search space* of the mining algorithms:
every pattern is owned by its canonical minimum item, so partitioning the
item universe partitions the set of patterns with no overlap.  Item
shards are the unit of parallel mining.

The plan is a deterministic function of the window state and the shard
count, which is what makes ``workers=0`` (in-process execution of the same
plan) byte-identical to a pool run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.exceptions import ParallelMiningError


@dataclass(frozen=True)
class ItemShard:
    """A subset of the item universe owning the patterns that start in it."""

    shard_id: int
    items: Tuple[str, ...]


class ShardPlanner:
    """Deterministic partitioner of windows into shards.

    Parameters
    ----------
    num_shards:
        Upper bound on the number of shards produced; plans never return
        empty shards, so fewer may come back for small inputs.
    """

    def __init__(self, num_shards: int) -> None:
        if num_shards <= 0:
            raise ParallelMiningError(
                f"num_shards must be positive, got {num_shards}"
            )
        self._num_shards = num_shards

    @property
    def num_shards(self) -> int:
        """The configured shard-count upper bound."""
        return self._num_shards

    def plan_items(self, items: Sequence[str]) -> List[ItemShard]:
        """Partition the item universe round-robin in canonical order.

        Round-robin (shard ``i`` takes ``items[i::n]``) balances the skew of
        depth-first mining: early canonical items own far more patterns
        than late ones, so striping spreads the expensive starts across
        shards instead of giving them all to shard 0.
        """
        ordered = list(items)
        if not ordered:
            return []
        count = min(self._num_shards, len(ordered))
        return [
            ItemShard(shard_id=index, items=tuple(ordered[index::count]))
            for index in range(count)
        ]
