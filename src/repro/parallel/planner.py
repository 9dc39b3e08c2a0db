"""Shard planning: how a window's search space is partitioned (DESIGN.md §4).

**Item shards** partition the *search space* of the mining algorithms:
every pattern is owned by one of its items — the first in the algorithm's
total order over the window's frequent items (the canonical minimum, or
for ``vertical``/``vertical_disk`` the first in ascending-support order) —
so partitioning the item universe partitions the set of patterns with no
overlap.  Item shards are the unit of parallel mining.

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

        Round-robin (shard ``i`` takes ``items[i::n]``) keeps the plan a
        function of the item set alone.  It balances because the expensive
        starts are not clustered in canonical order: the vertical miners
        own a pattern by its rarest item, and a rare item's subtree is cut
        short by its sparse bit vector, so work spreads over the whole
        order (on ``parallel-zipf`` the heavier of two shards does ~54 % of
        the intersections; striping in the search order measured the same).
        """
        ordered = list(items)
        if not ordered:
            return []
        count = min(self._num_shards, len(ordered))
        return [
            ItemShard(shard_id=index, items=tuple(ordered[index::count]))
            for index in range(count)
        ]
