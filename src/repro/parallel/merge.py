"""Combining per-shard results back into the exact sequential answer.

Merging is where the determinism guarantee is enforced rather than hoped
for: pattern shards must be disjoint except where two shards computed the
same support for the same pattern (which cannot happen when every
pattern has one owning item, and raises if it does with a different
support).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping

from repro.core.algorithms.base import MiningStats
from repro.exceptions import ParallelMiningError

Items = FrozenSet[str]
PatternCounts = Dict[Items, int]

#: MiningStats fields that are high-water marks rather than additive counts.
_MAX_STAT_PREFIX = "max_"


def merge_pattern_counts_into(
    merged: PatternCounts, part: Mapping[Items, int]
) -> None:
    """Merge one shard's patterns into ``merged`` in place.

    This is the incremental step the pipelined executor applies as each
    shard completes (DESIGN.md §9) — only one shard result is resident at
    a time instead of the whole outcome list.
    """
    for items, support in part.items():
        existing = merged.get(items)
        if existing is not None and existing != support:
            raise ParallelMiningError(
                f"conflicting supports for pattern {sorted(items)}: "
                f"{existing} vs {support}"
            )
        merged[items] = support


def merge_pattern_counts(parts: Iterable[Mapping[Items, int]]) -> PatternCounts:
    """Union per-shard pattern sets, rejecting any support disagreement.

    Shards own disjoint pattern sets (every pattern has one owning item,
    DESIGN.md §4.1), so a pattern appearing in two shards with different supports
    means the shard plan or a worker is broken — that is surfaced as a
    :class:`~repro.exceptions.ParallelMiningError` instead of silently
    keeping either value.
    """
    merged: PatternCounts = {}
    for part in parts:
        merge_pattern_counts_into(merged, part)
    return merged


def merge_stats(parts: Iterable[Mapping[str, int]]) -> MiningStats:
    """Aggregate per-shard instrumentation into one :class:`MiningStats`.

    Counters add across shards; ``max_*`` fields are high-water marks and
    take the maximum, matching what a single process interleaving the same
    work would have observed per tree.
    """
    totals: Dict[str, int] = {}
    for part in parts:
        for key, value in part.items():
            if key.startswith(_MAX_STAT_PREFIX):
                totals[key] = max(totals.get(key, 0), value)
            else:
                totals[key] = totals.get(key, 0) + value
    stats = MiningStats(
        fptrees_built=totals.pop("fptrees_built", 0),
        max_concurrent_fptrees=totals.pop("max_concurrent_fptrees", 0),
        max_fptree_nodes=totals.pop("max_fptree_nodes", 0),
        bitvector_intersections=totals.pop("bitvector_intersections", 0),
        patterns_found=totals.pop("patterns_found", 0),
    )
    stats.extra.update(totals)
    return stats
