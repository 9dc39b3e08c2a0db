"""Combining per-shard results back into the exact sequential answer.

Merging is where the determinism guarantee is enforced rather than hoped
for.  Every shard returns :class:`~repro.core.patterns.PatternRows` over
the same table (the window's sorted frequent items), so merging is a
concatenation of mask and support lists; shards own disjoint pattern sets
(DESIGN.md §4.1), so a mask that two shards both report means the shard
plan or a worker is broken, and it raises whatever the supports.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

from repro.core.algorithms.base import MiningStats
from repro.core.patterns import PatternRows
from repro.exceptions import ParallelMiningError

#: MiningStats fields that are high-water marks rather than additive counts.
_MAX_STAT_PREFIX = "max_"


def merge_rows_into(merged: Optional[PatternRows], part: PatternRows) -> PatternRows:
    """Append one shard's rows to ``merged`` (``None`` before the first).

    This is the incremental step the pipelined executor applies as each
    shard completes (DESIGN.md §9) — only one shard result is resident at
    a time instead of the whole outcome list.  Repeated masks are checked
    once, over the whole merge, by :func:`check_distinct`.
    """
    if merged is None:
        return PatternRows(part.symbols, list(part.masks), list(part.supports))
    if part.symbols != merged.symbols:
        raise ParallelMiningError(
            "shards mined over different symbol tables: "
            f"{list(merged.symbols)} vs {list(part.symbols)}"
        )
    merged.masks.extend(part.masks)
    merged.supports.extend(part.supports)
    return merged


def check_distinct(rows: PatternRows) -> PatternRows:
    """Reject a merge in which any mask appears twice; returns ``rows``."""
    masks = rows.masks
    if len(set(masks)) != len(masks):
        seen = set()
        for mask in masks:
            if mask in seen:
                raise ParallelMiningError(
                    f"two shards report pattern {list(rows.items_of(mask))}; "
                    "shards must own disjoint pattern sets"
                )
            seen.add(mask)
    return rows


def merge_pattern_rows(parts: Iterable[PatternRows]) -> PatternRows:
    """Concatenate per-shard rows into one answer, rejecting repeated masks."""
    merged: Optional[PatternRows] = None
    for part in parts:
        merged = merge_rows_into(merged, part)
    return check_distinct(merged if merged is not None else PatternRows((), [], []))


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
