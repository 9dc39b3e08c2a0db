"""Reference implementations and small utilities used by the tests.

The brute-force miners here are deliberately simple (enumerate all candidate
itemsets) so they can serve as ground truth for the real algorithms in unit
and property-based tests.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro.graph.connectivity import is_connected_edge_set
from repro.graph.edge_registry import EdgeRegistry
from repro.history.journal import SlideRecord

Items = FrozenSet[str]
Transaction = Tuple[str, ...]


def brute_force_frequent_itemsets(
    transactions: Sequence[Sequence[str]], minsup: int
) -> Dict[Items, int]:
    """All frequent itemsets by explicit subset enumeration (ground truth)."""
    transaction_sets = [frozenset(t) for t in transactions]
    universe = sorted(set().union(*transaction_sets)) if transaction_sets else []
    result: Dict[Items, int] = {}
    for size in range(1, len(universe) + 1):
        found_any = False
        for candidate in combinations(universe, size):
            candidate_set = frozenset(candidate)
            support = sum(1 for t in transaction_sets if candidate_set <= t)
            if support >= minsup:
                result[candidate_set] = support
                found_any = True
        if not found_any:
            break
    return result


def brute_force_connected_frequent(
    transactions: Sequence[Sequence[str]],
    minsup: int,
    registry: EdgeRegistry,
) -> Dict[Items, int]:
    """Frequent itemsets whose decoded edges form a connected subgraph."""
    return {
        items: support
        for items, support in brute_force_frequent_itemsets(transactions, minsup).items()
        if is_connected_edge_set(registry.decode(items))
    }


def transactions_from_batches(batches: Iterable) -> List[Transaction]:
    """Flatten a list of batches into a transaction list."""
    flat: List[Transaction] = []
    for batch in batches:
        flat.extend(batch.transactions)
    return flat


def drifting_records(slides=12):
    """Records whose frequent set drifts: new patterns keep becoming frequent.

    Slide ``s`` holds four singletons starting at item ``s // 2`` and the
    pairs of neighbouring ones, so provenance answers change as slides are
    added; supports repeat, so rank order needs its (size, items)
    tie-breaks.
    """
    records = []
    for slide in range(slides):
        live = [f"i{n:02d}" for n in range(slide // 2, slide // 2 + 4)]
        patterns = {(item,): 10 + (slide * 7 + n * 3) % 5 for n, item in enumerate(live)}
        for n, pair in enumerate(zip(live, live[1:])):
            patterns[pair] = 8 + (slide + n) % 3
        records.append(
            SlideRecord(
                slide_id=slide,
                first_batch=slide,
                last_batch=slide,
                num_columns=40,
                minsup=2,
                patterns=tuple(patterns.items()),
            )
        )
    return records
