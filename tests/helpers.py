"""Reference implementations and small utilities used by the tests.

The brute-force miners here are deliberately simple (enumerate all candidate
itemsets) so they can serve as ground truth for the real algorithms in unit
and property-based tests.  The journal references below play the same role
for the pattern-history index: :class:`ScanReader` answers the index's read
protocol by scanning records, and the ``brute_force_*`` scans answer the
containment and support-curve questions without the algebra's row matcher.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import HistoryError
from repro.graph.connectivity import is_connected_edge_set
from repro.graph.edge_registry import EdgeRegistry
from repro.history.algebra import Match
from repro.history.journal import MemoryJournal, SlideRecord

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


# ---------------------------------------------------------------------- #
# pattern-history references
# ---------------------------------------------------------------------- #
ITEMS = [chr(ord("a") + index) for index in range(10)]


def random_journal(seed, slides=12, max_patterns=14):
    """A randomized journal: random itemsets with random supports per slide."""
    rng = random.Random(seed)
    journal = MemoryJournal()
    for slide in range(slides):
        patterns = {}
        for _ in range(rng.randint(0, max_patterns)):
            size = rng.randint(1, 4)
            items = tuple(sorted(rng.sample(ITEMS, size)))
            patterns[items] = rng.randint(1, 40)
        journal.append(
            SlideRecord(
                slide_id=slide,
                first_batch=max(0, slide - 3),
                last_batch=slide,
                num_columns=60,
                minsup=2,
                patterns=tuple(patterns.items()),
            )
        )
    return journal


def _normalise_items(items: Iterable[str]) -> Tuple[str, ...]:
    ordered = tuple(sorted(set(items)))
    if not ordered:
        raise HistoryError("a pattern query needs at least one item")
    return ordered


def brute_force_super_patterns(
    records: Sequence[SlideRecord], items: Iterable[str], slide_id: Optional[int] = None
) -> List[Match]:
    """Reference scan: the patterns containing every query item."""
    wanted = frozenset(_normalise_items(items))
    matches: List[Match] = []
    for record in records:
        if slide_id is not None and record.slide_id != slide_id:
            continue
        for pattern_items, support in record.patterns:
            if wanted.issubset(pattern_items):
                matches.append((record.slide_id, pattern_items, support))
    return matches


def brute_force_sub_patterns(
    records: Sequence[SlideRecord], items: Iterable[str], slide_id: Optional[int] = None
) -> List[Match]:
    """Reference scan: the patterns contained in the query itemset."""
    allowed = frozenset(_normalise_items(items))
    matches: List[Match] = []
    for record in records:
        if slide_id is not None and record.slide_id != slide_id:
            continue
        for pattern_items, support in record.patterns:
            if allowed.issuperset(pattern_items):
                matches.append((record.slide_id, pattern_items, support))
    matches.sort(key=lambda match: (match[0], len(match[1]), match[1]))
    return matches


def brute_force_support_history(
    records: Sequence[SlideRecord], items: Iterable[str]
) -> List[Tuple[int, int]]:
    """Reference scan: one (slide, support) point per record, 0 when absent."""
    query = _normalise_items(items)
    history: List[Tuple[int, int]] = []
    for record in records:
        support = record.support_of(query)
        history.append((record.slide_id, support if support is not None else 0))
    return history


class ScanReader:
    """The index read protocol answered by scanning records on every call.

    No postings, no provenance map, no sharing: each method re-derives its
    answer from the raw :class:`SlideRecord` rows, so it is a reference for
    :class:`~repro.serve.index.IndexSnapshot` rather than a second index.
    Rows are read in rank order (support descending, then size, items),
    the order the index stores them in.
    """

    def __init__(self, records: Iterable[SlideRecord]) -> None:
        self.records = list(records)
        self._by_slide = {record.slide_id: record for record in self.records}

    def _record(self, slide_id: int) -> Optional[SlideRecord]:
        return self._by_slide.get(slide_id)

    def slide_ids(self) -> List[int]:
        return [record.slide_id for record in self.records]

    @property
    def last_slide_id(self) -> Optional[int]:
        return self.records[-1].slide_id if self.records else None

    def has_slide(self, slide_id: int) -> bool:
        return self._record(slide_id) is not None

    def slides_between(self, lo: Optional[int], hi: Optional[int]) -> List[int]:
        return [
            slide
            for slide in self.slide_ids()
            if (lo is None or slide >= lo) and (hi is None or slide <= hi)
        ]

    def posting(self, item: str, slide_id: int) -> Tuple[Tuple[str, ...], ...]:
        record = self._record(slide_id)
        if record is None:
            return ()
        return tuple(items for items, _ in record.ranked_patterns() if item in items)

    def posting_total(self, item: str) -> int:
        return sum(
            1 for record in self.records for items, _ in record.patterns if item in items
        )

    def row_count(self, slide_id: int) -> int:
        record = self._record(slide_id)
        return record.pattern_count if record is not None else 0

    def iter_patterns_at(self, slide_id: int) -> Iterator[Tuple[Tuple[str, ...], int]]:
        record = self._record(slide_id)
        return iter(record.ranked_patterns() if record is not None else ())

    def support_at(self, slide_id: int, items: Iterable[str]) -> Optional[int]:
        record = self._record(slide_id)
        return record.support_of(items) if record is not None else None

    def _first_seen(self) -> List[Tuple[int, Tuple[str, ...]]]:
        seen: Dict[Tuple[str, ...], int] = {}
        for record in self.records:
            for items, _ in record.ranked_patterns():
                seen.setdefault(items, record.slide_id)
        return [(slide, items) for items, slide in seen.items()]

    def first_frequent(self, items: Iterable[str]) -> Optional[int]:
        query = _normalise_items(items)
        for record in self.records:
            if record.support_of(query) is not None:
                return record.slide_id
        return None

    def first_frequent_between(
        self, lo: Optional[int], hi: Optional[int]
    ) -> List[Tuple[int, Tuple[str, ...]]]:
        return [
            (slide, items)
            for slide, items in self._first_seen()
            if (lo is None or slide >= lo) and (hi is None or slide <= hi)
        ]

    def last_frequent(self, items: Iterable[str]) -> Optional[int]:
        query = _normalise_items(items)
        for record in reversed(self.records):
            if record.support_of(query) is not None:
                return record.slide_id
        return None

    def items(self) -> List[str]:
        return sorted({item for record in self.records for item in record.items()})

    def stats(self) -> Dict[str, object]:
        slides = self.slide_ids()
        return {
            "slides": len(slides),
            "first_slide": slides[0] if slides else None,
            "last_slide": slides[-1] if slides else None,
            "pattern_rows": sum(record.pattern_count for record in self.records),
            "distinct_patterns": len(self._first_seen()),
            "items": len(self.items()),
        }
