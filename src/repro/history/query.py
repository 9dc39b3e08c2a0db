"""Indexed queries over a pattern journal (DESIGN.md §10).

A :class:`JournalIndex` is built once over a journal's sealed records and
then answers the continuous-query surface without rescanning every record:

* **super-pattern match** — patterns that *contain* a given itemset
  (posting-list intersection over the query items);
* **sub-pattern match** — patterns *contained in* a given itemset
  (posting-list union, then subset check);
* **support history** — one (slide, support) point per journalled slide
  for an exact itemset, the "support over time" curve;
* **top-k at a slide** — the k highest-support patterns of one slide;
* **provenance** — :meth:`first_frequent` / :meth:`last_frequent`, the
  slides at which a pattern entered / was last seen in the frequent set
  (the "when did this become frequent" question of query-answer
  causality).

The index is immutable once built — the serving front end shares one
instance across reader threads without locking.  Rebuild (or
:meth:`extend`) it when the journal gains records.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import HistoryError
from repro.history.journal import PatternJournal, SlideRecord
from repro.history.provenance import FirstSeen, Provenance

#: One query hit: (slide id, sorted item tuple, support).
Match = Tuple[int, Tuple[str, ...], int]


def _warn_deprecated(old: str, replacement: str) -> None:
    warnings.warn(
        f"{old} is deprecated; use the query algebra (repro.history.algebra) "
        f"instead: {replacement}",
        DeprecationWarning,
        stacklevel=3,
    )


def _normalise_items(items: Iterable[str]) -> Tuple[str, ...]:
    ordered = tuple(sorted(set(items)))
    if not ordered:
        raise HistoryError("a pattern query needs at least one item")
    return ordered


class JournalIndex:
    """Item-posting index over the sealed records of a pattern journal."""

    def __init__(self, records: Iterable[SlideRecord]) -> None:
        #: slide id -> {pattern items -> support}, insertion = slide order;
        #: each slide's rows in rank order (support desc, size, items).
        self._slides: Dict[int, Dict[Tuple[str, ...], int]] = {}
        #: item -> slide id -> pattern item-tuples containing the item.
        self._postings: Dict[str, Dict[int, List[Tuple[str, ...]]]] = {}
        self._order: List[int] = []
        #: pattern -> first slide, shared with every ``extended`` index.
        self._provenance = Provenance()
        self.extend(records)

    @classmethod
    def from_journal(cls, journal: PatternJournal) -> "JournalIndex":
        """Build an index over every record currently in ``journal``."""
        return cls(journal.records())

    def extend(self, records: Iterable[SlideRecord]) -> None:
        """Index additional records (slide ids must keep ascending)."""
        self._provenance = self._provenance.for_extending(self.last_slide_id)
        for record in records:
            if self._order and record.slide_id <= self._order[-1]:
                raise HistoryError(
                    f"slide {record.slide_id} breaks the index's slide order; "
                    f"already indexed up to slide {self._order[-1]}"
                )
            patterns: Dict[Tuple[str, ...], int] = {}
            for items, support in record.ranked_patterns():
                patterns[items] = support
                for item in items:
                    self._postings.setdefault(item, {}).setdefault(
                        record.slide_id, []
                    ).append(items)
            self._slides[record.slide_id] = patterns
            self._order.append(record.slide_id)
            self._provenance.record(record.slide_id, patterns)

    def extended(self, records: Iterable[SlideRecord]) -> "JournalIndex":
        """A *new* index equal to this one plus ``records``.

        The snapshot-swap discipline for the service layer: untouched
        structure is shared with this index (top-level maps are copied,
        the per-item posting map of every item the suffix touches is
        copied, everything else is carried by reference), so this index
        keeps answering exactly as before while the caller atomically
        swaps the returned index in.  :meth:`extend` never mutates an
        already-indexed slide's inner structure, which is what makes the
        sharing safe.  The provenance map is shared outright: it is
        append-only, and this index reads it as of its own last slide.
        """
        suffix = list(records)
        clone = JournalIndex.__new__(JournalIndex)
        clone._slides = dict(self._slides)
        clone._postings = dict(self._postings)
        clone._order = list(self._order)
        clone._provenance = self._provenance
        for record in suffix:
            for items, _support in record.patterns:
                for item in items:
                    original = self._postings.get(item)
                    if original is not None and clone._postings[item] is original:
                        clone._postings[item] = dict(original)
        clone.extend(suffix)
        return clone

    # ------------------------------------------------------------------ #
    # shape accessors
    # ------------------------------------------------------------------ #
    def slide_ids(self) -> List[int]:
        """All indexed slide ids, ascending."""
        return list(self._order)

    @property
    def last_slide_id(self) -> Optional[int]:
        """The newest indexed slide id, or ``None`` for an empty index."""
        return self._order[-1] if self._order else None

    def patterns_at(self, slide_id: int) -> Dict[Tuple[str, ...], int]:
        """The full pattern → support map of one slide."""
        try:
            return dict(self._slides[slide_id])
        except KeyError:
            raise HistoryError(f"slide {slide_id} is not in the journal") from None

    def items(self) -> List[str]:
        """Every item that ever appeared in a journalled pattern, sorted."""
        return sorted(self._postings)

    def __len__(self) -> int:
        return len(self._order)

    # ------------------------------------------------------------------ #
    # posting accessors (the algebra compiler's raw material)
    # ------------------------------------------------------------------ #
    def has_slide(self, slide_id: int) -> bool:
        """Is ``slide_id`` an indexed slide?"""
        return slide_id in self._slides

    def slides_between(self, lo: Optional[int], hi: Optional[int]) -> List[int]:
        """The indexed slide ids in ``[lo, hi]`` (None = open end), ascending."""
        order = self._order
        start = 0 if lo is None else bisect_left(order, lo)
        stop = len(order) if hi is None else bisect_right(order, hi)
        return order[start:stop]

    def posting_total(self, item: str) -> int:
        """Total posting length of ``item`` across every slide.

        This is the planner's selectivity estimate: it is already known
        at index-build time, so ordering intersections smallest-first
        costs nothing extra.
        """
        posting = self._postings.get(item)
        if not posting:
            return 0
        return sum(len(entries) for entries in posting.values())

    def posting(self, item: str, slide_id: int) -> Sequence[Tuple[str, ...]]:
        """The patterns containing ``item`` at one slide (read-only view)."""
        return self._postings.get(item, {}).get(slide_id, ())

    def row_count(self, slide_id: int) -> int:
        """Number of journalled pattern rows at one slide (0 if unknown)."""
        return len(self._slides.get(slide_id, ()))

    def iter_patterns_at(self, slide_id: int) -> Iterator[Tuple[Tuple[str, ...], int]]:
        """Iterate the (items, support) rows of one slide, in rank order."""
        return iter(self._slides.get(slide_id, {}).items())

    def support_at(self, slide_id: int, items: Iterable[str]) -> Optional[int]:
        """Support of an exact itemset at one slide, or None when absent."""
        slide = self._slides.get(slide_id)
        if slide is None:
            return None
        key = items if isinstance(items, tuple) else tuple(items)
        if key in slide:  # fast path: canonical (sorted) tuples, the hot loop
            return slide[key]
        return slide.get(tuple(sorted(key)))

    # ------------------------------------------------------------------ #
    # pattern-match queries
    # ------------------------------------------------------------------ #
    def _query_slides(self, slide_id: Optional[int]) -> List[int]:
        if slide_id is None:
            return list(self._order)
        if slide_id not in self._slides:
            raise HistoryError(f"slide {slide_id} is not in the journal")
        return [slide_id]

    def _canned_match(
        self, items: Iterable[str], slide_id: Optional[int], mode: str
    ) -> List[Match]:
        """Run one legacy containment query as a compiled algebra plan."""
        from repro.history import algebra

        query = _normalise_items(items)
        self._query_slides(slide_id)  # preserve the unknown-slide error
        where: "algebra.Predicate"
        if mode == "super":
            where = algebra.contains(*query)
        else:
            where = algebra.contained_in(*query)
        if slide_id is not None:
            where = algebra.and_(where, algebra.slides(slide_id, slide_id))
        return algebra.evaluate(algebra.select(where), self).matches

    def super_patterns(
        self, items: Iterable[str], slide_id: Optional[int] = None
    ) -> List[Match]:
        """Patterns that contain every query item (optionally at one slide).

        .. deprecated:: use the algebra instead —
           ``evaluate(select(contains(*items)), index)``; this shim runs
           exactly that compiled plan.
        """
        _warn_deprecated(
            "JournalIndex.super_patterns", "evaluate(select(contains(*items)), index)"
        )
        return self._canned_match(items, slide_id, "super")

    def sub_patterns(
        self, items: Iterable[str], slide_id: Optional[int] = None
    ) -> List[Match]:
        """Patterns contained in the query itemset (optionally at one slide).

        .. deprecated:: use the algebra instead —
           ``evaluate(select(contained_in(*items)), index)``; this shim
           runs exactly that compiled plan.
        """
        _warn_deprecated(
            "JournalIndex.sub_patterns",
            "evaluate(select(contained_in(*items)), index)",
        )
        return self._canned_match(items, slide_id, "sub")

    # ------------------------------------------------------------------ #
    # history and provenance
    # ------------------------------------------------------------------ #
    def support_history(self, items: Iterable[str]) -> List[Tuple[int, int]]:
        """The (slide, support) curve of one exact itemset over every slide.

        Slides where the itemset was not frequent contribute support 0, so
        the curve always has one point per journalled slide — trend
        detection never has to guess whether a gap means "absent" or
        "unknown".

        .. deprecated:: use the algebra instead —
           ``evaluate(history(*items), index).curve``; this shim runs
           exactly that plan.
        """
        from repro.history import algebra

        _warn_deprecated(
            "JournalIndex.support_history", "evaluate(history(*items), index).curve"
        )
        query = _normalise_items(items)
        return algebra.evaluate(algebra.history(*query), self).curve

    def first_frequent(self, items: Iterable[str]) -> Optional[int]:
        """The first slide at which the exact itemset was frequent."""
        return self._provenance.first_frequent(items, self.last_slide_id)

    def first_frequent_between(
        self, lo: Optional[int], hi: Optional[int]
    ) -> List[FirstSeen]:
        """(first slide, items) of the patterns first frequent in ``[lo, hi]``."""
        return self._provenance.first_between(lo, hi, self.last_slide_id)

    def last_frequent(self, items: Iterable[str]) -> Optional[int]:
        """The last slide at which the exact itemset was frequent."""
        query = _normalise_items(items)
        for slide in reversed(self._order):
            if query in self._slides[slide]:
                return slide
        return None

    # ------------------------------------------------------------------ #
    # ranking and stats
    # ------------------------------------------------------------------ #
    def top_k(self, k: int, slide_id: Optional[int] = None) -> List[Match]:
        """The ``k`` highest-support patterns of one slide (default: newest).

        .. deprecated:: use the algebra instead —
           ``evaluate(top_k(k, where=slides(s, s)), index)``; this shim
           runs exactly that plan.
        """
        from repro.history import algebra

        _warn_deprecated(
            "JournalIndex.top_k", "evaluate(top_k(k, where=slides(s, s)), index)"
        )
        if k < 1:
            raise HistoryError(f"k must be at least 1, got {k}")
        if slide_id is None:
            if not self._order:
                return []
            slide_id = self._order[-1]
        elif slide_id not in self._slides:
            raise HistoryError(f"slide {slide_id} is not in the journal")
        expression = algebra.top_k(k, where=algebra.slides(slide_id, slide_id))
        return algebra.evaluate(expression, self).matches

    def stats(self) -> Dict[str, object]:
        """Shape summary of the indexed journal (the ``/stats`` payload)."""
        pattern_total = sum(len(patterns) for patterns in self._slides.values())
        return {
            "slides": len(self._order),
            "first_slide": self._order[0] if self._order else None,
            "last_slide": self._order[-1] if self._order else None,
            "pattern_rows": pattern_total,
            "distinct_patterns": self._provenance.count(self.last_slide_id),
            "items": len(self._postings),
        }

    def __repr__(self) -> str:
        return (
            f"JournalIndex(slides={len(self._order)}, "
            f"items={len(self._postings)})"
        )


# ---------------------------------------------------------------------- #
# brute-force reference implementations
# ---------------------------------------------------------------------- #
def brute_force_super_patterns(
    records: Sequence[SlideRecord], items: Iterable[str], slide_id: Optional[int] = None
) -> List[Match]:
    """Reference scan for :meth:`JournalIndex.super_patterns` (tests/bench)."""
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
    """Reference scan for :meth:`JournalIndex.sub_patterns` (tests/bench)."""
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
    """Reference scan for :meth:`JournalIndex.support_history` (tests/bench)."""
    query = _normalise_items(items)
    history: List[Tuple[int, int]] = []
    for record in records:
        support = record.support_of(query)
        history.append((record.slide_id, support if support is not None else 0))
    return history
