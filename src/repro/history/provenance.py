"""Pattern provenance shared between the versions of one index (DESIGN.md §15.1).

The provenance question — "at which slide did this pattern first become
frequent?" — has an append-only answer: once a pattern has been seen,
its first slide never changes.  :class:`Provenance` keeps that answer as
a map plus two parallel lists ordered by first slide, filled at commit
time.  Every version of an index (each :class:`~repro.serve.index.
IndexSnapshot` of one lineage) holds the *same* object and reads it as
of its own last slide, ignoring entries first seen after it — so a
commit appends only the slide's new patterns and copies nothing that
grows with the journal.

One writer at a time appends; readers only look entries up and bisect
the lists, which never reorders or drops anything they can see.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Optional, Tuple

from repro.exceptions import HistoryError

#: One provenance entry: (first slide, pattern items).
FirstSeen = Tuple[int, Tuple[str, ...]]


class Provenance:
    """Pattern → first frequent slide, append-only, read as of a slide."""

    __slots__ = ("first", "slides", "patterns", "through")

    def __init__(self) -> None:
        self.first: Dict[Tuple[str, ...], int] = {}
        #: First slides, ascending (append order), parallel to ``patterns``.
        self.slides: List[int] = []
        self.patterns: List[Tuple[str, ...]] = []
        #: The newest slide recorded, or None before the first commit.
        self.through: Optional[int] = None

    def for_extending(self, last_slide: Optional[int]) -> "Provenance":
        """The provenance an index ending at ``last_slide`` may append to.

        ``self`` when ``last_slide`` is the newest slide recorded here —
        the normal case, one version extended after another.  An index
        extended from an older version (a branch) gets a private copy cut
        at its own last slide, so the versions past it stay untouched.
        """
        if self.through == last_slide:
            return self
        fork = Provenance()
        count = self.count(last_slide)
        fork.slides = self.slides[:count]
        fork.patterns = self.patterns[:count]
        fork.first = dict(zip(fork.patterns, fork.slides))
        fork.through = last_slide
        return fork

    def record(self, slide_id: int, patterns: Iterable[Tuple[str, ...]]) -> None:
        """Commit one slide's patterns (slide ids must keep ascending)."""
        first = self.first
        for items in patterns:
            if items not in first:
                first[items] = slide_id
                self.slides.append(slide_id)
                self.patterns.append(items)
        self.through = slide_id

    def first_frequent(
        self, items: Iterable[str], last_slide: Optional[int]
    ) -> Optional[int]:
        """First slide of an itemset, as seen at ``last_slide``.

        A canonical (sorted) tuple — every journalled row — is one dict
        lookup; any other spelling is normalised first.
        """
        key = items if type(items) is tuple else tuple(items)
        first = self.first.get(key)
        if first is None:
            canonical = tuple(sorted(set(key)))
            if not canonical:
                raise HistoryError("a pattern query needs at least one item")
            first = self.first.get(canonical)
        if first is None or last_slide is None or first > last_slide:
            return None
        return first

    def first_between(
        self, lo: Optional[int], hi: Optional[int], last_slide: Optional[int]
    ) -> List[FirstSeen]:
        """The patterns first frequent in ``[lo, hi]``, by first slide."""
        if last_slide is None:
            return []
        top = last_slide if hi is None else min(hi, last_slide)
        start = 0 if lo is None else bisect_left(self.slides, lo)
        stop = bisect_right(self.slides, top)
        return list(zip(self.slides[start:stop], self.patterns[start:stop]))

    def count(self, last_slide: Optional[int]) -> int:
        """Distinct patterns first seen up to ``last_slide``."""
        return 0 if last_slide is None else bisect_right(self.slides, last_slide)

    def __repr__(self) -> str:
        return f"Provenance(patterns={len(self.patterns)}, through={self.through})"


__all__ = ["FirstSeen", "Provenance"]
