"""Snapshot-swapped posting-list index (DESIGN.md §15).

The one posting-list index of the journal, built on an *immutable
snapshot* discipline so that readers never lock and never see a
half-applied slide:

* committing one slide builds a *new* :class:`IndexSnapshot` with its
  own item → posting-list map and per-item totals;
* what a committed slide adds never changes, so four structures are
  append-only and shared by every snapshot, each reading them as of its
  own last slide: the slide-id list, the slide id → rows map, the
  per-item slide → patterns dicts (a new slide's entries are appended
  in place) and the pattern → first-slide
  :class:`~repro.history.provenance.Provenance`.  A commit therefore
  copies only the per-item maps, never anything that grows with the
  history.  Extending a snapshot that is not the newest of its lineage
  takes private copies first;
* each slide's rows are stored in rank order (support descending, then
  size, items), sorted once at commit;
* the new snapshot is published by a single attribute assignment
  (atomic under the GIL).  A reader pins ``index.current`` once per
  query and evaluates entirely against that object, so it sees either
  all of a slide or none of it — never a half-applied commit — and the
  writer never waits for readers.

:class:`IndexSnapshot` implements the full
:class:`~repro.history.algebra.IndexReader` protocol, so the algebra
compiler runs against it unchanged; ``JournalIndex(records).current``
is the plain index for library callers that never swap.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from collections import defaultdict
from typing import (
    DefaultDict,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.exceptions import HistoryError, ServeError
from repro.history.journal import SlideRecord
from repro.history.provenance import FirstSeen, Provenance

#: Format tag of a sealed serve-index payload (checkpoint/serve_index.py).
SERVE_INDEX_FORMAT = "repro-serve-index/2"

#: item -> slide id -> the patterns containing the item at that slide.
Postings = Dict[str, Dict[int, Tuple[Tuple[str, ...], ...]]]


def _rank_order(row: Tuple[Tuple[str, ...], int]) -> Tuple[int, int, Tuple[str, ...]]:
    """Rank order of one (items, support) row: support desc, size, items."""
    return (-row[1], len(row[0]), row[0])


def _normalise_items(items: Iterable[str]) -> Tuple[str, ...]:
    ordered = tuple(sorted(set(items)))
    if not ordered:
        raise HistoryError("a pattern query needs at least one item")
    return ordered


def _malformed(reason: str) -> ServeError:
    return ServeError(f"malformed serve-index payload: {reason}")


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _mapping(value: object, what: str) -> Mapping[str, object]:
    if not isinstance(value, Mapping):
        raise _malformed(f"{what} is not an object")
    return value


def _slide_rows(slide: int, raw: object) -> List[Tuple[Tuple[str, ...], int]]:
    """One payload slide's ``[[items...], support]`` rows, validated."""
    if not isinstance(raw, list):
        raise _malformed(f"slide {slide} rows are not a list")
    rows: List[Tuple[Tuple[str, ...], int]] = []
    for row in raw:
        if not (isinstance(row, list) and len(row) == 2):
            raise _malformed(f"slide {slide} has a row that is not [items, support]")
        items, support = row
        if (
            not isinstance(items, list)
            or not items
            or not all(isinstance(item, str) for item in items)
            or items != sorted(set(items))
            or not _is_int(support)
        ):
            raise _malformed(f"slide {slide} has a malformed row {row!r}")
        rows.append((tuple(items), support))
    if len({items for items, _ in rows}) != len(rows):
        raise _malformed(f"slide {slide} repeats a row")
    return rows


class IndexSnapshot:
    """One immutable, fully consistent view of the index.

    Implements the :class:`~repro.history.algebra.IndexReader` protocol.
    ``postings`` maps item → slide id → tuple of pattern item-tuples;
    ``posting_totals`` carries the planner's per-item selectivity
    estimates.  The slide-id list, the slide → rows map and the per-item
    dicts are shared along the lineage: a snapshot reads the first
    ``count`` slide ids and nothing after :attr:`last_slide_id`.
    """

    __slots__ = (
        "generation",
        "postings",
        "posting_totals",
        "slides",
        "slide_order",
        "count",
        "provenance",
        "_last",
    )

    def __init__(
        self,
        generation: int,
        postings: Postings,
        posting_totals: Dict[str, int],
        slides: Dict[int, Dict[Tuple[str, ...], int]],
        slide_order: List[int],
        provenance: Provenance,
        count: Optional[int] = None,
    ) -> None:
        self.generation = generation
        self.postings = postings
        self.posting_totals = posting_totals
        #: slide id -> {items -> support}, each slide's rows in rank order
        #: (shared; holds later slides of the lineage too).
        self.slides = slides
        #: Ascending slide ids (shared); this snapshot sees the first
        #: :attr:`count`.
        self.slide_order = slide_order
        self.count = len(slide_order) if count is None else count
        self._last = slide_order[self.count - 1] if self.count else None
        #: Shared with every other snapshot of this index; read as of
        #: :attr:`last_slide_id`.
        self.provenance = provenance

    @classmethod
    def empty(cls) -> "IndexSnapshot":
        return cls(0, {}, {}, {}, [], Provenance())

    def _rows(self, slide_id: int) -> Optional[Dict[Tuple[str, ...], int]]:
        """One slide's rows, or ``None`` if this snapshot does not hold it."""
        rows = self.slides.get(slide_id)
        if rows is None or not self.count or slide_id > self._last:  # type: ignore[operator]
            return None
        return rows

    # ------------------------------------------------------------------ #
    # the IndexReader protocol
    # ------------------------------------------------------------------ #
    def slide_ids(self) -> List[int]:
        """All indexed slide ids, ascending."""
        return self.slide_order[: self.count]

    @property
    def last_slide_id(self) -> Optional[int]:
        """The newest indexed slide id, or ``None`` for an empty index."""
        return self._last

    def has_slide(self, slide_id: int) -> bool:
        """Is ``slide_id`` an indexed slide?"""
        return self._rows(slide_id) is not None

    def slides_between(self, lo: Optional[int], hi: Optional[int]) -> Sequence[int]:
        """The indexed slide ids in ``[lo, hi]`` (None = open end), ascending."""
        order = self.slide_order
        start = 0 if lo is None else bisect_left(order, lo, 0, self.count)
        stop = self.count if hi is None else bisect_right(order, hi, 0, self.count)
        return order[start:stop]

    def posting_total(self, item: str) -> int:
        """Total posting length of ``item`` across every slide."""
        return self.posting_totals.get(item, 0)

    def posting(self, item: str, slide_id: int) -> Sequence[Tuple[str, ...]]:
        """The patterns containing ``item`` at one slide."""
        if self._rows(slide_id) is None:  # a slide committed after this snapshot
            return ()
        return self.postings.get(item, {}).get(slide_id, ())

    def row_count(self, slide_id: int) -> int:
        """Number of journalled pattern rows at one slide (0 if unknown)."""
        return len(self._rows(slide_id) or ())

    def iter_patterns_at(
        self, slide_id: int
    ) -> Iterator[Tuple[Tuple[str, ...], int]]:
        """Iterate the (items, support) rows of one slide, in rank order."""
        return iter((self._rows(slide_id) or {}).items())

    def support_at(self, slide_id: int, items: Iterable[str]) -> Optional[int]:
        """Support of an exact itemset at one slide, or None when absent."""
        slide = self._rows(slide_id)
        if slide is None:
            return None
        if type(items) is tuple:  # canonical (sorted) tuples: the hot loop
            support = slide.get(items)
            if support is not None:
                return support
        return slide.get(tuple(sorted(items)))

    def first_frequent(self, items: Iterable[str]) -> Optional[int]:
        """The first slide at which the exact itemset was frequent."""
        return self.provenance.first_frequent(items, self._last)

    def first_frequent_between(
        self, lo: Optional[int], hi: Optional[int]
    ) -> List[FirstSeen]:
        """(first slide, items) of the patterns first frequent in ``[lo, hi]``."""
        return self.provenance.first_between(lo, hi, self._last)

    def last_frequent(self, items: Iterable[str]) -> Optional[int]:
        """The last slide at which the exact itemset was frequent."""
        query = _normalise_items(items)
        for slide in reversed(self.slide_ids()):
            if query in self.slides[slide]:
                return slide
        return None

    def items(self) -> List[str]:
        """Every item that ever appeared in a journalled pattern, sorted."""
        return sorted(self.postings)

    # ------------------------------------------------------------------ #
    # shape accessors (the /stats surface)
    # ------------------------------------------------------------------ #
    def patterns_at(self, slide_id: int) -> Dict[Tuple[str, ...], int]:
        """The full pattern → support map of one slide."""
        rows = self._rows(slide_id)
        if rows is None:
            raise HistoryError(f"slide {slide_id} is not in the journal")
        return dict(rows)

    def __len__(self) -> int:
        return self.count

    def stats(self) -> Dict[str, object]:
        """Shape summary: slides, slide range, pattern rows, items."""
        order = self.slide_ids()
        return {
            "slides": len(order),
            "first_slide": order[0] if order else None,
            "last_slide": self._last,
            "pattern_rows": sum(len(self.slides[slide]) for slide in order),
            "distinct_patterns": self.provenance.count(self._last),
            "items": len(self.postings),
        }

    # ------------------------------------------------------------------ #
    # warm-start serialisation (sealed through repro.checkpoint)
    # ------------------------------------------------------------------ #
    def to_payload(self) -> Dict[str, object]:
        """The JSON-able form a serve-index checkpoint seals.

        Postings are stored as row indices into each slide's canonical
        row list, so the payload carries every itemset exactly once and
        hydration is pure deserialisation — no posting reconstruction.
        """
        slides_payload: Dict[str, List[List[object]]] = {}
        row_index: Dict[int, Dict[Tuple[str, ...], int]] = {}
        for slide in self.slide_ids():
            rows = list(self.slides[slide].items())
            slides_payload[str(slide)] = [
                [list(items), support] for items, support in rows
            ]
            row_index[slide] = {
                items: position for position, (items, _) in enumerate(rows)
            }
        postings_payload = {
            item: {
                str(slide): [row_index[slide][items] for items in patterns]
                for slide, patterns in list(per_slide.items())
                if slide in row_index
            }
            for item, per_slide in self.postings.items()
        }
        return {
            "format": SERVE_INDEX_FORMAT,
            "generation": self.generation,
            "order": self.slide_ids(),
            "slides": slides_payload,
            "postings": postings_payload,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "IndexSnapshot":
        """Hydrate a snapshot sealed by :meth:`to_payload`.

        The payload is not trusted: any shape :meth:`to_payload` cannot
        write raises :class:`~repro.exceptions.ServeError` (the caller's
        cue to build cold).  Posting positions must index rows that hold
        their item and cover every (item, row) pair exactly once.  The row order inside a slide is not trusted either: every
        slide is re-sorted into rank order, and the provenance map is
        rebuilt from the slides.
        """
        payload = _mapping(payload, "the payload")
        if payload.get("format") != SERVE_INDEX_FORMAT:
            raise ServeError(
                f"unsupported serve-index format {payload.get('format')!r}"
            )
        missing = {"generation", "order", "slides", "postings"} - set(payload)
        if missing:
            raise _malformed(f"missing {sorted(missing)}")
        generation, order = payload["generation"], payload["order"]
        if not _is_int(generation):
            raise _malformed("generation is not an integer")
        if not (
            isinstance(order, list)
            and all(_is_int(slide) for slide in order)
            and all(a < b for a, b in zip(order, order[1:]))
        ):
            raise _malformed("order is not an ascending list of slide ids")
        raw_slides = _mapping(payload["slides"], "slides")
        if set(raw_slides) != {str(slide) for slide in order}:
            raise _malformed("slides do not match order")
        rows_by_key = {
            str(slide): _slide_rows(slide, raw_slides[str(slide)]) for slide in order
        }
        postings: Postings = {}
        totals: Dict[str, int] = {}
        for item, raw_per_slide in _mapping(payload["postings"], "postings").items():
            per_slide = _mapping(raw_per_slide, f"postings of {item!r}")
            if not per_slide:
                raise _malformed(f"item {item!r} has no postings")
            item_postings: Dict[int, Tuple[Tuple[str, ...], ...]] = {}
            for slide_key, positions in per_slide.items():
                rows = rows_by_key.get(slide_key)  # type: ignore[call-overload]
                if rows is None:
                    raise _malformed(f"item {item!r} posts to unknown slide {slide_key!r}")
                if not (
                    isinstance(positions, list)
                    and positions
                    and all(_is_int(position) for position in positions)
                    and all(0 <= position < len(rows) for position in positions)
                    and len(set(positions)) == len(positions)
                ):
                    raise _malformed(
                        f"item {item!r} at slide {slide_key} has bad positions"
                    )
                entries = tuple(rows[position][0] for position in positions)
                if not all(item in items for items in entries):
                    raise _malformed(
                        f"item {item!r} at slide {slide_key} posts a row without it"
                    )
                item_postings[int(slide_key)] = entries
            postings[item] = item_postings
            totals[item] = sum(len(entries) for entries in item_postings.values())
        expected = sum(len(items) for rows in rows_by_key.values() for items, _ in rows)
        if sum(totals.values()) != expected:
            raise _malformed("postings do not cover every row's items")
        slides: Dict[int, Dict[Tuple[str, ...], int]] = {}
        provenance = Provenance()
        for slide in order:
            slides[slide] = dict(sorted(rows_by_key[str(slide)], key=_rank_order))
            provenance.record(slide, slides[slide])
        return cls(generation, postings, totals, slides, list(order), provenance)


def _cut(postings: Postings, last_slide: Optional[int]) -> Postings:
    """A copy sharing nothing, holding the slides up to ``last_slide``."""
    return {
        item: {
            slide: patterns
            for slide, patterns in per_item.items()
            if last_slide is not None and slide <= last_slide
        }
        for item, per_item in postings.items()
    }


class JournalIndex:
    """The writer side: applies slide records, publishes snapshots.

    One writer (the serve app's commit path) calls :meth:`extend`; any
    number of readers call :attr:`current` — a plain attribute read —
    and never take a lock.  The internal lock only serialises *writers*
    against each other (a misuse guard; the serving loop is the single
    writer by design).
    """

    def __init__(self, records: Iterable[SlideRecord] = ()) -> None:
        self._snapshot = IndexSnapshot.empty()
        self._swaps = 0
        self._write_lock = threading.Lock()
        self.extend(records)

    @classmethod
    def from_snapshot(cls, snapshot: IndexSnapshot) -> "JournalIndex":
        """Adopt a hydrated snapshot (warm start) as the current view."""
        index = cls()
        index._snapshot = snapshot
        return index

    @property
    def swaps(self) -> int:
        """Snapshots published so far (one per committed slide)."""
        return self._swaps

    @property
    def current(self) -> IndexSnapshot:
        """The live snapshot — one atomic reference read, never a lock."""
        return self._snapshot

    def extend(self, records: Iterable[SlideRecord]) -> IndexSnapshot:
        """Commit records one slide at a time, publishing after each.

        Publishing per slide (not per batch) is what gives readers the
        snapshot-consistency guarantee: every observable state is "all
        slides up to some commit", never a partial slide.
        """
        with self._write_lock:
            snapshot = self._snapshot
            for record in records:
                snapshot = self._apply(snapshot, record)
                self._snapshot = snapshot  # the atomic swap
                self._swaps += 1
            return self._snapshot

    def _apply(self, snapshot: IndexSnapshot, record: SlideRecord) -> IndexSnapshot:
        last = snapshot.last_slide_id
        if last is not None and record.slide_id <= last:
            raise HistoryError(
                f"slide {record.slide_id} breaks the index's slide order; "
                f"already indexed up to slide {last}"
            )
        postings = snapshot.postings
        provenance = snapshot.provenance
        slides = snapshot.slides
        slide_order = snapshot.slide_order
        if len(slide_order) != snapshot.count:
            # Extending a snapshot that is not its lineage's newest (e.g.
            # one adopted after its index moved on): appending to the
            # shared structures would rewrite the newer snapshots' view,
            # so this branch gets private copies.
            postings = _cut(postings, last)
            provenance = provenance.for_extending(last)
            slide_order = slide_order[: snapshot.count]
            slides = {slide: slides[slide] for slide in slide_order}
        # One pass over the record's rank order builds the slide map, the
        # per-item postings and the slide's newly seen patterns.
        patterns = dict(record.ranked_patterns())
        added: DefaultDict[str, List[Tuple[str, ...]]] = defaultdict(list)
        seen = provenance.first
        new: List[Tuple[str, ...]] = []
        for items in patterns:
            if items not in seen:
                new.append(items)
            for item in items:
                added[item].append(items)
        postings = dict(postings)
        totals = dict(snapshot.posting_totals)
        for item, posting in added.items():
            per_item = postings.get(item)
            if per_item is None:
                per_item = postings[item] = {}
            per_item[record.slide_id] = tuple(posting)
            totals[item] = totals.get(item, 0) + len(posting)
        slides[record.slide_id] = patterns
        slide_order.append(record.slide_id)
        provenance.record(record.slide_id, new)
        return IndexSnapshot(
            snapshot.generation + 1, postings, totals, slides, slide_order, provenance
        )

    def __repr__(self) -> str:
        snapshot = self._snapshot
        return (
            f"JournalIndex(slides={snapshot.count}, "
            f"generation={snapshot.generation})"
        )


__all__ = [
    "SERVE_INDEX_FORMAT",
    "IndexSnapshot",
    "JournalIndex",
]
