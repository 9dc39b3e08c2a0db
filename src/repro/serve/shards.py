"""Sharded, snapshot-swapped posting-list index (DESIGN.md §15).

The one posting-list index of the journal, built on an *immutable
snapshot* discipline so that readers never lock and never see a
half-applied slide:

* the item → posting-list map is partitioned into N :class:`IndexShard`
  pieces by a **stable** item hash (``zlib.crc32`` — the builtin
  ``hash()`` is salted per process, which would scramble the partition
  across restarts and break warm-start hydration);
* committing one slide builds a *new* :class:`IndexSnapshot` by
  structural sharing — only the shards whose items appear in the slide
  get a new item map and totals, every untouched shard is carried over
  by reference;
* what a committed slide adds never changes, so two structures are
  append-only and shared by every snapshot, each reading them as of its
  own last slide: the per-item slide → patterns dicts (a new slide's
  postings are appended in place) and the pattern → first-slide
  :class:`~repro.history.provenance.Provenance`.  Extending a snapshot
  that is not the newest of its lineage takes private copies first;
* each slide's rows are stored in rank order (support descending, then
  size, items), sorted once at commit;
* the new snapshot is published by a single attribute assignment
  (atomic under the GIL).  A reader pins ``index.current`` once per
  query and evaluates entirely against that object, so it sees either
  all of a slide or none of it — never a half-applied commit — and the
  writer never waits for readers.

:class:`IndexSnapshot` implements the full
:class:`~repro.history.algebra.IndexReader` protocol, so the algebra
compiler runs against it unchanged.  The shard count only partitions the
posting map: every shard count answers every query byte-identically,
and ``ShardedJournalIndex(records, shard_count=1).current`` is the plain
index for library callers that never swap.
"""

from __future__ import annotations

import threading
import zlib
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

#: Default shard count of the serving index (CLI ``--shards``).
DEFAULT_SHARDS = 4

#: Format tag of a sealed serve-index payload (checkpoint/serve_index.py).
SERVE_INDEX_FORMAT = "repro-serve-index/1"


def shard_of(item: str, shard_count: int) -> int:
    """Stable shard assignment of one item (process-independent)."""
    return zlib.crc32(item.encode("utf-8")) % shard_count


def _rank_order(row: Tuple[Tuple[str, ...], int]) -> Tuple[int, int, Tuple[str, ...]]:
    """Rank order of one (items, support) row: support desc, size, items."""
    return (-row[1], len(row[0]), row[0])


def _normalise_items(items: Iterable[str]) -> Tuple[str, ...]:
    ordered = tuple(sorted(set(items)))
    if not ordered:
        raise HistoryError("a pattern query needs at least one item")
    return ordered


class IndexShard:
    """One immutable partition of the posting-list map.

    ``postings`` maps item → slide id → tuple of pattern item-tuples;
    ``posting_totals`` carries the planner's per-item selectivity
    estimates.  :meth:`extended` returns a new shard with its own item
    map and totals; the per-item slide → patterns dicts are append-only
    and shared with the parent, which never reads a slide past its own
    snapshot's last one.
    """

    __slots__ = ("shard_id", "postings", "posting_totals")

    def __init__(
        self,
        shard_id: int,
        postings: Dict[str, Dict[int, Tuple[Tuple[str, ...], ...]]],
        posting_totals: Dict[str, int],
    ) -> None:
        self.shard_id = shard_id
        self.postings = postings
        self.posting_totals = posting_totals

    @classmethod
    def empty(cls, shard_id: int) -> "IndexShard":
        return cls(shard_id, {}, {})

    def extended(
        self,
        slide_id: int,
        added: Mapping[str, Sequence[Tuple[str, ...]]],
    ) -> "IndexShard":
        """A new shard with one slide's postings appended.

        The parent keeps its items and totals; the new slide's entry is
        appended to the per-item dicts the two shards share.
        """
        postings = dict(self.postings)
        totals = dict(self.posting_totals)
        for item, patterns in added.items():
            per_item = postings.get(item)
            if per_item is None:
                per_item = postings[item] = {}
            per_item[slide_id] = tuple(patterns)
            totals[item] = totals.get(item, 0) + len(patterns)
        return IndexShard(self.shard_id, postings, totals)

    def cut(self, last_slide: Optional[int]) -> "IndexShard":
        """A copy sharing nothing, holding the slides up to ``last_slide``."""
        postings = {
            item: {
                slide: patterns
                for slide, patterns in per_item.items()
                if last_slide is not None and slide <= last_slide
            }
            for item, per_item in self.postings.items()
        }
        return IndexShard(self.shard_id, postings, dict(self.posting_totals))

    def __repr__(self) -> str:
        return f"IndexShard(id={self.shard_id}, items={len(self.postings)})"


class IndexSnapshot:
    """One immutable, fully consistent view of the sharded index.

    Implements the :class:`~repro.history.algebra.IndexReader` protocol,
    so compiled queries — and therefore their payload bytes — are the
    same at every shard count.
    """

    __slots__ = ("generation", "shards", "slides", "order", "provenance")

    def __init__(
        self,
        generation: int,
        shards: Tuple[IndexShard, ...],
        slides: Dict[int, Dict[Tuple[str, ...], int]],
        order: Tuple[int, ...],
        provenance: Provenance,
    ) -> None:
        self.generation = generation
        self.shards = shards
        #: slide id -> {items -> support}, each slide's rows in rank order.
        self.slides = slides
        self.order = order
        #: Shared with every other snapshot of this index; read as of
        #: :attr:`last_slide_id`.
        self.provenance = provenance

    @classmethod
    def empty(cls, shard_count: int) -> "IndexSnapshot":
        shards = tuple(IndexShard.empty(i) for i in range(shard_count))
        return cls(0, shards, {}, (), Provenance())

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def _shard_for(self, item: str) -> IndexShard:
        return self.shards[shard_of(item, len(self.shards))]

    # ------------------------------------------------------------------ #
    # the IndexReader protocol
    # ------------------------------------------------------------------ #
    def slide_ids(self) -> List[int]:
        """All indexed slide ids, ascending."""
        return list(self.order)

    @property
    def last_slide_id(self) -> Optional[int]:
        """The newest indexed slide id, or ``None`` for an empty index."""
        return self.order[-1] if self.order else None

    def has_slide(self, slide_id: int) -> bool:
        """Is ``slide_id`` an indexed slide?"""
        return slide_id in self.slides

    def slides_between(self, lo: Optional[int], hi: Optional[int]) -> Sequence[int]:
        """The indexed slide ids in ``[lo, hi]`` (None = open end), ascending."""
        order = self.order
        start = 0 if lo is None else bisect_left(order, lo)
        stop = len(order) if hi is None else bisect_right(order, hi)
        return order[start:stop]

    def posting_total(self, item: str) -> int:
        """Total posting length of ``item`` across every slide."""
        return self._shard_for(item).posting_totals.get(item, 0)

    def posting(self, item: str, slide_id: int) -> Sequence[Tuple[str, ...]]:
        """The patterns containing ``item`` at one slide."""
        if slide_id not in self.slides:  # a slide committed after this snapshot
            return ()
        return self._shard_for(item).postings.get(item, {}).get(slide_id, ())

    def row_count(self, slide_id: int) -> int:
        """Number of journalled pattern rows at one slide (0 if unknown)."""
        return len(self.slides.get(slide_id, ()))

    def iter_patterns_at(
        self, slide_id: int
    ) -> Iterator[Tuple[Tuple[str, ...], int]]:
        """Iterate the (items, support) rows of one slide, in rank order."""
        return iter(self.slides.get(slide_id, {}).items())

    def support_at(self, slide_id: int, items: Iterable[str]) -> Optional[int]:
        """Support of an exact itemset at one slide, or None when absent."""
        slide = self.slides.get(slide_id)
        if slide is None:
            return None
        if type(items) is tuple:  # canonical (sorted) tuples: the hot loop
            support = slide.get(items)
            if support is not None:
                return support
        return slide.get(tuple(sorted(items)))

    def first_frequent(self, items: Iterable[str]) -> Optional[int]:
        """The first slide at which the exact itemset was frequent."""
        return self.provenance.first_frequent(items, self.last_slide_id)

    def first_frequent_between(
        self, lo: Optional[int], hi: Optional[int]
    ) -> List[FirstSeen]:
        """(first slide, items) of the patterns first frequent in ``[lo, hi]``."""
        return self.provenance.first_between(lo, hi, self.last_slide_id)

    def last_frequent(self, items: Iterable[str]) -> Optional[int]:
        """The last slide at which the exact itemset was frequent."""
        query = _normalise_items(items)
        for slide in reversed(self.order):
            if query in self.slides[slide]:
                return slide
        return None

    def items(self) -> List[str]:
        """Every item that ever appeared in a journalled pattern, sorted."""
        return sorted(
            item for shard in self.shards for item in shard.postings
        )

    # ------------------------------------------------------------------ #
    # shape accessors (the /stats surface)
    # ------------------------------------------------------------------ #
    def patterns_at(self, slide_id: int) -> Dict[Tuple[str, ...], int]:
        """The full pattern → support map of one slide."""
        try:
            return dict(self.slides[slide_id])
        except KeyError:
            raise HistoryError(f"slide {slide_id} is not in the journal") from None

    def __len__(self) -> int:
        return len(self.order)

    def stats(self) -> Dict[str, object]:
        """Shape summary: slides, slide range, pattern rows, items."""
        pattern_total = sum(len(patterns) for patterns in self.slides.values())
        return {
            "slides": len(self.order),
            "first_slide": self.order[0] if self.order else None,
            "last_slide": self.order[-1] if self.order else None,
            "pattern_rows": pattern_total,
            "distinct_patterns": self.provenance.count(self.last_slide_id),
            "items": sum(len(shard.postings) for shard in self.shards),
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
        for slide in self.order:
            rows = list(self.slides[slide].items())
            slides_payload[str(slide)] = [
                [list(items), support] for items, support in rows
            ]
            row_index[slide] = {
                items: position for position, (items, _) in enumerate(rows)
            }
        shards_payload = []
        for shard in self.shards:
            shard_postings: Dict[str, Dict[str, List[int]]] = {}
            for item, per_slide in shard.postings.items():
                shard_postings[item] = {
                    str(slide): [row_index[slide][items] for items in patterns]
                    for slide, patterns in list(per_slide.items())
                    if slide in row_index
                }
            shards_payload.append({"postings": shard_postings})
        return {
            "format": SERVE_INDEX_FORMAT,
            "shard_count": len(self.shards),
            "generation": self.generation,
            "order": list(self.order),
            "slides": slides_payload,
            "shards": shards_payload,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "IndexSnapshot":
        """Hydrate a snapshot sealed by :meth:`to_payload`.

        The row order inside a slide is not trusted (older seals list
        rows in (size, items) order): every slide is re-sorted into rank
        order, and the provenance map is rebuilt from the slides.
        """
        if payload.get("format") != SERVE_INDEX_FORMAT:
            raise ServeError(
                f"unsupported serve-index format {payload.get('format')!r}"
            )
        try:
            order = tuple(int(slide) for slide in payload["order"])  # type: ignore[index]
            raw_slides: Mapping[str, object] = payload["slides"]  # type: ignore[assignment]
            raw_shards: Sequence[Mapping[str, object]] = payload["shards"]  # type: ignore[assignment]
            generation = int(payload["generation"])  # type: ignore[arg-type]
            shard_count = int(payload["shard_count"])  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError) as exc:
            raise ServeError(f"malformed serve-index payload: {exc}") from exc
        if shard_count != len(raw_shards):
            raise ServeError(
                f"serve-index payload declares {shard_count} shards but "
                f"carries {len(raw_shards)}"
            )
        slides: Dict[int, Dict[Tuple[str, ...], int]] = {}
        rows_by_slide: Dict[int, List[Tuple[str, ...]]] = {}
        for slide_key, rows in raw_slides.items():
            slide = int(slide_key)
            entries = [
                (tuple(items), int(support)) for items, support in rows  # type: ignore[union-attr]
            ]
            rows_by_slide[slide] = [items for items, _ in entries]
            entries.sort(key=_rank_order)
            slides[slide] = dict(entries)
        provenance = Provenance()
        try:
            for slide in order:
                provenance.record(slide, slides[slide])
        except KeyError as exc:
            raise ServeError(f"malformed serve-index payload: {exc}") from exc
        shards: List[IndexShard] = []
        for shard_id, raw_shard in enumerate(raw_shards):
            postings: Dict[str, Dict[int, Tuple[Tuple[str, ...], ...]]] = {}
            totals: Dict[str, int] = {}
            raw_postings: Mapping[str, Mapping[str, Sequence[int]]]
            raw_postings = raw_shard["postings"]  # type: ignore[assignment]
            for item, per_slide in raw_postings.items():
                item_postings: Dict[int, Tuple[Tuple[str, ...], ...]] = {}
                total = 0
                for slide_key, positions in per_slide.items():
                    slide = int(slide_key)
                    rows = rows_by_slide[slide]
                    entries = tuple(rows[position] for position in positions)
                    item_postings[slide] = entries
                    total += len(entries)
                postings[item] = item_postings
                totals[item] = total
            shards.append(IndexShard(shard_id, postings, totals))
        return cls(generation, tuple(shards), slides, order, provenance)


class ShardedJournalIndex:
    """The writer side: applies slide records, publishes snapshots.

    One writer (the serve app's commit path) calls :meth:`extend`; any
    number of readers call :attr:`current` — a plain attribute read —
    and never take a lock.  The internal lock only serialises *writers*
    against each other (a misuse guard; the serving loop is the single
    writer by design).
    """

    def __init__(
        self,
        records: Iterable[SlideRecord] = (),
        shard_count: int = DEFAULT_SHARDS,
    ) -> None:
        if shard_count < 1:
            raise ServeError(f"shard count must be at least 1, got {shard_count}")
        self._snapshot = IndexSnapshot.empty(shard_count)
        #: item -> shard id; crc32 is stable, so the memo is exact.
        self._shards_of: Dict[str, int] = {}
        self._swaps = 0
        self._write_lock = threading.Lock()
        self.extend(records)

    @classmethod
    def from_snapshot(cls, snapshot: IndexSnapshot) -> "ShardedJournalIndex":
        """Adopt a hydrated snapshot (warm start) as the current view."""
        index = cls(shard_count=snapshot.shard_count)
        index._snapshot = snapshot
        return index

    @property
    def shard_count(self) -> int:
        return self._snapshot.shard_count

    def _shard_of(self, item: str) -> int:
        shard_id = self._shards_of.get(item)
        if shard_id is None:
            shard_id = self._shards_of[item] = shard_of(item, self.shard_count)
        return shard_id

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
        if snapshot.order and record.slide_id <= snapshot.order[-1]:
            raise HistoryError(
                f"slide {record.slide_id} breaks the index's slide order; "
                f"already indexed up to slide {snapshot.order[-1]}"
            )
        last = snapshot.last_slide_id
        if snapshot.provenance.through != last:
            # Extending a snapshot that is not its lineage's newest (e.g.
            # one adopted after its index moved on): appending to the
            # shared per-item postings and provenance would rewrite the
            # newer snapshots' view, so this branch gets private copies.
            snapshot = IndexSnapshot(
                snapshot.generation,
                tuple(shard.cut(last) for shard in snapshot.shards),
                snapshot.slides,
                snapshot.order,
                snapshot.provenance.for_extending(last),
            )
        # One pass over the record's rank order builds the slide map, the
        # per-item postings and the slide's newly seen patterns.
        patterns = dict(record.ranked_patterns())
        added: DefaultDict[str, List[Tuple[str, ...]]] = defaultdict(list)
        seen = snapshot.provenance.first
        new: List[Tuple[str, ...]] = []
        for items in patterns:
            if items not in seen:
                new.append(items)
            for item in items:
                added[item].append(items)
        per_shard: Dict[int, Dict[str, List[Tuple[str, ...]]]] = {}
        for item, posting in added.items():
            per_shard.setdefault(self._shard_of(item), {})[item] = posting
        shards = list(snapshot.shards)
        for shard_id, postings in per_shard.items():
            shards[shard_id] = shards[shard_id].extended(record.slide_id, postings)
        slides = dict(snapshot.slides)
        slides[record.slide_id] = patterns
        snapshot.provenance.record(record.slide_id, new)
        return IndexSnapshot(
            snapshot.generation + 1,
            tuple(shards),
            slides,
            snapshot.order + (record.slide_id,),
            snapshot.provenance,
        )

    def __repr__(self) -> str:
        snapshot = self._snapshot
        return (
            f"ShardedJournalIndex(shards={snapshot.shard_count}, "
            f"slides={len(snapshot.order)}, generation={snapshot.generation})"
        )


__all__ = [
    "DEFAULT_SHARDS",
    "SERVE_INDEX_FORMAT",
    "IndexShard",
    "IndexSnapshot",
    "ShardedJournalIndex",
    "shard_of",
]
