"""The append-only pattern journal: one sealed record per window slide.

Every time the sliding window advances, the miner's per-slide answer — the
pattern → support map of the freshly mined window — is sealed into a
:class:`SlideRecord` and appended to a :class:`PatternJournal`.  Records are
immutable once appended, slide ids are strictly increasing, and nothing is
ever rewritten: the journal is the derived store the continuous-query
service (DESIGN.md §10) answers support-over-time, sub-pattern and
provenance queries from.

Two backends mirror the §3 segment design:

* :class:`MemoryJournal` — records live only in memory;
* :class:`DiskJournal` — the one journal writer: an append-only data file
  plus a JSON manifest and log in a directory, written data first, log
  line second, with optional hot/warm/cold retention
  (:class:`RetentionPolicy`).

:class:`JournalTail` is the one journal reader: it decodes and checks the
log from a byte cursor and never writes, so a serving process can follow a
directory another process is appending to.  The writer's open reads
through the same checked decoder and then settles what it found on disk.

**Determinism.**  A record's byte serialisation (:meth:`SlideRecord.to_bytes`)
is a pure function of the mined window: patterns are held in canonical
(size, items) order and the symbol table is sorted, so the journal produced
by ``workers=0, ingest_workers=0`` is byte-identical to any
``workers × ingest_workers × max_inflight`` combination.  Wall-clock
timings are operational metadata, not part of the mined answer — they live
in the record's ``timings`` mapping, are excluded from equality and from
:meth:`SlideRecord.to_bytes`, and are persisted in the (volatile) log
instead, exactly as the window manifest of §3 carries metadata next to the
deterministic segment files.
"""

from __future__ import annotations

import io
import json
import os
from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import reduce
from operator import attrgetter, itemgetter, or_
from pathlib import Path

from repro import faults
from repro.resilience import EventLog, FailurePolicy, retry_io
from typing import (
    TYPE_CHECKING,
    BinaryIO,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    TextIO,
    Tuple,
    Union,
)

from repro.exceptions import HistoryError
from repro.storage.segments import read_envelope_header

if TYPE_CHECKING:  # pragma: no cover - the core imports this module
    from repro.core.patterns import PatternRows

#: Magic prefix of a serialised slide record.
RECORD_MAGIC = b"JRNL"
#: File name of the (write-once) journal manifest inside a journal directory.
MANIFEST_NAME = "journal.json"
#: File name of the append-only record data file (concatenated records).
DATA_NAME = "journal.dat"
#: File name of the append-only record log next to the manifest.
LOG_NAME = "journal.log"
#: File name of the compaction intent marker (present only mid-compaction).
COMPACT_MARKER_NAME = "journal.compact.json"
#: File name of the cold-tier retention archive (one JSON line per aged slide).
ARCHIVE_NAME = "archive.jsonl"
#: Format tag written into journal manifests.
JOURNAL_FORMAT = "repro-journal/1"
#: Format tag written into compaction markers.
COMPACT_FORMAT = "repro-journal-compact/1"
#: Bytes used for each pattern's support counter in the record row block.
SUPPORT_BYTES = 4

#: Integer fields of a record header besides ``stride``.
RECORD_HEADER_INTS = (
    "slide_id",
    "first_batch",
    "last_batch",
    "num_columns",
    "minsup",
    "pattern_count",
)

#: One canonical pattern entry: (sorted item tuple, support).
PatternEntry = Tuple[Tuple[str, ...], int]


def _canonical_patterns(
    patterns: Mapping[Tuple[str, ...], int] | Tuple[PatternEntry, ...] | List[PatternEntry],
) -> Tuple[PatternEntry, ...]:
    """Validate caller data and normalise it into canonical (size, items) order.

    The untrusted boundary for caller data: every record built from it
    passes here once.  Input that already arrives in canonical order is
    validated without being sorted again.  The miner's own output
    (:class:`SlideSealer`) and decoded bytes (:meth:`SlideRecord.from_bytes`,
    which checks its rows in its own decoding walk) skip this walk.
    """
    entries: List[PatternEntry] = []
    items_seen = set()
    in_order = True
    previous: Tuple[int, Tuple[str, ...]] = (0, ())
    pairs = patterns.items() if isinstance(patterns, Mapping) else patterns
    for items, support in pairs:
        ordered = tuple(sorted(set(items)))
        support = int(support)
        if not ordered:
            raise HistoryError("a journalled pattern must contain at least one item")
        if support < 0:
            raise HistoryError(f"pattern support must be non-negative, got {support}")
        if ordered in items_seen:
            raise HistoryError(f"duplicate pattern {ordered} in one slide record")
        items_seen.add(ordered)
        entries.append((ordered, support))
        key = (len(ordered), ordered)
        if key < previous:
            in_order = False
        previous = key
    if not in_order:
        entries.sort(key=lambda entry: (len(entry[0]), entry[0]))
    return tuple(entries)


def _check_header(
    slide_id: int, first_batch: int, last_batch: int, num_columns: int, minsup: int
) -> None:
    """Reject a slide header no window could have produced."""
    if slide_id < 0:
        raise HistoryError(f"slide_id must be non-negative, got {slide_id}")
    if first_batch > last_batch:
        raise HistoryError(f"batch range [{first_batch}, {last_batch}] is empty")
    if num_columns < 0:
        raise HistoryError(f"num_columns must be non-negative, got {num_columns}")
    if minsup < 1:
        raise HistoryError(f"minsup must be at least 1, got {minsup}")


def _pattern_size(entry: PatternEntry) -> int:
    return len(entry[0])


_slide_of = attrgetter("slide_id")


@dataclass(frozen=True)
class SlideRecord:
    """The sealed per-slide answer: what was frequent when the window slid.

    Parameters
    ----------
    slide_id:
        The segment id of the batch whose commit produced this slide (one
        record per committed batch, strictly increasing).
    first_batch / last_batch:
        The segment-id range of the batches in the window at mining time
        (``last_batch == slide_id``).
    num_columns:
        Transactions in the window at mining time.
    minsup:
        The absolute minimum support the window was mined with.
    patterns:
        The pattern → support map, normalised to canonical (size, items)
        order with sorted item tuples.
    timings:
        Operational metadata (e.g. ``{"mine_s": 0.01}``).  Excluded from
        equality and from :meth:`to_bytes` — see the module docstring's
        determinism argument.
    """

    slide_id: int
    first_batch: int
    last_batch: int
    num_columns: int
    minsup: int
    patterns: Tuple[PatternEntry, ...]
    timings: Mapping[str, float] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        _check_header(
            self.slide_id, self.first_batch, self.last_batch, self.num_columns, self.minsup
        )
        object.__setattr__(self, "patterns", _canonical_patterns(self.patterns))
        object.__setattr__(self, "timings", dict(self.timings))

    @classmethod
    def _sealed(
        cls,
        patterns: Tuple[PatternEntry, ...],
        symbols: Tuple[str, ...],
        timings: Optional[Mapping[str, float]],
        masks: Optional[List[int]] = None,
        **header: int,
    ) -> "SlideRecord":
        """A record over patterns already in canonical form (:class:`SlideSealer`).

        Skips the per-pattern walk of :func:`_canonical_patterns`; the
        symbol table the seal computed is kept for :meth:`to_bytes`, and
        so are the patterns' ``masks`` over it, until the first
        :meth:`to_bytes` writes them.
        """
        _check_header(**header)
        record = object.__new__(cls)
        record.__dict__.update(
            header,
            patterns=patterns,
            timings=dict(timings) if timings else {},
            _symbols=symbols,
        )
        if masks is not None:
            record.__dict__["_masks"] = masks
        return record

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def pattern_count(self) -> int:
        """Number of patterns sealed in this record."""
        return len(self.patterns)

    def support_of(self, items) -> Optional[int]:
        """Support of one itemset in this slide, or ``None`` if not frequent."""
        wanted = tuple(sorted(items))
        for pattern_items, support in self.patterns:
            if pattern_items == wanted:
                return support
        return None

    def ranked_patterns(self) -> List[PatternEntry]:
        """The patterns in rank order: support descending, then (size, items).

        One stable sort on support alone is enough: the record already
        holds its patterns in canonical (size, items) order.
        """
        return sorted(self.patterns, key=itemgetter(1), reverse=True)

    def items(self) -> List[str]:
        """The record's symbol table: every item of every pattern, sorted."""
        return list(self._symbol_table())

    def _symbol_table(self) -> Tuple[str, ...]:
        symbols = self.__dict__.get("_symbols")
        if symbols is None:
            symbols = tuple(sorted(set().union(*map(itemgetter(0), self.patterns))))
            object.__setattr__(self, "_symbols", symbols)
        return symbols

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def to_bytes(self) -> bytes:
        """Serialise to the binary record format (deterministic, no timings).

        Layout: ``JRNL`` magic, 4-byte little-endian header length, JSON
        header (``slide_id``, ``first_batch``, ``last_batch``,
        ``num_columns``, ``minsup``, ``pattern_count``, sorted ``items``
        symbol table, ``stride``), then one fixed-width row per pattern in
        canonical order: a ``stride``-byte little-endian bitmask over the
        symbol table followed by a 4-byte little-endian support counter —
        together one ``stride + 4``-byte little-endian integer.

        A sealed record is handed its masks by the sealer; the first call
        writes those and drops them, so a resident record holds only its
        item tuples.  Any other call builds the masks from the tuples.
        """
        symbols = self._symbol_table()
        masks = self.__dict__.pop("_masks", None)
        if masks is None:
            bit = {item: 1 << position for position, item in enumerate(symbols)}.__getitem__
            # Canonical item tuples hold distinct items, so the sum of their
            # bits is the bitmask.
            masks = [sum(map(bit, items)) for items, _ in self.patterns]
        stride = max(1, (len(symbols) + 7) // 8)
        header = {
            "slide_id": self.slide_id,
            "first_batch": self.first_batch,
            "last_batch": self.last_batch,
            "num_columns": self.num_columns,
            "minsup": self.minsup,
            "pattern_count": len(self.patterns),
            "items": list(symbols),
            "stride": stride,
        }
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        shift = 8 * stride
        width = stride + SUPPORT_BYTES
        rows = [
            (mask | support << shift).to_bytes(width, "little")
            for mask, (_, support) in zip(masks, self.patterns)
        ]
        return b"".join(
            [RECORD_MAGIC, len(header_bytes).to_bytes(4, "little"), header_bytes, *rows]
        )

    @classmethod
    def from_bytes(
        cls, data: bytes, timings: Optional[Mapping[str, float]] = None
    ) -> "SlideRecord":
        """Inverse of :meth:`to_bytes` (``timings`` may be re-attached).

        One walk over the rows: the header's symbol table must be strictly
        ascending (as :meth:`to_bytes` writes it), so each mask decoded by
        its set bits is already a canonical item tuple, and the rows only
        have to arrive in strictly ascending (size, items) order.
        """
        try:
            header, offset, stride = read_envelope_header(
                io.BytesIO(data),
                RECORD_MAGIC,
                "journal record",
                "<bytes>",
                RECORD_HEADER_INTS,
            )
        except Exception as exc:  # DSMatrixError from the shared envelope parser
            raise HistoryError(f"corrupt journal record: {exc}") from exc
        symbols: List[str] = header["items"]
        if any(a >= b for a, b in zip(symbols, symbols[1:])):
            raise HistoryError(
                "corrupt journal record: the symbol table is not strictly ascending"
            )
        count = header["pattern_count"]
        row_size = stride + SUPPORT_BYTES
        if len(data) < offset + count * row_size:
            raise HistoryError(
                f"truncated journal record: row {(len(data) - offset) // row_size} "
                f"of {count} is incomplete"
            )
        if len(data) > offset + count * row_size:
            raise HistoryError(
                "corrupt journal record: trailing bytes after its last row"
            )
        shift = 8 * stride
        stride_mask = (1 << shift) - 1
        width = len(symbols)
        used = 0
        patterns: List[PatternEntry] = []
        previous: Tuple[int, Tuple[str, ...]] = (0, ())
        for row, start in enumerate(range(offset, offset + count * row_size, row_size)):
            value = int.from_bytes(data[start : start + row_size], "little")
            mask = value & stride_mask
            if not mask:
                raise HistoryError(f"journal record row {row} has an empty bitmask")
            if mask >> width:
                raise HistoryError(
                    f"journal record row {row} names an item outside the symbol table"
                )
            used |= mask
            bits = []
            while mask:
                low = mask & -mask
                bits.append(symbols[low.bit_length() - 1])
                mask ^= low
            items = tuple(bits)
            key = (len(items), items)
            if key <= previous:
                if key == previous:
                    raise HistoryError(f"duplicate pattern {items} in one slide record")
                raise HistoryError(
                    f"journal record row {row} breaks the canonical (size, items) order"
                )
            previous = key
            patterns.append((items, value >> shift))
        if used != (1 << width) - 1:
            raise HistoryError("corrupt journal record: the symbol table names unused items")
        return cls._sealed(
            tuple(patterns),
            tuple(symbols),
            timings,
            slide_id=header["slide_id"],
            first_batch=header["first_batch"],
            last_batch=header["last_batch"],
            num_columns=header["num_columns"],
            minsup=header["minsup"],
        )

    def __repr__(self) -> str:
        return (
            f"SlideRecord(slide={self.slide_id}, "
            f"batches=[{self.first_batch},{self.last_batch}], "
            f"minsup={self.minsup}, patterns={len(self.patterns)})"
        )


#: Each byte value with its eight bits in reverse order.
_REVERSED_BITS = bytes(int(f"{value:08b}"[::-1], 2) for value in range(256))


def _used_table(
    symbols: Tuple[str, ...], masks: List[int]
) -> Tuple[Tuple[str, ...], List[int]]:
    """Drop the table entries no mask uses, re-packing the masks.

    A mined window's rows use every entry (each frequent item is a
    singleton pattern), so this is a no-op on the watch path; a filtered
    result may leave items out of the record's symbol table.
    """
    used = reduce(or_, masks, 0)
    if used == (1 << len(symbols)) - 1:
        return symbols, masks
    kept = [position for position in range(len(symbols)) if used >> position & 1]
    packed = {1 << old: 1 << new for new, old in enumerate(kept)}
    repacked = []
    for mask in masks:
        value = 0
        while mask:
            low = mask & -mask
            value |= packed[low]
            mask ^= low
        repacked.append(value)
    return tuple(symbols[position] for position in kept), repacked


class SlideSealer:
    """Seals a miner's per-slide pattern rows straight into canonical records.

    The input is the :class:`~repro.core.patterns.PatternRows` of a mined
    window — one distinct, non-empty bitmask over the sorted symbol table
    plus one support per pattern — so sealing validates nothing again.
    It does three things, none of them per-pattern set work:

    * **Sort by one int per row.**  Among patterns of one size, canonical
      items order is the *descending* order of the bit-reversed masks: the
      lowest item of the two patterns' symmetric difference decides, and
      in a reversed mask that item is the highest differing bit.  So the
      key ``size << W`` minus the reversed mask (``W`` the mask width in
      bits) sorts the rows into canonical (size, items) order.
    * **Map masks to item tuples once per slide.**  In canonical order a
      pattern's parent (its mask without the highest bit) comes first, so
      its tuple is the parent's tuple plus one symbol.  Each tuple is
      interned against the *previous* slide only — by mask when the
      symbol table is unchanged, by tuple when it changed — so the
      records, the index maps and the provenance of consecutive slides
      share one tuple object per surviving pattern, and the table never
      grows with the stream.
    * **Hand the sorted masks to the record**, whose JRNL encoding writes
      them as they are (:meth:`SlideRecord.to_bytes`).
    """

    __slots__ = ("_symbols", "_tuples")

    def __init__(self) -> None:
        self._symbols: Tuple[str, ...] = ()
        self._tuples: Dict[int, Tuple[str, ...]] = {}

    def seal(
        self,
        rows: "PatternRows",
        *,
        slide_id: int,
        first_batch: int,
        last_batch: int,
        num_columns: int,
        minsup: int,
        timings: Optional[Mapping[str, float]] = None,
    ) -> SlideRecord:
        """The record of one slide whose mined answer is ``rows``."""
        symbols, masks = _used_table(tuple(rows.symbols), rows.masks)
        stride = max(1, (len(symbols) + 7) // 8)
        width = 8 * stride
        keys = [
            (mask.bit_count() << width)
            - int.from_bytes(mask.to_bytes(stride, "little").translate(_REVERSED_BITS), "big")
            for mask in masks
        ]
        order = sorted(range(len(masks)), key=keys.__getitem__)
        masks = [masks[index] for index in order]
        supports = rows.supports
        tuples = self._tuples_of(symbols, masks)
        return SlideRecord._sealed(
            tuple(zip(tuples, [supports[index] for index in order])),
            symbols,
            timings,
            masks=masks,
            slide_id=slide_id,
            first_batch=first_batch,
            last_batch=last_batch,
            num_columns=num_columns,
            minsup=minsup,
        )

    def _tuples_of(
        self, symbols: Tuple[str, ...], masks: List[int]
    ) -> List[Tuple[str, ...]]:
        """Each (canonically ordered) mask's item tuple, interned."""
        if symbols == self._symbols:
            by_mask = self._tuples
            by_tuple: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        else:
            by_mask = {}
            previous = list(self._tuples.values())
            by_tuple = dict(zip(previous, previous))
        singles = [(symbol,) for symbol in symbols]
        seen: Dict[int, Tuple[str, ...]] = {}
        tuples = []
        for mask in masks:
            items = by_mask.get(mask)
            if items is None:
                high = mask.bit_length() - 1
                parent = seen.get(mask ^ (1 << high)) if mask & (mask - 1) else ()
                if parent is None:  # a filtered answer may lack the parent
                    items = tuple(
                        symbols[position]
                        for position in range(high + 1)
                        if mask >> position & 1
                    )
                else:
                    items = parent + singles[high]
                items = by_tuple.get(items, items)
            seen[mask] = items
            tuples.append(items)
        self._symbols = symbols
        self._tuples = seen
        return tuples


class PatternJournal(ABC):
    """Append-only journal of :class:`SlideRecord` objects.

    The shared implementation keeps the sealed records in memory (they are
    small — pattern maps, not windows) and enforces the append-only
    contract: slide ids must be strictly increasing and a sealed record is
    never modified.  Concrete backends decide how records are persisted by
    implementing :meth:`_persist`.
    """

    def __init__(self) -> None:
        self._records: List[SlideRecord] = []
        #: Optional :class:`~repro.resilience.FailurePolicy` governing
        #: persist retries (DESIGN.md §14); ``None`` uses the default.
        self.failure_policy: Optional["FailurePolicy"] = None
        #: Optional shared :class:`~repro.resilience.EventLog` persist
        #: retries are recorded on.
        self.resilience_events: Optional["EventLog"] = None

    # ------------------------------------------------------------------ #
    # appending
    # ------------------------------------------------------------------ #
    def append(self, record: SlideRecord) -> None:
        """Seal one slide record into the journal (the miner's sink hook).

        The record is held only once :meth:`_persist` put it on disk, so a
        failed persist leaves the journal as it was.
        """
        if not isinstance(record, SlideRecord):
            raise HistoryError(
                f"journals accept SlideRecord objects, got {type(record).__name__}"
            )
        if self._records and record.slide_id <= self._records[-1].slide_id:
            raise HistoryError(
                f"slide {record.slide_id} breaks the append-only order; the "
                f"journal already holds slide {self._records[-1].slide_id}"
            )
        self._persist(record)
        # Resident, a record keeps only its item tuples: drop the masks the
        # sealer handed over (a disk journal's encode already took them).
        record.__dict__.pop("_masks", None)
        self._records.append(record)

    @abstractmethod
    def _persist(self, record: SlideRecord) -> None:
        """Reflect one appended record in persistent storage."""

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    @property
    def path(self) -> Optional[Path]:
        """The persistent location, when the backend has one."""
        return None

    def records(self) -> Tuple[SlideRecord, ...]:
        """Every resident record, oldest slide first."""
        return tuple(self._records)

    def records_after(self, slide_id: Optional[int]) -> List[SlideRecord]:
        """The resident records newer than ``slide_id`` (all for ``None``).

        A bisection of the slide order: O(log slides + suffix), not a walk
        of the journal.
        """
        if slide_id is None:
            return list(self._records)
        return self._records[bisect_right(self._records, slide_id, key=_slide_of) :]

    def record(self, slide_id: int) -> SlideRecord:
        """The record of one resident slide id."""
        for record in self._records:
            if record.slide_id == slide_id:
                return record
        raise HistoryError(f"no record for slide {slide_id} in the journal")

    def slide_ids(self) -> List[int]:
        """All resident slide ids, ascending."""
        return [record.slide_id for record in self._records]

    @property
    def last_slide_id(self) -> Optional[int]:
        """The newest slide id, or ``None`` for an empty journal."""
        return self._records[-1].slide_id if self._records else None

    def disk_size_bytes(self) -> int:
        """Bytes held in persistent storage (0 when none)."""
        return 0

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[SlideRecord]:
        return iter(self._records)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(slides={len(self._records)})"


class MemoryJournal(PatternJournal):
    """Journal backend with no persistence (records live in RAM)."""

    kind = "memory"

    def _persist(self, record: SlideRecord) -> None:
        pass


@dataclass(frozen=True)
class RetentionPolicy:
    """How many slides each tier of a :class:`DiskJournal` retains.

    ``None`` disables a bound: ``hot_slides=None`` keeps every record
    resident, ``warm_slides=None`` never compacts.  ``cold_sample_every``
    controls the cold tier's downsampling — every ``k``-th slide id keeps
    its full pattern map.
    """

    hot_slides: Optional[int] = None
    warm_slides: Optional[int] = None
    cold_sample_every: int = 10

    def __post_init__(self) -> None:
        for name, value in (
            ("hot_slides", self.hot_slides),
            ("warm_slides", self.warm_slides),
        ):
            if value is not None and value < 1:
                raise HistoryError(f"{name} must be at least 1, got {value}")
        if self.cold_sample_every < 1:
            raise HistoryError(
                f"cold_sample_every must be at least 1, got {self.cold_sample_every}"
            )


def summarise_record(record: SlideRecord, sample_every: int) -> Dict[str, object]:
    """One cold-archive line for a record (full patterns on sampled slides)."""
    summary: Dict[str, object] = {
        "slide_id": record.slide_id,
        "first_batch": record.first_batch,
        "last_batch": record.last_batch,
        "num_columns": record.num_columns,
        "minsup": record.minsup,
        "pattern_count": record.pattern_count,
        "max_support": max((support for _, support in record.patterns), default=0),
    }
    if record.slide_id % sample_every == 0:
        summary["patterns"] = {
            " ".join(items): support for items, support in record.patterns
        }
    return summary


class DiskJournal(PatternJournal):
    """The one journal writer: a write-once manifest (``journal.json``),
    the records' :meth:`SlideRecord.to_bytes` payloads concatenated in
    ``journal.dat`` (byte-identical across execution modes — the artifact
    the parity suite digests), and one ``journal.log`` JSON line per record
    (slide metadata, ``(offset, length)``, the volatile timings).

    An append costs O(record): the payload onto the open data handle, then
    one log line — flushed in that order, so the log only ever references
    bytes on disk, and a crash leaves at most an unreferenced data tail or
    a log line without its newline.  Opening reads the directory through
    the checked reader :class:`JournalTail` uses and then settles what it
    found on disk (:func:`_settle`); only a writer does that.

    ``retention`` (DESIGN.md §12.3) keeps the newest ``hot_slides``
    records resident, the newest ``warm_slides`` in the journal files, and
    summarises older ones into the ``archive.jsonl`` cold tier before
    :meth:`compact` retires them.  ``len()`` counts warm + cold — every
    slide ever appended; :meth:`records` returns the resident ones.
    """

    kind = "disk"

    def __init__(
        self, path: Union[str, Path], retention: Optional[RetentionPolicy] = None
    ) -> None:
        super().__init__()
        self._retention = retention if retention is not None else RetentionPolicy()
        self._path = Path(path)
        if self._path.exists() and not self._path.is_dir():
            raise HistoryError(
                f"{self._path} exists and is not a directory; a disk journal "
                "needs a directory"
            )
        self._path.mkdir(parents=True, exist_ok=True)
        # Both append handles are opened lazily on the first persist and
        # kept open for the journal's lifetime: an append then costs two
        # buffered writes, not open/close round trips.
        self._data_handle: Optional[BinaryIO] = None
        self._log_handle: Optional[TextIO] = None
        self._data_size = 0
        self._warm_count = 0
        archived = read_archive(self._path)
        self._cold_count = len(archived)
        self._last_archived = archived[-1]["slide_id"] if archived else None
        if _read_manifest(self._path) is None:
            self._write_manifest()
            return
        scan = _scan(self._path)
        self._records = _load(self._path, scan.entries)
        _settle(self._path, scan)
        self._data_size = scan.data_end
        self._warm_count = len(scan.entries)
        self._trim_resident()

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    @property
    def path(self) -> Optional[Path]:
        """The journal directory."""
        return self._path

    @property
    def data_size(self) -> int:
        """Bytes currently referenced in ``journal.dat`` (excludes orphans)."""
        return self._data_size

    @property
    def warm_count(self) -> int:
        """Records currently in the warm (full-fidelity, on-disk) tier."""
        return self._warm_count

    @property
    def cold_count(self) -> int:
        """Records summarised into the cold archive."""
        return self._cold_count

    def append(self, record: SlideRecord) -> None:
        """Append one record, then enforce the hot and warm bounds."""
        super().append(record)
        self._warm_count += 1
        self._trim_resident()
        warm = self._retention.warm_slides
        if warm is not None and self._warm_count > warm:
            self.compact(warm, on_aged=self._archive)

    def _trim_resident(self) -> None:
        """Drop the oldest in-memory records beyond the hot-tier bound.

        Only the resident cache shrinks — the records stay on disk (until a
        :meth:`compact` retires them) and reload on the next open.
        """
        hot = self._retention.hot_slides
        if hot is not None and len(self._records) > hot:
            del self._records[: len(self._records) - hot]

    def _persist(self, record: SlideRecord) -> None:
        # The append is retried under the failure policy (DESIGN.md §14):
        # a failed attempt is undone by truncating journal.dat back to the
        # last committed size before the payload is written again, so a
        # retry can never duplicate bytes.  _data_size only advances once
        # the log line referencing the payload is safely down.
        payload = record.to_bytes()
        retry_io(
            lambda: self._append_once(record, payload),
            site="journal.write",
            policy=self.failure_policy,
            events=self.resilience_events,
            reset=self._reset_append,
        )

    def _append_once(self, record: SlideRecord, payload: bytes) -> None:
        faults.trip("journal.write", OSError)
        if self._data_handle is None:
            self._data_handle = open(self._path / DATA_NAME, "ab")
        if self._log_handle is None:
            self._log_handle = open(self._path / LOG_NAME, "a", encoding="utf-8")
        offset = self._data_size
        self._data_handle.write(payload)
        # Data before log: the log must only ever reference bytes on disk.
        self._data_handle.flush()
        entry = {
            "slide_id": record.slide_id,
            "offset": offset,
            "length": len(payload),
            "first_batch": record.first_batch,
            "last_batch": record.last_batch,
            "num_columns": record.num_columns,
            "minsup": record.minsup,
            "pattern_count": record.pattern_count,
            "timings": dict(record.timings),
        }
        self._log_handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._log_handle.flush()
        self._data_size += len(payload)

    def _reset_append(self) -> None:
        """Undo a failed append attempt: drop any partially written tail."""
        self.close()
        data_path = self._path / DATA_NAME
        if data_path.exists():
            with open(data_path, "r+b") as handle:
                handle.truncate(self._data_size)

    def close(self) -> None:
        """Release the append handles (appends reopen them transparently)."""
        # getattr: __del__ may run after __init__ raised before the handle
        # attributes existed (e.g. the path-collision error).
        for name in ("_data_handle", "_log_handle"):
            handle = getattr(self, name, None)
            if handle is not None:
                handle.close()
            setattr(self, name, None)

    def __enter__(self) -> "DiskJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        self.close()

    def _write_manifest(self) -> None:
        """Write the format header once, atomically (never rewritten)."""
        payload = json.dumps(
            {"format": JOURNAL_FORMAT, "data": DATA_NAME, "log": LOG_NAME},
            sort_keys=True,
        ).encode("utf-8")
        temp = self._path / (MANIFEST_NAME + ".tmp")
        temp.write_bytes(payload)
        os.replace(temp, self._path / MANIFEST_NAME)

    # ------------------------------------------------------------------ #
    # compaction (the retention warm → cold hand-off, DESIGN.md §12)
    # ------------------------------------------------------------------ #
    def compact(
        self,
        keep_last: int,
        on_aged: Optional[
            "Callable[[List[Tuple[SlideRecord, Dict[str, object]]]], None]"
        ] = None,
    ) -> int:
        """Retire all but the newest ``keep_last`` records; returns how many.

        The aged ``(record, log-entry)`` pairs go to ``on_aged`` (oldest
        first) *before* any file is touched, so archiving there loses
        nothing to a crash.  The swap is staged marker → data → log →
        marker removal, and the new log is exactly what
        :func:`_resolve_compaction` computes from the marker, so a reader
        or the next open settles a half-done swap the same way.
        """
        if keep_last < 0:
            raise HistoryError(f"keep_last must be non-negative, got {keep_last}")
        entries = _scan(self._path).entries
        if len(entries) <= keep_last:
            return 0
        split = len(entries) - keep_last
        data = (self._path / DATA_NAME).read_bytes()
        aged = list(zip(_load(self._path, entries[:split]), entries[:split]))
        if on_aged is not None:
            on_aged(aged)
        kept = entries[split:]
        base = kept[0]["offset"] if kept else len(data)
        marker = {
            "format": COMPACT_FORMAT,
            "data_size_before": len(data),
            "base_offset": base,
            "keep_first_slide_id": kept[0]["slide_id"] if kept else None,
        }
        rebased, _ = _resolve_compaction(marker, len(data) - base, entries)
        self.close()  # release the append handles before the file swap
        _atomic_write(
            self._path,
            COMPACT_MARKER_NAME,
            json.dumps(marker, sort_keys=True).encode("utf-8"),
        )
        # Data before log: recovery tells the crash windows apart by the
        # data file's size and the log's first slide id, which requires
        # this order.
        _atomic_write(self._path, DATA_NAME, data[base:])
        _atomic_write(self._path, LOG_NAME, _render_log(rebased))
        (self._path / COMPACT_MARKER_NAME).unlink()
        self._data_size = len(data) - base
        self._warm_count -= len(aged)
        return len(aged)

    def _archive(self, aged: List[Tuple[SlideRecord, Dict[str, object]]]) -> None:
        """Summarise aged records into the cold tier (before the swap).

        A crash between archiving and the swap re-ages the same records
        next time — already-archived slide ids are skipped, so the archive
        stays append-only and duplicate-free.
        """
        fresh = [
            record
            for record, _ in aged
            if self._last_archived is None or record.slide_id > self._last_archived
        ]
        if not fresh:
            return
        with open(self._path / ARCHIVE_NAME, "a", encoding="utf-8") as handle:
            for record in fresh:
                line = summarise_record(record, self._retention.cold_sample_every)
                handle.write(json.dumps(line, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self._cold_count += len(fresh)
        self._last_archived = fresh[-1].slide_id

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def cold_records(self) -> List[Dict[str, object]]:
        """Every cold-archive summary line, oldest first."""
        return read_archive(self._path)

    def disk_size_bytes(self) -> int:
        """The journal's files plus the cold archive."""
        return _disk_size(self._path)

    def timings(self) -> Dict[int, Dict[str, float]]:
        """Per-slide timing metadata of the resident records, by slide id."""
        return {record.slide_id: dict(record.timings) for record in self._records}

    def __len__(self) -> int:
        return self._warm_count + self._cold_count


class JournalTail:
    """The one journal reader; it never writes, not even to recover.

    Each :meth:`poll` decodes ``journal.log`` from a byte cursor through
    the checked reader (:func:`_scan`, :func:`_load`).  The first poll is
    the cold load — one read of ``journal.dat`` — and a later one reads
    the line before the cursor plus the new lines and payloads.  When that
    line is no longer there, the log was rewritten (compaction, resume
    rollback; possibly to the same size, possibly in a file that reuses
    the inode): it is re-read from the top, dropping every slide id
    already returned — slide ids ascend across rewrites, so that is exact.
    """

    kind = "disk"

    def __init__(
        self, path: Union[str, Path], after_slide: Optional[int] = None
    ) -> None:
        self._path = Path(path)
        self._cursor = 0  # bytes of journal.log consumed
        self._anchor = b""  # the log line that ends at the cursor
        self._previous: Optional[int] = None  # ... and its slide id
        self._last_slide = after_slide

    @classmethod
    def open(cls, path: Union[str, Path]) -> "JournalTail":
        """A tail over an existing journal directory (HistoryError if none)."""
        directory = Path(path)
        if _read_manifest(directory) is None:
            raise HistoryError(f"no pattern journal found at {directory}")
        return cls(directory)

    @property
    def path(self) -> Path:
        return self._path

    def poll(self) -> List[SlideRecord]:
        """Every record appended since the last poll, oldest first.

        On malformed input the cursor stays where it was, so the next poll
        reads the same lines again.
        """
        scan = _scan(self._path, self._cursor, self._previous, self._anchor)
        last = self._last_slide
        fresh = [e for e in scan.entries if last is None or e["slide_id"] > last]
        records = _load(self._path, fresh)
        self._cursor, self._anchor, self._previous = scan.log_end, scan.anchor, scan.previous
        if records:
            self._last_slide = records[-1].slide_id
        return records

    def disk_size_bytes(self) -> int:
        """The journal's files plus the cold archive."""
        return _disk_size(self._path)


# ---------------------------------------------------------------------- #
# the reader's pure parts: decode, check, resolve (nothing here writes)
# ---------------------------------------------------------------------- #
#: Fields every ``journal.log`` entry must carry as non-negative integers.
LOG_ENTRY_INTS = ("slide_id", "offset", "length")


@dataclass(frozen=True)
class _Scan:
    """What one read of ``journal.log`` found; nothing on disk changed."""

    entries: List[Dict]  # checked, compaction-resolved entries
    log_end: int  # end of the last complete log line
    log_size: int  # bytes of journal.log when read
    anchor: bytes  # the last complete log line read
    previous: Optional[int]  # ... and its slide id
    data_size: int  # bytes of journal.dat when read
    data_end: int  # end of the last referenced payload
    marker: bool  # a compaction marker was present
    log_stale: bool  # ... and the log still lists the retired records


def _read_manifest(directory: Path) -> Optional[dict]:
    """The journal manifest, or ``None`` when the directory holds none."""
    manifest_path = directory / MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_bytes())
    except FileNotFoundError:
        return None
    except ValueError as exc:
        raise HistoryError(f"corrupt journal manifest in {directory}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != JOURNAL_FORMAT:
        raise HistoryError(f"{manifest_path} is not a {JOURNAL_FORMAT} manifest")
    return manifest


def _non_negative_int(value: object) -> bool:
    return type(value) is int and value >= 0


def _read_marker(directory: Path) -> Optional[dict]:
    """The compaction intent marker, or ``None`` when no compaction is open."""
    try:
        marker = json.loads((directory / COMPACT_MARKER_NAME).read_bytes())
    except FileNotFoundError:
        return None
    except ValueError:
        marker = None
    keep_first = marker.get("keep_first_slide_id", -1) if isinstance(marker, dict) else -1
    if not (
        isinstance(marker, dict)
        and marker.get("format") == COMPACT_FORMAT
        and _non_negative_int(marker.get("data_size_before"))
        and _non_negative_int(marker.get("base_offset"))
        and (keep_first is None or _non_negative_int(keep_first))
    ):
        raise HistoryError(f"corrupt compaction marker in {directory}")
    return marker


def _decode_log(
    raw: bytes, where: Path, start: int, previous: Optional[int]
) -> Tuple[List[Dict], int]:
    """Checked entries of the complete lines in ``raw`` + the bytes they span.

    ``raw`` is ``journal.log`` from byte ``start``; ``previous`` is the
    slide id of the line before it.  A last line without its newline is a
    write in flight (or torn by a crash) and is not consumed.
    """
    consumed = raw.rfind(b"\n") + 1
    entries: List[Dict] = []
    position = start
    for line in raw[:consumed].split(b"\n")[:-1]:
        at = position
        position += len(line) + 1
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except ValueError as exc:  # JSON and UTF-8 decoding errors alike
            raise HistoryError(f"corrupt journal log entry at {where} byte {at}") from exc
        if not (
            isinstance(entry, dict)
            and all(_non_negative_int(entry.get(name)) for name in LOG_ENTRY_INTS)
            and isinstance(entry.get("timings", {}), dict)
        ):
            raise HistoryError(
                f"malformed journal log entry at {where} byte {at}: {line[:80]!r} "
                "(needs non-negative integer slide_id, offset and length)"
            )
        if previous is not None and entry["slide_id"] <= previous:
            raise HistoryError(
                f"journal log entry at {where} byte {at} names slide "
                f"{entry['slide_id']} after slide {previous}; slide ids must ascend"
            )
        previous = entry["slide_id"]
        entries.append(entry)
    return entries, consumed


def _resolve_compaction(
    marker: Dict, data_size: int, entries: List[Dict]
) -> Tuple[List[Dict], bool]:
    """The log entries once an interrupted compaction is settled (pure).

    :meth:`DiskJournal.compact` writes the marker, then swaps the data
    file, then the log.  A data file still ``data_size_before`` bytes long
    means the swap never began: the attempt is abandoned and the entries
    stand.  One ``base_offset`` bytes shorter means the data swap landed:
    if the log still lists retired slides it is filtered to the kept ones
    and rebased (the second value is then ``True``); otherwise the log
    swap landed too.  Any other size is unrecoverable.
    """
    before = marker["data_size_before"]
    base = marker["base_offset"]
    keep_first = marker["keep_first_slide_id"]
    if data_size == before:
        return entries, False
    if data_size != before - base:
        raise HistoryError(
            f"unrecoverable compaction state: data file is {data_size} bytes, "
            f"expected {before} (before) or {before - base} (after)"
        )
    kept = [e for e in entries if keep_first is not None and e["slide_id"] >= keep_first]
    if len(kept) == len(entries):
        return entries, False
    if any(entry["offset"] < base for entry in kept):
        raise HistoryError("a kept journal entry lies before the compaction base")
    return [dict(entry, offset=entry["offset"] - base) for entry in kept], True


def _scan(
    directory: Path, start: int = 0, previous: Optional[int] = None, anchor: bytes = b""
) -> _Scan:
    """Read ``journal.log`` from byte ``start`` into checked entries.

    ``anchor`` is the line expected to end at ``start`` (``previous`` its
    slide id); when the log no longer holds it there, or a compaction
    marker is present, the whole log is read instead (and a marker
    resolved in memory, :func:`_resolve_compaction`).  The log is read
    before the data file's size is taken: the writer flushes a payload
    before its log line, so every line read references bytes that exist.
    """
    marker = _read_marker(directory)
    log_path = directory / LOG_NAME
    try:
        with open(log_path, "rb") as handle:
            handle.seek(max(0, start - len(anchor)))
            if marker is not None or handle.read(len(anchor)) != anchor:
                start, previous, anchor = 0, None, b""
                handle.seek(0)
            raw = handle.read()
    except FileNotFoundError:
        start, previous, anchor, raw = 0, None, b"", b""
    data_path = directory / DATA_NAME
    data_size = data_path.stat().st_size if data_path.exists() else 0
    entries, consumed = _decode_log(raw, log_path, start, previous)
    if consumed:
        anchor = raw[raw.rfind(b"\n", 0, consumed - 1) + 1 : consumed]
    if entries:
        previous = entries[-1]["slide_id"]
    log_stale = False
    if marker is not None:
        entries, log_stale = _resolve_compaction(marker, data_size, entries)
    data_end = 0
    for entry in entries:
        end = entry["offset"] + entry["length"]
        if end > data_size:
            raise HistoryError(
                f"journal data file {data_path} is truncated: the log entry "
                f"of slide {entry['slide_id']} references bytes "
                f"[{entry['offset']}, {end}) beyond its {data_size}-byte end"
            )
        data_end = max(data_end, end)
    return _Scan(
        entries,
        start + consumed,
        start + len(raw),
        anchor,
        previous,
        data_size,
        data_end,
        marker is not None,
        log_stale,
    )


def _load(directory: Path, entries: List[Dict]) -> List[SlideRecord]:
    """The records of checked entries, from one read of ``journal.dat``."""
    if not entries:
        return []
    first = min(entry["offset"] for entry in entries)
    end = max(entry["offset"] + entry["length"] for entry in entries)
    data_path = directory / DATA_NAME
    try:
        with open(data_path, "rb") as handle:
            handle.seek(first)
            data = handle.read(end - first)
    except FileNotFoundError as exc:
        raise HistoryError(f"journal data file {data_path} is missing") from exc
    if len(data) < end - first:
        raise HistoryError(f"journal data file {data_path} shrank while being read")
    records: List[SlideRecord] = []
    for entry in entries:
        offset = entry["offset"] - first
        record = SlideRecord.from_bytes(
            data[offset : offset + entry["length"]], timings=entry.get("timings")
        )
        if record.slide_id != entry["slide_id"]:
            raise HistoryError(
                f"the log entry of slide {entry['slide_id']} in {directory} "
                f"points at the record of slide {record.slide_id}"
            )
        records.append(record)
    return records


# ---------------------------------------------------------------------- #
# the writer's side: recovery, rollback and the cold archive
# ---------------------------------------------------------------------- #
def _settle(directory: Path, scan: _Scan) -> None:
    """Apply what a scan resolved in memory to disk (writers only).

    Rewrites a stale log, removes the compaction marker, and cuts a torn
    last log line and an orphan data tail: appends write at end-of-file,
    so both must go before the next logged offset can be trusted.
    """
    if scan.log_stale:
        _atomic_write(directory, LOG_NAME, _render_log(scan.entries))
    elif scan.log_size > scan.log_end:
        with open(directory / LOG_NAME, "r+b") as handle:
            handle.truncate(scan.log_end)
    if scan.marker:
        (directory / COMPACT_MARKER_NAME).unlink()
    if scan.data_size > scan.data_end:
        with open(directory / DATA_NAME, "r+b") as handle:
            handle.truncate(scan.data_end)


def _render_log(entries: List[Dict]) -> bytes:
    """Serialise log entries back to JSONL (as the writer writes them)."""
    return "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in entries).encode(
        "utf-8"
    )


def _atomic_write(directory: Path, name: str, payload: bytes) -> None:
    """Durably replace ``directory/name`` via write-temp → fsync → rename."""
    temp = directory / (name + ".tmp")
    with open(temp, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, directory / name)
    _fsync_directory(directory)


def _fsync_directory(directory: Path) -> None:
    """Flush a directory entry table (best effort on exotic filesystems)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def _disk_size(directory: Path) -> int:
    """Bytes of a journal directory's files, the cold archive included."""
    total = 0
    for name in (MANIFEST_NAME, DATA_NAME, LOG_NAME, ARCHIVE_NAME):
        part = directory / name
        if part.exists():
            total += os.path.getsize(part)
    return total


def read_archive(directory: Union[str, Path]) -> List[Dict]:
    """Every cold-archive line of a journal directory, oldest first.

    Each line must be a JSON object with a non-negative integer
    ``slide_id``, ascending; anything else is a ``HistoryError``.
    """
    archive = Path(directory) / ARCHIVE_NAME
    try:
        raw = archive.read_bytes()
    except FileNotFoundError:
        return []
    entries: List[Dict] = []
    previous = -1
    for line_number, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            entry = None
        if not (
            isinstance(entry, dict)
            and _non_negative_int(entry.get("slide_id"))
            and entry["slide_id"] > previous
        ):
            raise HistoryError(f"corrupt archive entry at {archive}:{line_number}")
        previous = entry["slide_id"]
        entries.append(entry)
    return entries


def truncate_journal(path: Union[str, Path], slide_id: int) -> Tuple[int, int]:
    """Roll a closed journal directory back to ``slide_id`` (resume support).

    Every record *after* ``slide_id`` is dropped — the log is rewritten
    atomically to the kept prefix and the data file is truncated to the
    kept records' end, so replaying the stream suffix from a checkpoint at
    ``slide_id`` re-appends the dropped records byte-identically
    (DESIGN.md §12).  Truncation is keyed by slide id, not byte offset, so
    it also holds after a retention compaction rebased the offsets.  With
    ``slide_id < 0`` the journal is reset to empty (a resume that found no
    checkpoint restarts the stream from scratch).  The journal is read
    (and settled) exactly as a writer open reads it.

    Returns ``(records_kept, data_size)``.  Raises
    :class:`~repro.exceptions.HistoryError` when the journal does not hold
    ``slide_id`` (compacted away or lost) — a checkpoint can then not be
    resumed against it.
    """
    directory = Path(path)
    if _read_manifest(directory) is None:
        if slide_id < 0:
            return 0, 0  # nothing journalled yet — a fresh start is a no-op
        raise HistoryError(
            f"no pattern journal found at {directory}; cannot resume a "
            f"checkpoint at slide {slide_id} without its journal prefix"
        )
    scan = _scan(directory)
    _load(directory, scan.entries)
    kept = [entry for entry in scan.entries if entry["slide_id"] <= slide_id]
    if slide_id >= 0 and (not kept or kept[-1]["slide_id"] != slide_id):
        raise HistoryError(
            f"journal at {directory} holds no record for slide {slide_id}; "
            "it was compacted away or never written — cannot resume there"
        )
    _settle(directory, scan)
    end = max((entry["offset"] + entry["length"] for entry in kept), default=0)
    if len(kept) != len(scan.entries):
        # Log first, then data: a crash in between leaves an unreferenced
        # data tail, which the next writer open drops.
        _atomic_write(directory, LOG_NAME, _render_log(kept))
    data_path = directory / DATA_NAME
    if data_path.exists() and data_path.stat().st_size > end:
        with open(data_path, "r+b") as handle:
            handle.truncate(end)
            handle.flush()
            os.fsync(handle.fileno())
    return len(kept), end


def open_journal(path: Union[str, Path]) -> DiskJournal:
    """Reopen an existing journal directory for appending (the writer's open)."""
    if _read_manifest(Path(path)) is None:
        raise HistoryError(f"no pattern journal found at {path}")
    return DiskJournal(path)
