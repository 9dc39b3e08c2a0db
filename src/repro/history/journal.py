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
* :class:`DiskJournal` — one binary record file per slide plus a JSON
  manifest in a directory, written with the same crash-safe ordering as the
  segmented window store (record file first, manifest swap second).

**Determinism.**  A record's byte serialisation (:meth:`SlideRecord.to_bytes`)
is a pure function of the mined window: patterns are held in canonical
(size, items) order and the symbol table is sorted, so the journal produced
by ``workers=0, ingest_workers=0`` is byte-identical to any
``workers × ingest_workers × max_inflight`` combination.  Wall-clock
timings are operational metadata, not part of the mined answer — they live
in the record's ``timings`` mapping, are excluded from equality and from
:meth:`SlideRecord.to_bytes`, and are persisted in the (volatile) manifest
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
from operator import attrgetter, itemgetter
from pathlib import Path

from repro import faults
from repro.resilience import EventLog, FailurePolicy, retry_io
from typing import (
    BinaryIO,
    Callable,
    Dict,
    FrozenSet,
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
        **header: int,
    ) -> "SlideRecord":
        """A record over patterns already in canonical form (:class:`SlideSealer`).

        Skips the per-pattern walk of :func:`_canonical_patterns`; the
        symbol table the seal computed is kept for :meth:`to_bytes`.
        """
        _check_header(**header)
        record = object.__new__(cls)
        record.__dict__.update(
            header,
            patterns=patterns,
            timings=dict(timings) if timings else {},
            _symbols=symbols,
        )
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
        """
        symbols = self._symbol_table()
        bit = {item: 1 << position for position, item in enumerate(symbols)}.__getitem__
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
        # Canonical item tuples hold distinct items, so the sum of their
        # bits is the bitmask.
        rows = [
            (sum(map(bit, items)) | support << shift).to_bytes(width, "little")
            for items, support in self.patterns
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


class SlideSealer:
    """Seals a miner's per-slide answers straight into canonical records.

    The input is a :class:`~repro.core.patterns.MiningResult`'s validated
    pattern → support map (non-empty item sets, non-negative supports, one
    entry per pattern), so sealing validates nothing again; it only puts
    the map in canonical (size, items) order — one lexicographic sort of
    the distinct item tuples, then a stable pass by size — and computes
    the symbol table :meth:`SlideRecord.to_bytes` writes.

    Each pattern's item tuple is interned against the *previous* slide's
    table only: most patterns survive a slide, so most tuples are reused
    rather than sorted again, and the records, the index maps and the
    provenance of consecutive slides share one tuple object per pattern.
    The table holds one slide, so it never grows with the stream.
    """

    __slots__ = ("_previous",)

    def __init__(self) -> None:
        self._previous: Dict[FrozenSet[str], Tuple[str, ...]] = {}

    def seal(
        self,
        counts: Mapping[FrozenSet[str], int],
        *,
        slide_id: int,
        first_batch: int,
        last_batch: int,
        num_columns: int,
        minsup: int,
        timings: Optional[Mapping[str, float]] = None,
    ) -> SlideRecord:
        """The record of one slide whose mined answer is ``counts``."""
        previous = self._previous.get
        tuples = [previous(pattern) or tuple(sorted(pattern)) for pattern in counts]
        self._previous = dict(zip(counts, tuples))
        rows = sorted(zip(tuples, counts.values()), key=itemgetter(0))
        rows.sort(key=_pattern_size)
        return SlideRecord._sealed(
            tuple(rows),
            tuple(sorted(set().union(*counts))),
            timings,
            slide_id=slide_id,
            first_batch=first_batch,
            last_batch=last_batch,
            num_columns=num_columns,
            minsup=minsup,
        )


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
        """Seal one slide record into the journal (the miner's sink hook)."""
        if not isinstance(record, SlideRecord):
            raise HistoryError(
                f"journals accept SlideRecord objects, got {type(record).__name__}"
            )
        if self._records and record.slide_id <= self._records[-1].slide_id:
            raise HistoryError(
                f"slide {record.slide_id} breaks the append-only order; the "
                f"journal already holds slide {self._records[-1].slide_id}"
            )
        self._records.append(record)
        self._persist(record)

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
        """Every sealed record, oldest slide first."""
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
        """The record of one slide id."""
        for record in self._records:
            if record.slide_id == slide_id:
                return record
        raise HistoryError(f"no record for slide {slide_id} in the journal")

    def slide_ids(self) -> List[int]:
        """All journalled slide ids, ascending."""
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


class DiskJournal(PatternJournal):
    """Journal persisted as an append-only data file plus a manifest + log.

    Three files make up the on-disk layout, all append-only after creation:

    * ``journal.json`` — the write-once format header (the manifest, never
      rewritten);
    * ``journal.dat`` — the sealed records' :meth:`SlideRecord.to_bytes`
      payloads, concatenated in slide order.  Each payload is a
      deterministic function of the mined window, so the whole file is
      byte-identical across execution modes — the artifact the parity
      suite digests;
    * ``journal.log`` — one JSON line per record: slide metadata, the
      record's ``(offset, length)`` inside ``journal.dat``, and the
      volatile timings that must stay out of the deterministic bytes.

    An append costs O(record): payload bytes onto the open data handle,
    one log line onto the open log handle — no file creation and no
    rewrite (a manifest listing every record would make the journal's
    lifetime cost quadratic, and a file per record pays a directory-entry
    creation per slide).  The data file is flushed before the log line is
    written, so at every crash point the log references only bytes that
    exist; a crash between the two writes leaves at most one unreferenced
    record tail — the same orphan guarantee as the §3 segment store.
    """

    kind = "disk"

    def __init__(
        self, path: Union[str, Path], max_resident: Optional[int] = None
    ) -> None:
        super().__init__()
        if max_resident is not None and max_resident < 1:
            raise HistoryError(
                f"max_resident must be at least 1, got {max_resident}"
            )
        self._max_resident = max_resident
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
        manifest = self._read_manifest_if_present(self._path)
        if manifest is not None:
            self._recover_compaction()
            self._resume_from_log()
            self._trim_resident()
        else:
            self._write_manifest()

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
    def max_resident(self) -> Optional[int]:
        """Bound on in-memory records (the retention hot tier), if any."""
        return self._max_resident

    def _trim_resident(self) -> None:
        """Drop the oldest in-memory records beyond the hot-tier bound.

        Only the resident cache shrinks — the records stay on disk (until a
        :meth:`compact` retires them) and reload on the next open.
        """
        if self._max_resident is not None and len(self._records) > self._max_resident:
            del self._records[: len(self._records) - self._max_resident]

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
        self._trim_resident()

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

    # ------------------------------------------------------------------ #
    # resuming / loading
    # ------------------------------------------------------------------ #
    @staticmethod
    def _read_manifest_if_present(path: Path) -> Optional[dict]:
        manifest_path = path / MANIFEST_NAME
        if not manifest_path.exists():
            return None
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HistoryError(f"corrupt journal manifest in {path}") from exc
        if manifest.get("format") != JOURNAL_FORMAT:
            raise HistoryError(
                f"{manifest_path} has unsupported journal format "
                f"{manifest.get('format')!r}"
            )
        return manifest

    def _write_manifest(self) -> None:
        """Write the format header once, atomically (never rewritten)."""
        payload = json.dumps(
            {"format": JOURNAL_FORMAT, "data": DATA_NAME, "log": LOG_NAME},
            sort_keys=True,
        ).encode("utf-8")
        temp = self._path / (MANIFEST_NAME + ".tmp")
        temp.write_bytes(payload)
        os.replace(temp, self._path / MANIFEST_NAME)

    def _resume_from_log(self) -> None:
        log_path = self._path / LOG_NAME
        data_path = self._path / DATA_NAME
        if not log_path.exists():
            return  # manifest written, nothing appended yet
        data = data_path.read_bytes() if data_path.exists() else b""
        end = 0
        with open(log_path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise HistoryError(
                        f"corrupt journal log entry at {log_path}:{line_number}"
                    ) from exc
                offset, length = entry["offset"], entry["length"]
                if offset + length > len(data):
                    raise HistoryError(
                        f"journal data file {data_path} is truncated: log "
                        f"entry {line_number} references bytes "
                        f"[{offset}, {offset + length}) beyond its "
                        f"{len(data)}-byte end"
                    )
                self._records.append(
                    SlideRecord.from_bytes(
                        data[offset : offset + length],
                        timings=entry.get("timings"),
                    )
                )
                end = max(end, offset + length)
        if len(data) > end:
            # A crash between the data flush and its log line left an
            # unreferenced tail.  Drop it now: appends write at physical
            # end-of-file, so the orphan must go before the next append's
            # logged offset can be trusted.
            with open(data_path, "r+b") as data_handle:
                data_handle.truncate(end)
        self._data_size = end

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
        """Retire all but the newest ``keep_last`` records from disk.

        The aged ``(record, log-entry)`` pairs are handed to ``on_aged``
        (oldest first) *before* any file is touched — a tiered journal
        archives them there, so a crash at any point loses nothing (a crash
        after archiving but before the swap re-ages the same records on the
        next attempt; the archiver deduplicates by slide id).  The swap
        itself is staged behind an intent marker: marker → data swap → log
        swap → marker removal, with :meth:`_recover_compaction` completing
        or abandoning a half-done swap on the next open.  Returns the
        number of records retired.
        """
        if keep_last < 0:
            raise HistoryError(f"keep_last must be non-negative, got {keep_last}")
        entries = _parse_log_entries(self._path / LOG_NAME)
        if len(entries) <= keep_last:
            return 0
        split = len(entries) - keep_last
        aged_entries, kept = entries[:split], entries[split:]
        data_path = self._path / DATA_NAME
        data = data_path.read_bytes() if data_path.exists() else b""
        aged = [
            (
                SlideRecord.from_bytes(
                    data[entry["offset"] : entry["offset"] + entry["length"]],
                    timings=entry.get("timings"),
                ),
                entry,
            )
            for entry in aged_entries
        ]
        if on_aged is not None:
            on_aged(aged)
        base = kept[0]["offset"] if kept else len(data)
        keep_first = kept[0]["slide_id"] if kept else None
        self.close()  # release the append handles before the file swap
        marker = {
            "format": COMPACT_FORMAT,
            "data_size_before": len(data),
            "base_offset": base,
            "keep_first_slide_id": keep_first,
        }
        _atomic_write(
            self._path,
            COMPACT_MARKER_NAME,
            json.dumps(marker, sort_keys=True).encode("utf-8"),
        )
        # Data before log: recovery distinguishes the crash windows by the
        # data file's size and the log's first slide id (see
        # _recover_compaction), which requires this order.
        _atomic_write(self._path, DATA_NAME, data[base:])
        _atomic_write(self._path, LOG_NAME, _render_log(kept, rebase=base))
        (self._path / COMPACT_MARKER_NAME).unlink()
        self._data_size = len(data) - base
        return len(aged)

    def _recover_compaction(self) -> None:
        """Complete (or abandon) a compaction interrupted by a crash."""
        marker_path = self._path / COMPACT_MARKER_NAME
        if not marker_path.exists():
            return
        try:
            marker = json.loads(marker_path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HistoryError(
                f"corrupt compaction marker in {self._path}"
            ) from exc
        data_path = self._path / DATA_NAME
        size = data_path.stat().st_size if data_path.exists() else 0
        before = int(marker["data_size_before"])
        base = int(marker["base_offset"])
        if size == before:
            # Crash before the data swap: both files are still the
            # pre-compaction originals — abandon the attempt.
            marker_path.unlink()
            return
        if size != before - base:
            raise HistoryError(
                f"unrecoverable compaction state in {self._path}: data file "
                f"is {size} bytes, expected {before} (before) or "
                f"{before - base} (after)"
            )
        # The data swap landed.  If the crash hit before the log swap the
        # log still lists the retired records at pre-swap offsets — filter
        # and rebase it now.
        entries = _parse_log_entries(self._path / LOG_NAME)
        keep_first = marker["keep_first_slide_id"]
        if keep_first is None:
            kept = []
        else:
            kept = [entry for entry in entries if entry["slide_id"] >= keep_first]
        if len(kept) != len(entries):
            _atomic_write(self._path, LOG_NAME, _render_log(kept, rebase=base))
        marker_path.unlink()

    @classmethod
    def open(cls, path: Union[str, Path]) -> "DiskJournal":
        """Reopen an existing journal directory (appends continue from it)."""
        directory = Path(path)
        if cls._read_manifest_if_present(directory) is None:
            raise HistoryError(f"no pattern journal found at {directory}")
        return cls(directory)

    def disk_size_bytes(self) -> int:
        total = 0
        for name in (MANIFEST_NAME, DATA_NAME, LOG_NAME):
            part = self._path / name
            if part.exists():
                total += os.path.getsize(part)
        return total

    def timings(self) -> Dict[int, Dict[str, float]]:
        """Per-slide timing metadata, keyed by slide id."""
        return {record.slide_id: dict(record.timings) for record in self._records}


def _parse_log_entries(log_path: Path) -> List[Dict[str, object]]:
    """Parse a ``journal.log`` into its entry dicts (empty for no file)."""
    if not log_path.exists():
        return []
    entries: List[Dict[str, object]] = []
    with open(log_path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise HistoryError(
                    f"corrupt journal log entry at {log_path}:{line_number}"
                ) from exc
    return entries


def _render_log(entries: List[Dict[str, object]], rebase: int = 0) -> bytes:
    """Serialise log entries back to JSONL, shifting offsets by ``-rebase``."""
    lines = []
    for entry in entries:
        if rebase:
            entry = dict(entry, offset=entry["offset"] - rebase)
        lines.append(json.dumps(entry, sort_keys=True) + "\n")
    return "".join(lines).encode("utf-8")


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


def truncate_journal(path: Union[str, Path], slide_id: int) -> Tuple[int, int]:
    """Roll a closed journal directory back to ``slide_id`` (resume support).

    Every record *after* ``slide_id`` is dropped — the log is rewritten
    atomically to the kept prefix and the data file is truncated to the
    kept records' end, so replaying the stream suffix from a checkpoint at
    ``slide_id`` re-appends the dropped records byte-identically
    (DESIGN.md §12).  Truncation is keyed by slide id, not byte offset, so
    it also holds after a retention compaction rebased the offsets.  With
    ``slide_id < 0`` the journal is reset to empty (a resume that found no
    checkpoint restarts the stream from scratch).

    Returns ``(records_kept, data_size)``.  Raises
    :class:`~repro.exceptions.HistoryError` when the journal does not hold
    ``slide_id`` (compacted away or lost) — a checkpoint can then not be
    resumed against it.
    """
    directory = Path(path)
    if DiskJournal._read_manifest_if_present(directory) is None:
        if slide_id < 0:
            return 0, 0  # nothing journalled yet — a fresh start is a no-op
        raise HistoryError(
            f"no pattern journal found at {directory}; cannot resume a "
            f"checkpoint at slide {slide_id} without its journal prefix"
        )
    entries = _parse_log_entries(directory / LOG_NAME)
    kept = [entry for entry in entries if int(entry["slide_id"]) <= slide_id]
    if slide_id >= 0 and not any(
        int(entry["slide_id"]) == slide_id for entry in kept
    ):
        raise HistoryError(
            f"journal at {directory} holds no record for slide {slide_id}; "
            "it was compacted away or never written — cannot resume there"
        )
    end = max(
        (int(entry["offset"]) + int(entry["length"]) for entry in kept),
        default=0,
    )
    if len(kept) != len(entries):
        # Log first, then data: a crash in between leaves an unreferenced
        # data tail, which the next open's orphan recovery drops.
        _atomic_write(directory, LOG_NAME, _render_log(kept))
    data_path = directory / DATA_NAME
    if data_path.exists() and data_path.stat().st_size > end:
        with open(data_path, "r+b") as handle:
            handle.truncate(end)
            handle.flush()
            os.fsync(handle.fileno())
    return len(kept), end


def open_journal(path: Union[str, Path]) -> DiskJournal:
    """Open a persisted journal directory (the CLI/service entry point)."""
    return DiskJournal.open(path)
