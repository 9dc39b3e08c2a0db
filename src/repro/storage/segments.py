"""Batch-aligned segments of the sliding-window matrix (see DESIGN.md §3).

A :class:`Segment` is the DSMatrix restricted to the columns of one batch: a
per-item bit pattern whose bit ``i`` is set when the item occurs in the
``i``-th transaction *of that batch*.  Segments are the unit of window
maintenance — sliding the window is a deque pop of the oldest segment and a
push of the newest, with no bit shifting of the surviving columns — and the
unit of persistence: the disk backend writes one segment file per batch and
deletes one per eviction, so per-batch I/O is proportional to the batch, not
to the window.

A segment is immutable once built.  Its per-item occurrence counts are
precomputed at construction so the window store can maintain window-wide
support counters incrementally (add the appended segment's counts, subtract
the evicted segment's), and its serialised byte payload is memoised after
the first :meth:`Segment.to_bytes` call (or seeded by the constructor /
:meth:`Segment.from_bytes` when the bytes are already known), so repeated
persistence and handle shipping never re-serialise a sealed segment.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import (
    BinaryIO,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.exceptions import DSMatrixError
from repro.stream.batch import Batch, Transaction

#: Magic prefix of a serialised segment file.
SEGMENT_MAGIC = b"DSEG"


def rows_from_transactions(
    transactions: Iterable[Iterable[str]],
) -> Tuple[int, Dict[str, int]]:
    """Build per-item bit patterns from transactions → (num_columns, rows).

    This is the pure segment-materialisation kernel shared by
    :meth:`Segment.from_batch` and the parallel ingestion workers
    (DESIGN.md §5): bit ``i`` of ``rows[item]`` is set when ``item`` occurs
    in the ``i``-th transaction.  Duplicate items within a transaction
    collapse to one bit (OR-ing a bit in twice leaves it set), matching
    :class:`~repro.stream.batch.Batch` normalisation, and the result is
    independent of per-transaction item order — remapping row keys
    afterwards (the registry-merge protocol) therefore commutes with this
    function.
    """
    rows: Dict[str, int] = {}
    num_columns = 0
    for offset, transaction in enumerate(transactions):
        bit = 1 << offset
        for item in transaction:
            rows[item] = rows.get(item, 0) | bit
        num_columns = offset + 1
    return num_columns, rows


class Segment:
    """The columns of one batch as per-item bit patterns.

    Parameters
    ----------
    segment_id:
        Monotonic identifier assigned by the window store (survives
        persistence round trips).
    num_columns:
        Number of transaction columns in the segment (the batch size).
    rows:
        Mapping of item symbol to its local bit pattern; bit 0 is the first
        transaction of the batch.  Items with an all-zero pattern may be
        omitted.
    payload:
        Optional pre-serialised bytes of this exact segment (the
        :meth:`to_bytes` output an ingestion worker already produced);
        seeds the payload cache so the first ``to_bytes`` call is free.
    """

    __slots__ = ("_segment_id", "_num_columns", "_rows", "_counts", "_payload")

    def __init__(
        self,
        segment_id: int,
        num_columns: int,
        rows: Mapping[str, int],
        payload: Optional[bytes] = None,
    ) -> None:
        if num_columns < 0:
            raise DSMatrixError(
                f"segment column count must be non-negative, got {num_columns}"
            )
        cleaned: Dict[str, int] = {}
        for item, bits in rows.items():
            if bits < 0 or bits >> num_columns:
                raise DSMatrixError(
                    f"bit pattern of item {item!r} does not fit in "
                    f"{num_columns} columns"
                )
            if bits:
                cleaned[item] = bits
        self._segment_id = segment_id
        self._num_columns = num_columns
        self._rows = cleaned
        self._counts: Dict[str, int] = {
            item: bits.bit_count() for item, bits in cleaned.items()
        }
        self._payload = payload

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_batch(cls, batch: Batch, segment_id: int) -> "Segment":
        """Encode one batch into a segment."""
        _, rows = rows_from_transactions(batch.transactions)
        return cls(segment_id, len(batch), rows)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def segment_id(self) -> int:
        """The store-assigned identifier of this segment."""
        return self._segment_id

    @property
    def num_columns(self) -> int:
        """Number of transaction columns (the batch size)."""
        return self._num_columns

    def items(self) -> List[str]:
        """Items occurring in this segment, in canonical (sorted) order."""
        return sorted(self._rows)

    def row_bits(self, item: str) -> int:
        """Local bit pattern of ``item`` (0 when the item does not occur)."""
        return self._rows.get(item, 0)

    def item_counts(self) -> Dict[str, int]:
        """Occurrences of every present item within this segment."""
        return dict(self._counts)

    def column_items(self) -> List[List[str]]:
        """Items of every column, one sorted list per transaction.

        Built in a single column-major pass: each item's set-bit positions are
        walked once, and because items are visited in canonical order every
        per-column list comes out sorted without a final sort.
        """
        columns: List[List[str]] = [[] for _ in range(self._num_columns)]
        for item in sorted(self._rows):
            bits = self._rows[item]
            while bits:
                low = bits & -bits
                columns[low.bit_length() - 1].append(item)
                bits ^= low
        return columns

    def transactions(self) -> Iterator[Transaction]:
        """The segment's transactions, first column first."""
        for column in self.column_items():
            yield tuple(column)

    def memory_bits(self) -> int:
        """Matrix-cell accounting of this segment: present items × columns."""
        return len(self._rows) * self._num_columns

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def to_bytes(self) -> bytes:
        """Serialise to the segment file format (memoised — segments are sealed).

        Layout: ``DSEG`` magic, 4-byte little-endian header length, JSON
        header (``segment_id``, ``num_columns``, ``items``, ``stride``), then
        one ``stride``-byte little-endian bit pattern per item in header
        order.  The fixed-stride row block allows :func:`read_segment_row` to
        seek to a single row without reading the rest.  The serialisation is
        a deterministic function of the (immutable) segment, so the bytes
        are computed once and cached for every later persistence, handle
        shipping or export.
        """
        if self._payload is None:
            items = self.items()
            stride = (self._num_columns + 7) // 8
            header = {
                "segment_id": self._segment_id,
                "num_columns": self._num_columns,
                "items": items,
                "stride": stride,
            }
            self._payload = build_envelope(
                SEGMENT_MAGIC, header, (self._rows[item] for item in items), stride
            )
        return self._payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "Segment":
        """Inverse of :meth:`to_bytes` (the bytes seed the payload cache)."""
        header, offset, stride = _parse_segment_header(data, source="<bytes>")
        rows: Dict[str, int] = {}
        for index, item in enumerate(header["items"]):
            start = offset + index * stride
            rows[item] = int.from_bytes(data[start : start + stride], "little")
        return cls(
            header["segment_id"], header["num_columns"], rows, payload=bytes(data)
        )

    def write(self, path: Union[str, Path]) -> Path:
        """Write the serialised segment to ``path`` and return it."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(self.to_bytes())
        return target

    @classmethod
    def read(cls, path: Union[str, Path]) -> "Segment":
        """Read a segment previously written by :meth:`write`."""
        source = Path(path)
        if not source.exists():
            raise DSMatrixError(f"segment file not found: {source}")
        return cls.from_bytes(source.read_bytes())

    def __repr__(self) -> str:
        return (
            f"Segment(id={self._segment_id}, columns={self._num_columns}, "
            f"items={len(self._rows)})"
        )


# ---------------------------------------------------------------------- #
# low-level segment file access
# ---------------------------------------------------------------------- #
def build_envelope(
    magic: bytes, header: dict, rows: Iterable[int], stride: int
) -> bytes:
    """Serialise the shared file envelope: magic, length, header, row block.

    ``rows`` are the bit-pattern integers in header item order, each
    ``stride`` bytes little-endian (the layout of a segment file).
    """
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [magic, len(header_bytes).to_bytes(4, "little"), header_bytes]
    parts.extend(bits.to_bytes(stride, "little") for bits in rows)
    return b"".join(parts)


def read_envelope_header(
    handle: BinaryIO,
    magic: bytes,
    kind: str,
    source: str,
    int_fields: Tuple[str, ...],
) -> Tuple[dict, int, int]:
    """Parse the shared file envelope: magic, 4-byte length, JSON header.

    Segment files and journal records use this envelope (with different
    magics); returns ``(header, payload_offset, stride)``.  The header's
    shape is checked before anyone reads it: a JSON object whose
    ``stride`` and ``int_fields`` are non-negative integers and whose
    ``items`` is a list of strings.  Anything else is a
    :class:`DSMatrixError`, never a ``KeyError``/``TypeError`` later.
    """
    if handle.read(4) != magic:
        raise DSMatrixError(f"{source} is not a {kind} file (bad magic)")
    header_len = int.from_bytes(handle.read(4), "little")
    try:
        header = json.loads(handle.read(header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DSMatrixError(f"corrupt {kind} header in {source}") from exc
    if not isinstance(header, dict):
        raise DSMatrixError(f"corrupt {kind} header in {source}: not a JSON object")
    for name in ("stride", *int_fields):
        value = header.get(name)
        if type(value) is not int or value < 0:
            raise DSMatrixError(
                f"corrupt {kind} header in {source}: {name!r} must be a "
                f"non-negative integer, got {value!r}"
            )
    items = header.get("items")
    if type(items) is not list or not all(type(item) is str for item in items):
        raise DSMatrixError(
            f"corrupt {kind} header in {source}: 'items' must be a list of strings"
        )
    return header, 8 + header_len, header["stride"]


#: Integer fields of a segment header besides ``stride``.
SEGMENT_HEADER_INTS = ("segment_id", "num_columns")


def _parse_segment_header(data: bytes, source: str) -> Tuple[dict, int, int]:
    """Validate magic and decode the JSON header of a serialised segment."""
    return read_envelope_header(
        io.BytesIO(data), SEGMENT_MAGIC, "segment", source, SEGMENT_HEADER_INTS
    )


def read_segment_header(path: Union[str, Path]) -> Tuple[dict, int, int]:
    """Parse one segment file's header → ``(header, payload_offset, stride)``."""
    source = Path(path)
    if not source.exists():
        raise DSMatrixError(f"segment file not found: {source}")
    with open(source, "rb") as handle:
        return read_envelope_header(
            handle, SEGMENT_MAGIC, "segment", str(source), SEGMENT_HEADER_INTS
        )


def read_segment_row(
    path: Union[str, Path], item: str
) -> Tuple[Optional[int], int]:
    """Read one item's local bit pattern from a segment file without loading it.

    Returns ``(bits, num_columns)``; ``bits`` is ``None`` when the item does
    not occur in the segment (callers treat that as an all-zero pattern while
    still learning the segment's width).
    """
    source = Path(path)
    header, offset, stride = read_segment_header(source)
    try:
        index = header["items"].index(item)
    except ValueError:
        return None, header["num_columns"]
    with open(source, "rb") as handle:
        handle.seek(offset + index * stride)
        return int.from_bytes(handle.read(stride), "little"), header["num_columns"]


# ---------------------------------------------------------------------- #
# cheap cross-process references to segments
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SegmentHandle:
    """A cheap, picklable reference to one window segment.

    Handles are what the parallel mining subsystem ships to worker
    processes instead of the window store itself: a path-based handle
    (disk backend) costs a file name to transfer and the worker reads the
    segment file independently; a payload-based handle (in-memory backend)
    carries the segment's serialised bytes, which is still O(batch) and
    free of any live object graph.

    Exactly one of ``path`` and ``payload`` is set.
    """

    segment_id: int
    num_columns: int
    path: Optional[str] = None
    payload: Optional[bytes] = None

    def __post_init__(self) -> None:
        if (self.path is None) == (self.payload is None):
            raise DSMatrixError(
                "a SegmentHandle needs exactly one of path= or payload="
            )

    @classmethod
    def from_segment(cls, segment: Segment) -> "SegmentHandle":
        """A payload-based handle carrying the segment's serialised bytes."""
        return cls(
            segment_id=segment.segment_id,
            num_columns=segment.num_columns,
            payload=segment.to_bytes(),
        )

    @classmethod
    def from_path(cls, segment: Segment, path: Union[str, Path]) -> "SegmentHandle":
        """A path-based handle pointing at the segment's on-disk file."""
        return cls(
            segment_id=segment.segment_id,
            num_columns=segment.num_columns,
            path=str(path),
        )

    def load(self) -> Segment:
        """Materialise the referenced segment (file read or byte decode)."""
        if self.path is not None:
            return Segment.read(self.path)
        assert self.payload is not None  # enforced by __post_init__
        return Segment.from_bytes(self.payload)
