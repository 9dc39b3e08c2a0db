"""Window storage backends: the ``WindowStore`` protocol and its two engines.

The sliding-window matrix is stored as a deque of batch-aligned
:class:`~repro.storage.segments.Segment` objects (DESIGN.md §3):

* a window slide is an O(1) deque pop — no row is ever bit-shifted;
* window-wide per-item support counters are maintained *incrementally* (add
  the appended segment's counts, subtract the evicted segment's), so
  ``item_frequencies``/``frequent_items`` never re-popcount the window;
* full-window :class:`~repro.storage.bitvector.BitVector` rows are
  materialised lazily from the segments and cached until the next segment
  change invalidates them.

Two backends implement the protocol:

* :class:`MemoryWindowStore` — segments live only in memory;
* :class:`DiskWindowStore` — segments are persisted as one file per batch
  plus a small JSON manifest (``layout="segmented"``, the default), so
  per-batch I/O is O(batch) instead of O(window); a ``layout="single"``
  mode reproduces the legacy behaviour of mirroring the whole matrix into
  one ``DSMX`` file after every append.

Both backends export (:meth:`WindowStore.save`) and load the legacy
single-file format, so matrices persisted by either engine remain readable
by :meth:`repro.storage.dsmatrix.DSMatrix.load`.
"""

from __future__ import annotations

import json
import os
import uuid
from abc import ABC, abstractmethod
from collections import Counter, deque
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.exceptions import DSMatrixError
from repro.storage.bitvector import BitVector
from repro.storage.segments import (
    SEGMENT_MAGIC,
    Segment,
    SegmentHandle,
    build_envelope,
    read_envelope_header,
    read_envelope_row,
    read_segment_row,
)
from repro.stream.batch import Batch, Transaction

#: Magic prefix of the legacy single-file matrix format.
LEGACY_MAGIC = b"DSMX"
#: File name of the segmented layout's manifest inside its directory.
MANIFEST_NAME = "manifest.json"
#: Format tag written into segmented-layout manifests.
MANIFEST_FORMAT = "dsmx-segments/1"


# ---------------------------------------------------------------------- #
# legacy single-file format helpers
# ---------------------------------------------------------------------- #
def read_legacy_header(source: Path) -> Tuple[dict, int, int]:
    """Parse the header of a legacy ``DSMX`` file → (header, offset, stride)."""
    if not source.exists():
        raise DSMatrixError(f"DSMatrix file not found: {source}")
    with open(source, "rb") as handle:
        return read_envelope_header(handle, LEGACY_MAGIC, "DSMatrix", str(source))


def read_legacy_row(path: Union[str, Path], item: str) -> BitVector:
    """Read one full-window row from a legacy file without loading the rest."""
    source = Path(path)
    if not source.exists():
        raise DSMatrixError(f"DSMatrix file not found: {source}")
    bits, header = read_envelope_row(source, LEGACY_MAGIC, "DSMatrix", item)
    if bits is None:
        raise DSMatrixError(f"unknown item {item!r} in {source}") from None
    length = header["num_columns"]
    return BitVector(length, bits & ((1 << length) - 1 if length else 0))


@dataclass
class IOStats:
    """Byte-level accounting of a disk backend's persistence work.

    ``full_rewrites`` counts whole-matrix flushes (the legacy single-file
    behaviour); the segmented layout never performs one after the initial
    append, which is the property the storage benchmarks assert.
    """

    appends: int = 0
    segment_bytes_written: int = 0
    manifest_bytes_written: int = 0
    full_rewrite_bytes_written: int = 0
    full_rewrites: int = 0
    segment_files_deleted: int = 0
    bytes_last_append: int = 0

    @property
    def total_bytes_written(self) -> int:
        """All bytes persisted since the store was created."""
        return (
            self.segment_bytes_written
            + self.manifest_bytes_written
            + self.full_rewrite_bytes_written
        )

    def as_dict(self) -> Dict[str, int]:
        """Flatten into a plain dict (used by benchmark reports)."""
        return {
            "appends": self.appends,
            "segment_bytes_written": self.segment_bytes_written,
            "manifest_bytes_written": self.manifest_bytes_written,
            "full_rewrite_bytes_written": self.full_rewrite_bytes_written,
            "full_rewrites": self.full_rewrites,
            "segment_files_deleted": self.segment_files_deleted,
            "bytes_last_append": self.bytes_last_append,
            "total_bytes_written": self.total_bytes_written,
        }


@dataclass
class CacheStats:
    """Hit/miss accounting of the per-segment support caches (DESIGN.md §9).

    ``row_slide_updates`` counts cached full-window rows carried across a
    window slide by the segment-delta update (shift out the evicted
    segment's columns, OR in the appended segment's) instead of being
    rebuilt from every segment — the counters the pipelined-ingest
    ablation asserts on.
    """

    row_hits: int = 0
    row_misses: int = 0
    row_slide_updates: int = 0
    frequent_hits: int = 0
    frequent_misses: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Flatten into a plain dict (used by benchmark reports)."""
        return {
            "row_hits": self.row_hits,
            "row_misses": self.row_misses,
            "row_slide_updates": self.row_slide_updates,
            "frequent_hits": self.frequent_hits,
            "frequent_misses": self.frequent_misses,
        }


class WindowStore(ABC):
    """Narrow protocol of the segmented sliding-window storage engine.

    The shared implementation keeps the window as a deque of segments plus
    incrementally-maintained support counters; concrete backends only decide
    how (and whether) segments are persisted by implementing
    :meth:`_persist`, :meth:`row_persisted` and :meth:`disk_size_bytes`.

    Parameters
    ----------
    window_size:
        Number of batches retained (``w``).
    items:
        Optional fixed item universe; appends containing items outside it
        raise.  When omitted the universe grows as items appear (and is
        grow-only: an item evicted from the window keeps its all-zero row).
    """

    def __init__(self, window_size: int, items: Optional[Sequence[str]] = None) -> None:
        if window_size <= 0:
            raise DSMatrixError(f"window size must be positive, got {window_size}")
        self._window_size = window_size
        self._fixed_universe = items is not None
        self._support: Dict[str, int] = {item: 0 for item in items} if items else {}
        self._segments: Deque[Segment] = deque()
        self._num_columns = 0
        self._next_segment_id = 0
        self._row_cache: Dict[str, BitVector] = {}
        # Per-segment support caching (DESIGN.md §9): the canonical item
        # order and per-minsup frequent-item lists are memoised between
        # appends, and cached rows survive window slides via segment-delta
        # updates instead of full-window rebuilds.
        self._items_cache: Optional[List[str]] = None
        self._frequent_cache: Dict[int, List[str]] = {}
        self.cache_stats = CacheStats()
        self._lineage = uuid.uuid4().hex

    # ------------------------------------------------------------------ #
    # window maintenance
    # ------------------------------------------------------------------ #
    def append_batch(self, batch: Batch) -> int:
        """Add a batch, sliding the window if it is full.

        Returns the number of columns evicted (0 while the window fills).
        """
        return self.append_segment(
            Segment.from_batch(batch, segment_id=self._next_segment_id)
        )

    def append_segment(
        self, segment: Segment, payload: Optional[bytes] = None
    ) -> int:
        """Commit one pre-built segment, sliding the window if it is full.

        This is the single-writer commit point of the ingestion pipeline
        (DESIGN.md §5): the segment must carry the store's next segment id
        (commits happen in stream order) and ``payload``, when given, must
        be the segment's :meth:`~repro.storage.segments.Segment.to_bytes`
        serialisation — disk backends persist those exact bytes instead of
        re-serialising, which keeps worker-materialised segment files
        byte-identical to sequential appends.

        Returns the number of columns evicted (0 while the window fills).
        """
        if segment.segment_id != self._next_segment_id:
            raise DSMatrixError(
                f"segment id {segment.segment_id} breaks stream order; the "
                f"store expects segment {self._next_segment_id} next"
            )
        if self._fixed_universe:
            for item in segment.items():
                if item not in self._support:
                    raise DSMatrixError(
                        f"item {item!r} is outside the fixed item universe"
                    )
        evicted_segment: Optional[Segment] = None
        evicted = 0
        if len(self._segments) == self._window_size:
            evicted_segment = self._segments.popleft()
            evicted = evicted_segment.num_columns
            self._num_columns -= evicted
            for item, count in evicted_segment.item_counts().items():
                self._support[item] -= count
        surviving_columns = self._num_columns  # width between evict and append
        self._segments.append(segment)
        self._next_segment_id += 1
        self._num_columns += segment.num_columns
        for item, count in segment.item_counts().items():
            self._support[item] = self._support.get(item, 0) + count
        self._update_row_cache(segment, evicted, surviving_columns)
        # Support totals changed, so the per-minsup frequent-item lists are
        # stale; the incremental counters rebuild them on the next miss.
        self._frequent_cache.clear()
        self._persist(appended=segment, evicted=evicted_segment, payload=payload)
        return evicted

    def _update_row_cache(
        self, appended: Segment, evicted_columns: int, surviving_columns: int
    ) -> None:
        """Carry cached full-window rows across a slide with a segment delta.

        A slide only removes the evicted segment's columns from the front
        of every row and appends the new segment's local pattern at the
        back — so a cached row is updated by one shift and one OR instead
        of being invalidated and rebuilt from all ``w`` segments
        (DESIGN.md §9).  Items never requested stay uncached and are still
        materialised lazily on first access; cached rows whose item left
        the window (support dropped to zero) are evicted rather than
        carried, which keeps the cache — and the per-append delta cost —
        bounded by the live window instead of the historical universe.
        """
        if not self._row_cache:
            return
        new_columns = surviving_columns + appended.num_columns
        for item in list(self._row_cache):
            if self._support.get(item, 0) == 0:
                del self._row_cache[item]  # all-zero row; rebuild lazily
                continue
            bits = (self._row_cache[item].bits >> evicted_columns) | (
                appended.row_bits(item) << surviving_columns
            )
            self._row_cache[item] = BitVector(new_columns, bits)
            self.cache_stats.row_slide_updates += 1

    @abstractmethod
    def _persist(
        self,
        appended: Segment,
        evicted: Optional[Segment],
        payload: Optional[bytes] = None,
    ) -> None:
        """Reflect one append (and optional eviction) in persistent storage.

        ``payload`` is the appended segment's serialisation when the caller
        already has it (worker-materialised segments); backends may persist
        it verbatim instead of calling ``appended.to_bytes()`` again.
        """

    # ------------------------------------------------------------------ #
    # shape accessors
    # ------------------------------------------------------------------ #
    @property
    def window_size(self) -> int:
        """The configured window size ``w``."""
        return self._window_size

    @property
    def num_columns(self) -> int:
        """Number of transaction columns currently stored (``|T|``)."""
        return self._num_columns

    @property
    def num_batches(self) -> int:
        """Number of batches (segments) currently in the window."""
        return len(self._segments)

    @property
    def next_segment_id(self) -> int:
        """Segment id the next append will receive (stream-order commits)."""
        return self._next_segment_id

    @property
    def lineage(self) -> str:
        """Token naming this store's append history (DESIGN.md §4.2).

        Minted when the store is created and again whenever segments are
        installed wholesale (:meth:`_adopt_segments`), so within one
        lineage a segment id always names the same sealed segment — the
        guarantee mining workers rely on to slide a resident replica
        forward instead of rebuilding it.
        """
        return self._lineage

    @property
    def fixed_universe(self) -> bool:
        """Whether the item universe was fixed at construction."""
        return self._fixed_universe

    @property
    def path(self) -> Optional[Path]:
        """The persistent location, when the backend has one."""
        return None

    def segments(self) -> Tuple[Segment, ...]:
        """The window's segments, oldest first."""
        return tuple(self._segments)

    def segment_handles(self) -> List[SegmentHandle]:
        """Cheap picklable references to the window's segments, oldest first.

        Handles are the unit the parallel mining subsystem ships to worker
        processes (DESIGN.md §4): the window store itself is never pickled.
        The base implementation serialises each segment into a payload
        handle; the segmented disk backend overrides this with path handles
        so workers open the already-persisted files independently.
        """
        return [SegmentHandle.from_segment(segment) for segment in self._segments]

    def batch_sizes(self) -> List[int]:
        """Column count of every retained batch, oldest first."""
        return [segment.num_columns for segment in self._segments]

    def boundaries(self) -> List[int]:
        """Cumulative batch boundaries (e.g. ``[3, 6]``)."""
        bounds: List[int] = []
        total = 0
        for segment in self._segments:
            total += segment.num_columns
            bounds.append(total)
        return bounds

    def items(self) -> List[str]:
        """Known domain items in canonical (sorted) order (memoised).

        The universe is grow-only, so the cached order is stale exactly
        when the support map gained a key — a length comparison, not a
        content comparison, decides whether to re-sort.
        """
        if self._items_cache is None or len(self._items_cache) != len(self._support):
            self._items_cache = sorted(self._support)
        return list(self._items_cache)

    # ------------------------------------------------------------------ #
    # rows and frequencies
    # ------------------------------------------------------------------ #
    def row(self, item: str) -> BitVector:
        """The full-window bit vector of ``item`` (lazily built and cached).

        Cached rows survive window slides: :meth:`_update_row_cache`
        applies the slide as a segment delta, so a row is only ever
        assembled from all segments on its *first* access.
        """
        if item not in self._support:
            raise DSMatrixError(f"unknown item {item!r}")
        cached = self._row_cache.get(item)
        if cached is None:
            self.cache_stats.row_misses += 1
            bits = 0
            offset = 0
            for segment in self._segments:
                bits |= segment.row_bits(item) << offset
                offset += segment.num_columns
            cached = BitVector(self._num_columns, bits)
            self._row_cache[item] = cached
        else:
            self.cache_stats.row_hits += 1
        return cached

    def rows(self) -> Dict[str, BitVector]:
        """All rows keyed by item (canonical iteration order)."""
        return {item: self.row(item) for item in self.items()}

    def item_frequency(self, item: str) -> int:
        """Window-wide frequency of one item (O(1): incremental counter)."""
        try:
            return self._support[item]
        except KeyError:
            raise DSMatrixError(f"unknown item {item!r}") from None

    def item_frequencies(self) -> Counter:
        """Window-wide frequencies of every known item (no popcounts)."""
        return Counter(dict(self._support))

    def frequent_items(self, minsup: int) -> List[str]:
        """Items with window frequency >= ``minsup``, in canonical order.

        Memoised per ``minsup`` until the next append: repeated calls on
        an unchanged window (the hot first step of every mining run) are
        a cache hit instead of a scan over the item universe.
        """
        cached = self._frequent_cache.get(minsup)
        if cached is None:
            self.cache_stats.frequent_misses += 1
            cached = [item for item in self.items() if self._support[item] >= minsup]
            self._frequent_cache[minsup] = cached
        else:
            self.cache_stats.frequent_hits += 1
        return list(cached)

    # ------------------------------------------------------------------ #
    # transaction reconstruction and projections
    # ------------------------------------------------------------------ #
    def transaction(self, column: int) -> Transaction:
        """Reconstruct the transaction stored in window column ``column``."""
        if column < 0 or column >= self._num_columns:
            raise DSMatrixError(
                f"column {column} out of range ({self._num_columns} columns)"
            )
        offset = 0
        for segment in self._segments:
            if column < offset + segment.num_columns:
                local = 1 << (column - offset)
                return tuple(
                    item
                    for item in segment.items()
                    if segment.row_bits(item) & local
                )
            offset += segment.num_columns
        raise DSMatrixError(f"column {column} not covered by any segment")

    def transactions(self) -> Iterator[Transaction]:
        """Reconstruct every transaction, oldest first, in one column-major pass."""
        for segment in self._segments:
            yield from segment.transactions()

    def columns_containing(self, item: str) -> List[int]:
        """Columns in which ``item`` occurs."""
        return self.row(item).positions()

    def projected_transactions(
        self, item: str, below_only: bool = True
    ) -> List[Transaction]:
        """The {``item``}-projected database (paper §3.1).

        With ``below_only`` only items after ``item`` in canonical order are
        kept, which makes the recursive FP-tree construction enumerate each
        itemset exactly once.
        """
        ordered_items = self.items()
        try:
            start_index = ordered_items.index(item)
        except ValueError:
            raise DSMatrixError(f"unknown item {item!r}") from None
        candidates = ordered_items[start_index + 1 :] if below_only else [
            other for other in ordered_items if other != item
        ]
        candidate_bits = [(other, self.row(other).bits) for other in candidates]
        projected: List[Transaction] = []
        for column in self.columns_containing(item):
            mask = 1 << column
            projected.append(
                tuple(other for other, bits in candidate_bits if bits & mask)
            )
        return projected

    # ------------------------------------------------------------------ #
    # persistence protocol
    # ------------------------------------------------------------------ #
    def row_persisted(self, item: str) -> Optional[BitVector]:
        """Read one row from persistent storage, or ``None`` when there is none.

        The limited-memory miners use this to keep only one row resident;
        the in-memory backend always returns ``None`` so callers fall back
        to :meth:`row`.
        """
        return None

    def disk_size_bytes(self) -> int:
        """Bytes currently held in persistent storage (0 when none)."""
        return 0

    def save(self, path: Optional[Union[str, Path]] = None) -> Path:
        """Export the window in the legacy single-file ``DSMX`` format.

        The written file is bit-compatible with the historical
        ``DSMatrix.save`` output, so it can be read back with
        ``DSMatrix.load`` / ``row_from_disk`` regardless of which backend
        produced it.
        """
        if path is None:
            raise DSMatrixError("no path configured for DSMatrix.save()")
        target = Path(path)
        stride = (self._num_columns + 7) // 8
        items = self.items()
        header = {
            "window_size": self._window_size,
            "batch_sizes": self.batch_sizes(),
            "num_columns": self._num_columns,
            "items": items,
            "stride": stride,
            "fixed_universe": self._fixed_universe,
        }
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(
            build_envelope(
                LEGACY_MAGIC, header, (self.row(item).bits for item in items), stride
            )
        )
        return target

    # ------------------------------------------------------------------ #
    # shared loading machinery
    # ------------------------------------------------------------------ #
    def _adopt_segments(
        self, segments: Sequence[Segment], known_items: Sequence[str] = ()
    ) -> None:
        """Install pre-built segments (used by the loaders, not by appends)."""
        self._segments = deque(segments)
        self._num_columns = sum(segment.num_columns for segment in segments)
        self._next_segment_id = (
            max((segment.segment_id for segment in segments), default=-1) + 1
        )
        if not self._fixed_universe:
            for item in known_items:
                self._support.setdefault(item, 0)
        for segment in segments:
            for item, count in segment.item_counts().items():
                self._support[item] = self._support.get(item, 0) + count
        self._row_cache.clear()
        self._items_cache = None
        self._frequent_cache.clear()
        self._lineage = uuid.uuid4().hex

    def memory_bits(self) -> int:
        """The paper's accounting: ``m * |T|`` bits for the full matrix."""
        return len(self._support) * self._num_columns

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(items={len(self._support)}, "
            f"columns={self._num_columns}, "
            f"batches={len(self._segments)}/{self._window_size})"
        )


def segments_from_legacy_rows(
    batch_sizes: Sequence[int], rows: Dict[str, int]
) -> List[Segment]:
    """Split full-window row integers into one segment per batch."""
    segments: List[Segment] = []
    start = 0
    for segment_id, size in enumerate(batch_sizes):
        mask = (1 << size) - 1
        local = {
            item: (bits >> start) & mask for item, bits in rows.items()
        }
        segments.append(Segment(segment_id, size, local))
        start += size
    return segments


class MemoryWindowStore(WindowStore):
    """Segmented window store with no persistence (segments live in RAM)."""

    kind = "memory"

    def _persist(
        self,
        appended: Segment,
        evicted: Optional[Segment],
        payload: Optional[bytes] = None,
    ) -> None:
        pass

    @classmethod
    def from_segments(
        cls,
        window_size: int,
        segments: Sequence[Segment],
        known_items: Sequence[str] = (),
    ) -> "MemoryWindowStore":
        """Rebuild an in-memory window from pre-built segments.

        This is how parallel mining workers reconstitute the window from
        the :class:`~repro.storage.segments.SegmentHandle` objects they
        received: cheap, no appends, no persistence.
        """
        store = cls(window_size)
        store._adopt_segments(list(segments), known_items=known_items)
        return store

    @classmethod
    def from_legacy_file(cls, path: Union[str, Path]) -> "MemoryWindowStore":
        """Load a legacy single-file matrix fully into memory."""
        header, rows = _parse_legacy_file(Path(path))
        store = cls(
            window_size=header["window_size"],
            items=header["items"] if header["fixed_universe"] else None,
        )
        store._adopt_segments(
            segments_from_legacy_rows(header["batch_sizes"], rows),
            known_items=header["items"],
        )
        return store


class DiskWindowStore(WindowStore):
    """Window store persisted on disk, incrementally in the segmented layout.

    Parameters
    ----------
    window_size:
        Number of batches retained; may be ``None`` when resuming a
        segmented directory, in which case the manifest's value is used.
    items:
        Optional fixed item universe (see :class:`WindowStore`).
    path:
        Directory of the segmented layout, or target file of the legacy
        single-file layout.
    layout:
        ``"segmented"`` (default) — one segment file per batch plus a JSON
        manifest; appends write O(batch) bytes and evictions delete one
        file.  ``"single"`` — the legacy behaviour of rewriting the whole
        ``DSMX`` file after every append (kept for backward compatibility).
    """

    kind = "disk"
    LAYOUTS = ("segmented", "single")

    def __init__(
        self,
        window_size: Optional[int],
        items: Optional[Sequence[str]] = None,
        path: Optional[Union[str, Path]] = None,
        layout: str = "segmented",
    ) -> None:
        if path is None:
            raise DSMatrixError("DiskWindowStore needs a path")
        if layout not in self.LAYOUTS:
            raise DSMatrixError(
                f"unknown disk layout {layout!r}; expected one of {self.LAYOUTS}"
            )
        self._layout = layout
        self._path = Path(path)
        self.io_stats = IOStats()
        # Parsed headers of the (immutable) live segment files, keyed by
        # segment id: item -> row index map, payload offset, stride, width.
        # Saves re-parsing every file header per row read in the
        # limited-memory miners' loops.
        self._header_cache: Dict[int, Tuple[Dict[str, int], int, int, int]] = {}
        if layout == "segmented":
            manifest = self._read_manifest_if_present(self._path)
            if manifest is not None:
                if window_size is not None and window_size != manifest["window_size"]:
                    raise DSMatrixError(
                        f"window size {window_size} does not match the persisted "
                        f"window size {manifest['window_size']} in {self._path}"
                    )
                window_size = manifest["window_size"]
                if items is not None and (
                    not manifest["fixed_universe"]
                    or sorted(items) != manifest["universe"]
                ):
                    raise DSMatrixError(
                        f"item universe {sorted(items)} conflicts with the "
                        f"persisted store in {self._path}; reopen without "
                        "items= to adopt the persisted universe"
                    )
                items = manifest["universe"] if manifest["fixed_universe"] else None
                super().__init__(window_size, items=items)
                self._resume_from_manifest(manifest)
                return
        if window_size is None:
            raise DSMatrixError(
                f"no persisted window found at {self._path}; "
                "a window_size is required to start a fresh store"
            )
        super().__init__(window_size, items=items)
        if layout == "segmented":
            if self._path.exists() and not self._path.is_dir():
                raise DSMatrixError(
                    f"{self._path} exists and is not a directory; the "
                    "segmented layout needs a directory (use layout='single' "
                    "for a legacy single-file target)"
                )
            self._path.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def path(self) -> Optional[Path]:
        """The directory (segmented) or file (single layout) backing the store."""
        return self._path

    @property
    def layout(self) -> str:
        """The persistence layout (``segmented`` or ``single``)."""
        return self._layout

    # ------------------------------------------------------------------ #
    # persistence hooks
    # ------------------------------------------------------------------ #
    def _persist(
        self,
        appended: Segment,
        evicted: Optional[Segment],
        payload: Optional[bytes] = None,
    ) -> None:
        self.io_stats.appends += 1
        if self._layout == "single":
            target = self.save(self._path)
            written = os.path.getsize(target)
            self.io_stats.full_rewrites += 1
            self.io_stats.full_rewrite_bytes_written += written
            self.io_stats.bytes_last_append = written
            return
        # Crash-safe ordering: new segment file, then manifest swap, then the
        # evicted file's deletion — at every intermediate crash point the
        # on-disk manifest references only files that still exist (a crash
        # can at worst leave one unreferenced orphan segment file).
        segment_bytes = payload if payload is not None else appended.to_bytes()
        self._segment_file(appended.segment_id).write_bytes(segment_bytes)
        manifest_bytes = self._write_manifest()
        if evicted is not None:
            self._header_cache.pop(evicted.segment_id, None)
            evicted_file = self._segment_file(evicted.segment_id)
            if evicted_file.exists():
                evicted_file.unlink()
                self.io_stats.segment_files_deleted += 1
        self.io_stats.segment_bytes_written += len(segment_bytes)
        self.io_stats.bytes_last_append = len(segment_bytes) + manifest_bytes

    def _segment_file(self, segment_id: int) -> Path:
        return self._path / f"seg-{segment_id:08d}.dsg"

    def _write_manifest(self) -> int:
        """Rewrite the manifest and return its size (counted in io_stats).

        The manifest holds no matrix data — segment files carry their own
        item lists, so ``known_items`` only records the items *not*
        recoverable from any live segment (zero-support items of the
        grow-only universe).  Its size is therefore O(window + zero-support
        items), metadata that is independent of the number of columns; the
        O(batch) steady-state I/O claim refers to the matrix data
        (segment files), with this metadata rewrite on top.
        """
        manifest = {
            "format": MANIFEST_FORMAT,
            "window_size": self._window_size,
            "fixed_universe": self._fixed_universe,
            "universe": self.items() if self._fixed_universe else [],
            "known_items": sorted(
                item for item, count in self._support.items() if count == 0
            ),
            "next_segment_id": self._next_segment_id,
            "segments": [
                {
                    "file": self._segment_file(segment.segment_id).name,
                    "segment_id": segment.segment_id,
                    "num_columns": segment.num_columns,
                }
                for segment in self._segments
            ],
        }
        payload = json.dumps(manifest, sort_keys=True).encode("utf-8")
        self._path.mkdir(parents=True, exist_ok=True)
        temp = self._path / (MANIFEST_NAME + ".tmp")
        temp.write_bytes(payload)
        os.replace(temp, self._path / MANIFEST_NAME)
        self.io_stats.manifest_bytes_written += len(payload)
        return len(payload)

    def sync(self) -> Path:
        """Force the manifest (segmented) or full file (single) to disk."""
        if self._layout == "segmented":
            self._write_manifest()
            return self._path
        return self.save(self._path)

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
            raise DSMatrixError(f"corrupt manifest in {path}") from exc
        if manifest.get("format") != MANIFEST_FORMAT:
            raise DSMatrixError(
                f"{manifest_path} has unsupported format "
                f"{manifest.get('format')!r}"
            )
        return manifest

    def _resume_from_manifest(self, manifest: dict) -> None:
        segments = [
            Segment.read(self._path / entry["file"])
            for entry in manifest["segments"]
        ]
        self._adopt_segments(segments, known_items=manifest.get("known_items", ()))
        self._next_segment_id = max(
            self._next_segment_id, manifest.get("next_segment_id", 0)
        )

    @classmethod
    def open(cls, path: Union[str, Path]) -> "DiskWindowStore":
        """Reopen a segmented store from its directory."""
        directory = Path(path)
        if cls._read_manifest_if_present(directory) is None:
            raise DSMatrixError(f"no segmented window store found at {directory}")
        return cls(window_size=None, path=directory, layout="segmented")

    @classmethod
    def from_legacy_file(cls, path: Union[str, Path]) -> "DiskWindowStore":
        """Load a legacy single-file matrix, keeping it as the mirror target."""
        source = Path(path)
        header, rows = _parse_legacy_file(source)
        store = cls(
            window_size=header["window_size"],
            items=header["items"] if header["fixed_universe"] else None,
            path=source,
            layout="single",
        )
        store._adopt_segments(
            segments_from_legacy_rows(header["batch_sizes"], rows),
            known_items=header["items"],
        )
        return store

    # ------------------------------------------------------------------ #
    # on-disk row access and accounting
    # ------------------------------------------------------------------ #
    def row_persisted(self, item: str) -> Optional[BitVector]:
        if item not in self._support:
            return None  # consistent across layouts: unknown item, no row
        if self._layout == "single":
            if not self._path.exists():
                return None
            try:
                return read_legacy_row(self._path, item)
            except DSMatrixError:
                return None
        if not (self._path / MANIFEST_NAME).exists():
            return None
        bits = 0
        offset = 0
        for segment in self._segments:
            try:
                index_map, payload, stride, width = self._segment_header(
                    segment.segment_id
                )
                position = index_map.get(item)
                local = 0
                if position is not None:
                    with open(self._segment_file(segment.segment_id), "rb") as handle:
                        handle.seek(payload + position * stride)
                        local = int.from_bytes(handle.read(stride), "little")
            except (DSMatrixError, OSError):
                return None  # files vanished underneath; caller falls back
            if local:
                bits |= local << offset
            offset += width
        return BitVector(offset, bits)

    def _segment_header(self, segment_id: int) -> Tuple[Dict[str, int], int, int, int]:
        """Parsed header of one live segment file (cached; files are immutable)."""
        cached = self._header_cache.get(segment_id)
        if cached is None:
            path = self._segment_file(segment_id)
            if not path.exists():
                raise DSMatrixError(f"segment file not found: {path}")
            with open(path, "rb") as handle:
                header, payload, stride = read_envelope_header(
                    handle, SEGMENT_MAGIC, "segment", str(path)
                )
            cached = (
                {item: index for index, item in enumerate(header["items"])},
                payload,
                stride,
                header["num_columns"],
            )
            self._header_cache[segment_id] = cached
        return cached

    def segment_handles(self) -> List[SegmentHandle]:
        """Path handles into the segmented layout (payload fallback otherwise).

        Workers given a path handle open the segment file themselves, so an
        arbitrarily large window costs only a list of file names to ship
        across the process boundary.  The single-file layout (and any
        segment whose file is not on disk yet) falls back to payload
        handles.
        """
        if self._layout != "segmented":
            return super().segment_handles()
        handles: List[SegmentHandle] = []
        for segment in self._segments:
            segment_file = self._segment_file(segment.segment_id)
            if segment_file.exists():
                handles.append(SegmentHandle.from_path(segment, segment_file))
            else:
                handles.append(SegmentHandle.from_segment(segment))
        return handles

    def disk_size_bytes(self) -> int:
        if self._layout == "single":
            if not self._path.exists():
                return 0
            return os.path.getsize(self._path)
        total = 0
        manifest_path = self._path / MANIFEST_NAME
        if manifest_path.exists():
            total += os.path.getsize(manifest_path)
        for segment in self._segments:
            segment_file = self._segment_file(segment.segment_id)
            if segment_file.exists():
                total += os.path.getsize(segment_file)
        return total

    def save(self, path: Optional[Union[str, Path]] = None) -> Path:
        """Export to the legacy single-file format (defaults for each layout).

        With no explicit ``path``, the single layout flushes to its mirror
        file and the segmented layout refreshes its manifest (its data is
        already on disk) and returns the directory.
        """
        if path is None:
            if self._layout == "segmented":
                return self.sync()
            path = self._path
        return super().save(path)


def _parse_legacy_file(source: Path) -> Tuple[dict, Dict[str, int]]:
    """Read a legacy ``DSMX`` file → (header, full-window row integers)."""
    header, offset, stride = read_legacy_header(source)
    rows: Dict[str, int] = {}
    with open(source, "rb") as handle:
        handle.seek(offset)
        for item in header["items"]:
            rows[item] = int.from_bytes(handle.read(stride), "little")
    return header, rows


# ---------------------------------------------------------------------- #
# backend registry and loaders
# ---------------------------------------------------------------------- #
#: Storage backend kinds selectable from the CLI / facade.
STORE_BACKENDS = ("memory", "disk", "single")


def create_store(
    kind: str,
    window_size: int,
    items: Optional[Sequence[str]] = None,
    path: Optional[Union[str, Path]] = None,
) -> WindowStore:
    """Instantiate a window store by backend kind.

    ``"memory"`` ignores ``path``; ``"disk"`` is the segmented on-disk
    layout (``path`` is a directory); ``"single"`` is the legacy one-file
    mirror (``path`` is a file).
    """
    if kind == "memory":
        return MemoryWindowStore(window_size, items=items)
    if kind == "disk":
        return DiskWindowStore(window_size, items=items, path=path, layout="segmented")
    if kind == "single":
        return DiskWindowStore(window_size, items=items, path=path, layout="single")
    raise DSMatrixError(
        f"unknown storage backend {kind!r}; expected one of {STORE_BACKENDS}"
    )


def load_store(path: Union[str, Path]) -> WindowStore:
    """Load a persisted window from either on-disk format.

    A directory containing a manifest loads as a segmented
    :class:`DiskWindowStore`; a ``DSMX`` file loads as a single-layout store
    that keeps mirroring to that file (the legacy ``DSMatrix.load``
    semantics).
    """
    source = Path(path)
    if source.is_dir():
        return DiskWindowStore.open(source)
    return DiskWindowStore.from_legacy_file(source)


def read_persisted_row(path: Union[str, Path], item: str) -> BitVector:
    """Read one row from either persisted format without loading the window.

    Raises :class:`~repro.exceptions.DSMatrixError` when the item is unknown
    to the persisted window (matching the legacy ``row_from_disk``).
    """
    source = Path(path)
    if not source.is_dir():
        return read_legacy_row(source, item)
    manifest = DiskWindowStore._read_manifest_if_present(source)
    if manifest is None:
        raise DSMatrixError(f"no segmented window store found at {source}")
    bits = 0
    offset = 0
    found = item in manifest.get("known_items", ())
    for entry in manifest["segments"]:
        local, width = read_segment_row(source / entry["file"], item)
        if local is not None:
            found = True
            bits |= local << offset
        offset += width
    if not found:
        raise DSMatrixError(f"unknown item {item!r} in {source}")
    return BitVector(offset, bits)
