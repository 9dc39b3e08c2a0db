"""DSMatrix — facade over the segmented window storage engine.

The DSMatrix (§2.3) captures the transactions of all batches in the current
sliding window as a binary matrix: one row per domain item (edge label), one
column per transaction, entry ``1`` when the item occurs in the transaction.
Each row is a bit vector, so vertical mining reduces to bitwise AND plus
popcounts.

Since the storage-engine refactor (DESIGN.md §3) the matrix itself is a thin
facade over a :class:`~repro.storage.backend.WindowStore`: the window lives
as batch-aligned :class:`~repro.storage.segments.Segment` objects, so the
window slide is an O(1) deque pop, per-item support counters are maintained
incrementally, and full-window rows are materialised lazily.  The ``path``
picks the backend: without one the window lives only in memory; with one it
is persisted in that directory as one segment file per batch plus a
manifest, so each append writes O(batch) bytes and a slide deletes one file.
:meth:`load` reopens such a directory and :meth:`row_from_disk` reads one
row out of it without loading the rest.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.exceptions import DSMatrixError
from repro.storage.backend import (
    CacheStats,
    DiskWindowStore,
    MemoryWindowStore,
    WindowStore,
    read_persisted_row,
)
from repro.storage.bitvector import BitVector
from repro.storage.segments import Segment, SegmentHandle
from repro.stream.batch import Batch, Transaction


class DSMatrix:
    """Binary matrix over the transactions of the current sliding window.

    Parameters
    ----------
    window_size:
        Number of batches retained (``w``).
    items:
        Optional fixed item universe (canonical order is always the sorted
        order of the symbols).  Items outside the universe raise.  When
        omitted, the universe grows as new items appear.
    path:
        Optional directory to persist the window in (a
        :class:`~repro.storage.backend.DiskWindowStore`); without one the
        window lives in a :class:`~repro.storage.backend.MemoryWindowStore`.
    storage:
        An already-constructed
        :class:`~repro.storage.backend.WindowStore` to wrap instead
        (e.g. a window rebuilt from a checkpoint).
    """

    def __init__(
        self,
        window_size: Optional[int] = None,
        items: Optional[Sequence[str]] = None,
        path: Optional[Union[str, Path]] = None,
        storage: Optional[WindowStore] = None,
    ) -> None:
        if storage is not None:
            if not isinstance(storage, WindowStore):
                raise DSMatrixError(
                    f"storage must be a WindowStore, got {storage!r}; pass a "
                    "path to persist the window"
                )
            if window_size is not None and window_size != storage.window_size:
                raise DSMatrixError(
                    f"window_size {window_size} conflicts with the supplied "
                    f"store's window size {storage.window_size}"
                )
            if items is not None:
                raise DSMatrixError(
                    "items cannot be combined with a pre-built store; "
                    "fix the universe when constructing the store instead"
                )
            if path is not None:
                raise DSMatrixError(
                    "path cannot be combined with a pre-built store; "
                    "configure persistence on the store instead"
                )
            self._store = storage
            return
        if window_size is None:
            raise DSMatrixError("window_size is required")
        if path is None:
            self._store = MemoryWindowStore(window_size, items=items)
        else:
            self._store = DiskWindowStore(window_size, items=items, path=path)

    # ------------------------------------------------------------------ #
    # window maintenance
    # ------------------------------------------------------------------ #
    def append_batch(self, batch: Batch) -> int:
        """Add a batch of transactions, sliding the window if it is full.

        Returns the number of columns evicted (0 while the window is filling).
        """
        return self._store.append_batch(batch)

    def append_segment(self, segment: Segment, payload: Optional[bytes] = None) -> int:
        """Commit a pre-built segment in stream order (DESIGN.md §5).

        This is the ingestion coordinator's commit point: the segment must
        carry :attr:`next_segment_id` and ``payload``, when given, must be
        its serialisation.  Returns the number of columns evicted.
        """
        return self._store.append_segment(segment, payload=payload)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def store(self) -> WindowStore:
        """The storage backend holding the window."""
        return self._store

    @property
    def window_size(self) -> int:
        """The configured window size ``w``."""
        return self._store.window_size

    @property
    def num_columns(self) -> int:
        """Number of transaction columns currently stored (``|T|``)."""
        return self._store.num_columns

    @property
    def num_batches(self) -> int:
        """Number of batches currently in the window."""
        return self._store.num_batches

    @property
    def next_segment_id(self) -> int:
        """Segment id the next append will receive."""
        return self._store.next_segment_id

    @property
    def path(self) -> Optional[Path]:
        """The on-disk location, when persistence is enabled."""
        return self._store.path

    def segments(self) -> Tuple[Segment, ...]:
        """The window's batch-aligned segments, oldest first."""
        return self._store.segments()

    def segment_handles(self) -> List[SegmentHandle]:
        """Picklable per-segment references for parallel workers (DESIGN.md §4)."""
        return self._store.segment_handles()

    def items(self) -> List[str]:
        """Domain items in canonical (sorted) order."""
        return self._store.items()

    def boundaries(self) -> List[int]:
        """Cumulative batch boundaries (e.g. ``[3, 6]`` in the running example)."""
        return self._store.boundaries()

    def row(self, item: str) -> BitVector:
        """The bit vector of ``item`` over the window's columns."""
        return self._store.row(item)

    def rows(self) -> Dict[str, BitVector]:
        """All rows keyed by item (canonical iteration order)."""
        return self._store.rows()

    def row_persisted(self, item: str) -> Optional[BitVector]:
        """Read one row from persistent storage (``None`` without persistence)."""
        return self._store.row_persisted(item)

    def item_frequency(self, item: str) -> int:
        """Window-wide frequency (row sum) of one item."""
        return self._store.item_frequency(item)

    def item_frequencies(self) -> Counter:
        """Window-wide frequencies of every item."""
        return self._store.item_frequencies()

    def frequent_items(self, minsup: int) -> List[str]:
        """Items whose window frequency is at least ``minsup`` (canonical order)."""
        return self._store.frequent_items(minsup)

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss accounting of the store's support caches (DESIGN.md §9)."""
        return self._store.cache_stats

    def transaction(self, column: int) -> Transaction:
        """Reconstruct the transaction stored in ``column``."""
        return self._store.transaction(column)

    def transactions(self) -> Iterator[Transaction]:
        """Reconstruct every transaction in the window, oldest column first."""
        return self._store.transactions()

    def columns_containing(self, item: str) -> List[int]:
        """Columns in which ``item`` occurs (the {item}-projection columns)."""
        return self._store.columns_containing(item)

    def projected_transactions(
        self, item: str, below_only: bool = True
    ) -> List[Transaction]:
        """The {``item``}-projected database as described in §3.1."""
        return self._store.projected_transactions(item, below_only=below_only)

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    @classmethod
    def load(cls, path: Union[str, Path]) -> "DSMatrix":
        """Reopen a matrix persisted in directory ``path``.

        Later appends keep persisting to that directory.
        """
        return cls(storage=DiskWindowStore.open(path))

    @classmethod
    def row_from_disk(cls, path: Union[str, Path], item: str) -> BitVector:
        """Read one row directly from persisted storage without the rest.

        This is the access pattern of the limited-memory miners: the matrix
        stays on disk and only the row (bit vector) being processed is
        brought into memory.
        """
        return read_persisted_row(path, item)

    def disk_size_bytes(self) -> int:
        """Size of the on-disk data, or 0 when persistence is disabled."""
        return self._store.disk_size_bytes()

    def memory_bits(self) -> int:
        """The paper's accounting: ``m * |T|`` bits for the full matrix."""
        return self._store.memory_bits()

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_batches(
        cls,
        batches: Sequence[Batch],
        window_size: Optional[int] = None,
        items: Optional[Sequence[str]] = None,
        path: Optional[Union[str, Path]] = None,
        storage: Optional[WindowStore] = None,
    ) -> "DSMatrix":
        """Build a matrix by appending ``batches`` in order.

        ``window_size`` defaults to the number of batches supplied, so the
        resulting matrix holds all of them.
        """
        size = window_size if window_size is not None else max(len(batches), 1)
        matrix = cls(window_size=size, items=items, path=path, storage=storage)
        for batch in batches:
            matrix.append_batch(batch)
        return matrix

    def __repr__(self) -> str:
        return (
            f"DSMatrix(items={len(self.items())}, columns={self.num_columns}, "
            f"batches={self.num_batches}/{self.window_size})"
        )
