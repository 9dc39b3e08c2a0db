"""Storage structures: bit vectors, segments, window backends, DSMatrix, DSTable and DSTree.

* :class:`~repro.storage.bitvector.BitVector` — arbitrary-length bitset with
  intersection/union/count, the workhorse of the vertical miners.
* :class:`~repro.storage.segments.Segment` — the columns of one batch as
  per-item bit patterns; the unit of window sliding and of persistence.
* :class:`~repro.storage.backend.WindowStore` — the segmented window storage
  protocol, with :class:`~repro.storage.backend.MemoryWindowStore` and
  :class:`~repro.storage.backend.DiskWindowStore` backends.
* :class:`~repro.storage.dsmatrix.DSMatrix` — the paper's disk-backed binary
  matrix over the sliding window (§2.3, §3), a facade over a window store:
  in memory without a path, one segment file per batch in a directory with
  one.
* :class:`~repro.storage.dstable.DSTable` — the disk-backed pointer table
  baseline (§2.2).
* :class:`~repro.storage.dstree.DSTree` — the in-memory stream tree baseline
  (§2.1).
"""

from repro.storage.backend import DiskWindowStore, MemoryWindowStore, WindowStore
from repro.storage.bitvector import BitVector
from repro.storage.dsmatrix import DSMatrix
from repro.storage.dstable import DSTable
from repro.storage.dstree import DSTree
from repro.storage.segments import Segment, SegmentHandle

__all__ = [
    "BitVector",
    "Segment",
    "SegmentHandle",
    "WindowStore",
    "MemoryWindowStore",
    "DiskWindowStore",
    "DSMatrix",
    "DSTable",
    "DSTree",
]
