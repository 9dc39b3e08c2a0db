"""What runs inside a worker process.

Workers never receive a live window store: the window travels as a
:class:`WindowTask` — a tuple of
:class:`~repro.storage.segments.SegmentHandle` objects (file paths for the
disk backend, serialised segment bytes for the in-memory backend) plus the
scalar window parameters and the source store's ``lineage`` — attached to
every shard task and every slide task of a watch.  Each worker process
keeps ONE resident window replica
keyed by lineage (DESIGN.md §4.2): a task whose segment ids continue the
replica's only loads the segments appended since, and the replica slides
exactly as the coordinating store did (row cache carried by segment
deltas); anything else rebuilds the window from all handles.  A shard
task backed by a segmented disk store reopens that store from its
directory, so the limited-memory miners keep streaming rows from disk.  Everything
in this module is picklable and importable at module level, so the tasks
work under every multiprocessing start method.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro import faults
from repro.core.algorithms import get_algorithm
from repro.core.algorithms.base import MiningStats
from repro.core.patterns import PatternRows
from repro.core.postprocess import filter_connected_patterns
from repro.exceptions import DSMatrixError
from repro.graph.edge_registry import EdgeRegistry
from repro.storage.backend import (
    MANIFEST_NAME,
    DiskWindowStore,
    MemoryWindowStore,
    WindowStore,
)
from repro.storage.segments import SegmentHandle

#: This process's resident window replica: (lineage, store).  One slot per
#: process; a task of any other lineage replaces it.  The slot is read and
#: swapped as one tuple, so concurrent in-process runs never see a torn
#: entry.  It takes no lock: a lock held while a pool forks would be
#: inherited, locked, by the child.
_REPLICA: Optional[Tuple[str, WindowStore]] = None


@dataclass(frozen=True)
class WindowTask:
    """Everything a worker needs to rebuild the current window.

    ``known_items`` carries the full item universe (including zero-support
    items) so the rebuilt window reports the same canonical item order as
    the original store.  ``store_path`` is set when the window came from a
    segmented disk store; workers then reopen that store read-only so
    ``row_persisted`` keeps working (the limited-memory miners retain
    their stream-rows-from-disk behaviour).  ``lineage`` is the source
    store's :attr:`~repro.storage.backend.WindowStore.lineage`: within one
    lineage a segment id always names the same segment, which is what lets
    a worker's resident replica be continued instead of rebuilt.  An empty
    lineage never matches a replica.
    """

    window_size: int
    handles: Tuple[SegmentHandle, ...]
    known_items: Tuple[str, ...] = ()
    store_path: Optional[str] = None
    lineage: str = ""


@dataclass(frozen=True)
class MiningShardTask:
    """One unit of parallel mining work: an algorithm run over owned items."""

    shard_id: int
    algorithm: str
    minsup: int
    owned_items: Tuple[str, ...]
    window: WindowTask
    registry: Optional[EdgeRegistry] = None


@dataclass(frozen=True)
class ShardOutcome:
    """What a mining worker sends back: the shard's pattern rows and stats.

    The rows pickle as two lists of ints plus the symbol table.
    """

    shard_id: int
    patterns: PatternRows
    stats: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class MiningSlideTask:
    """One slide of a watch: the algorithm's own ``mine`` over a whole window.

    ``connected_only``/``rule`` ask for the connectivity post-filter the
    coordinating miner would otherwise apply (algorithms that mine
    connected subgraphs directly skip it either way).
    """

    slide_id: int
    algorithm: str
    minsup: int
    window: WindowTask
    registry: EdgeRegistry
    connected_only: bool = False
    rule: str = "exact"


@dataclass(frozen=True)
class SlideOutcome:
    """A mined slide: its pattern rows and the run's instrumentation."""

    slide_id: int
    minsup: int
    patterns: PatternRows
    stats: MiningStats


def rebuild_window(task: WindowTask) -> WindowStore:
    """Materialise the window described by a :class:`WindowTask`.

    A task carrying the directory of a segmented disk store reopens that
    store (row reads keep hitting the segment files); any failure — or a
    payload-backed task — falls back to an in-memory rebuild from the
    handles.
    """
    if task.store_path is not None:
        directory = Path(task.store_path)
        if (directory / MANIFEST_NAME).exists():
            try:
                return DiskWindowStore.open(directory)
            except DSMatrixError:
                pass  # store vanished mid-flight; the handles still work
    segments = [handle.load() for handle in task.handles]
    return MemoryWindowStore.from_segments(
        task.window_size, segments, known_items=task.known_items
    )


def _segment_ids(store: WindowStore) -> Tuple[int, ...]:
    return tuple(segment.segment_id for segment in store.segments())


def _continue_replica(store: WindowStore, task: WindowTask) -> bool:
    """Slide a resident in-memory replica forward to the task's window.

    Only the segments appended since the replica's last slide are loaded,
    all of them before the first append, so a failing load leaves the
    replica at its earlier (consistent) window.  Returns whether the
    replica now holds exactly the task's segments.
    """
    wanted = tuple(handle.segment_id for handle in task.handles)
    if not isinstance(store, MemoryWindowStore):
        return _segment_ids(store) == wanted
    next_id = store.next_segment_id
    missing = [handle for handle in task.handles if handle.segment_id >= next_id]
    if [handle.segment_id for handle in missing] != list(range(next_id, next_id + len(missing))):
        return False  # a gap: the replica cannot be slid into this window
    for segment in [handle.load() for handle in missing]:
        store.append_segment(segment)
    return _segment_ids(store) == wanted


def _resident_window(task: WindowTask) -> WindowStore:
    """The window of ``task``, continuing this process's replica when possible."""
    global _REPLICA
    resident = _REPLICA
    if task.lineage and resident is not None and resident[0] == task.lineage:
        if _continue_replica(resident[1], task):
            return resident[1]
    store = rebuild_window(task)
    if task.lineage:
        _REPLICA = (task.lineage, store)
    return store


def clear_mining_worker(lineage: str) -> None:
    """Drop this process's replica if it belongs to ``lineage``.

    Runs that execute shard tasks in the coordinating process (in-process
    mode, the degraded rung, speculative re-execution) call this when they
    end, so the coordinator never keeps a second copy of its own window.
    """
    global _REPLICA
    if _REPLICA is not None and _REPLICA[0] == lineage:
        _REPLICA = None


def run_mining_shard(task: MiningShardTask) -> ShardOutcome:
    """Worker entry point: mine the patterns owned by the task's items."""
    faults.trip("mine.shard")
    store = _resident_window(task.window)
    algorithm = get_algorithm(task.algorithm)
    patterns = algorithm.mine_shard(
        store, task.minsup, task.owned_items, registry=task.registry
    )
    return ShardOutcome(
        shard_id=task.shard_id,
        patterns=patterns,
        stats=algorithm.stats.as_dict(),
    )


def run_mining_slide(task: MiningSlideTask) -> SlideOutcome:
    """Worker entry point: mine one slide's whole window (DESIGN.md §9.3)."""
    faults.trip("mine.shard")
    store = _resident_window(task.window)
    algorithm = get_algorithm(task.algorithm)
    patterns = algorithm.mine(store, task.minsup, registry=task.registry)
    if task.connected_only and not algorithm.produces_connected_only:
        patterns = filter_connected_patterns(patterns, task.registry, rule=task.rule)
    return SlideOutcome(
        slide_id=task.slide_id,
        minsup=task.minsup,
        patterns=patterns,
        stats=algorithm.stats,
    )
