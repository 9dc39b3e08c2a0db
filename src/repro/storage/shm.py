"""Shared-memory segment transport (DESIGN.md §11).

Pickling serialised segments into every worker task copies the window
once per task; this module replaces those copies with
:mod:`multiprocessing.shared_memory` blocks that workers attach to and
read in place:

* :class:`SharedSegmentArena` packs every payload-backed handle of one
  window into a **single** block and hands out shared-memory
  :class:`~repro.storage.segments.SegmentHandle` variants — one block
  creation per mining run, O(1) pickled bytes per task.
* :func:`publish_block` is the ingestion-side primitive: a worker packs
  one chunk's final segment payloads into a block and ships only the
  ``(name, offset, size)`` spans; the single-writer coordinator reads and
  unlinks the block at commit time.

Reads go through :func:`read_shared_block`, which serves blocks created
by this process straight from the creator's mapping (no attach syscall —
the ``workers=0`` reference mode pays nothing for the shm variant) and
keeps a small per-process cache of attached foreign blocks so a worker
attaches each window once, not once per shard task.

Lifecycle: whoever created a block (arena owner or ingest coordinator on
the worker's behalf) must :func:`unlink_block` it — both paths do so in
``finally`` blocks on success and failure.  Every block is named under
its owner's prefix (:func:`block_prefix`, extended per ingest run), so an
owner can :func:`sweep_blocks` what it can no longer name one by one —
e.g. a chunk a worker published just before its pool broke, whose
result (and so whose block name) never arrived.  If a process dies before
the unlink, the interpreter's ``multiprocessing`` resource tracker
reclaims the orphan at shutdown.
Availability is probed once per process (:func:`shared_memory_available`);
hosts without a working ``/dev/shm`` degrade to payload shipping.
"""

from __future__ import annotations

import os
import secrets
from collections import OrderedDict
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

from repro import faults
from repro.exceptions import SharedMemoryError
from repro.storage.segments import SegmentHandle

#: Cached result of the one-time availability probe (None = not probed).
_SHM_AVAILABLE: Optional[bool] = None

#: Blocks created (and not yet unlinked) by this process: name -> block.
#: Serving these from the creator's own mapping keeps in-process runs and
#: the coordinator's reads free of attach syscalls.
_LOCAL_BLOCKS: Dict[str, shared_memory.SharedMemory] = {}

#: Foreign blocks this process has attached to, in LRU order.  Bounded so
#: long watch runs (one arena per window slide) do not pin every old
#: window's memory in every worker.
_ATTACHED: "OrderedDict[str, shared_memory.SharedMemory]" = OrderedDict()

#: Maximum number of concurrently cached foreign attachments per process.
MAX_ATTACHED_BLOCKS = 4

#: Where the host exposes POSIX shared memory as files (Linux).  Hosts
#: without it cannot list blocks; sweeping is then a no-op.
SHM_DIRECTORY = "/dev/shm"

#: This process's block-name prefix.  It keeps the interpreter's ``psm_``
#: stem (so tools watching ``/dev/shm/psm_*`` still see the program's
#: blocks) plus a random token; forked workers inherit it, so everything a
#: process tree creates is listable by its root.  Names stay within
#: macOS's 31-byte shm name limit: prefix 11 + run 7 + block 8 (+ "/").
_PROCESS_PREFIX = f"psm_{secrets.token_hex(3)}_"


def shared_memory_available() -> bool:
    """Whether this host can create and attach shared-memory blocks.

    Probed once per process with a create/attach/unlink round trip, so
    restricted sandboxes (no ``/dev/shm``, seccomp-filtered ``shm_open``)
    surface here instead of mid-run.
    """
    global _SHM_AVAILABLE
    if _SHM_AVAILABLE is None:
        try:
            block = shared_memory.SharedMemory(
                name=_PROCESS_PREFIX + secrets.token_hex(4), create=True, size=16
            )
            try:
                probe = shared_memory.SharedMemory(name=block.name)
                probe.close()
            finally:
                block.close()
                block.unlink()
            _SHM_AVAILABLE = True
        except Exception:  # noqa: BLE001 - any failure means "no shm here"
            _SHM_AVAILABLE = False
    return _SHM_AVAILABLE


def block_prefix() -> str:
    """The name prefix of every block this process (tree) creates."""
    return _PROCESS_PREFIX


def run_prefix() -> str:
    """A fresh prefix for one run's blocks, nested under :func:`block_prefix`."""
    return f"{_PROCESS_PREFIX}{secrets.token_hex(3)}_"


def linked_blocks(prefix: str) -> List[str]:
    """Names of the blocks under ``prefix`` that are still linked (sorted)."""
    try:
        names = os.listdir(SHM_DIRECTORY)
    except OSError:
        return []
    return sorted(name for name in names if name.startswith(prefix))


def sweep_blocks(prefix: str) -> List[str]:
    """Unlink every block still linked under ``prefix``; return their names.

    Only safe once nothing that could still publish or read under the
    prefix is running — the ingest pipeline sweeps its run prefix after
    its pool has shut down.
    """
    swept = linked_blocks(prefix)
    for name in swept:
        unlink_block(name)
    return swept


def _create_block(size: int, prefix: Optional[str] = None) -> shared_memory.SharedMemory:
    faults.trip("shm.publish", SharedMemoryError)
    stem = prefix or _PROCESS_PREFIX
    for _ in range(8):
        try:
            return shared_memory.SharedMemory(
                name=stem + secrets.token_hex(4), create=True, size=size
            )
        except FileExistsError:
            continue  # random-suffix collision: draw again
        except Exception as exc:  # noqa: BLE001 - surface as one exception type
            raise SharedMemoryError(
                f"cannot create a {size}-byte shared-memory block: {exc}"
            ) from exc
    raise SharedMemoryError(f"cannot find a free shared-memory name under {stem!r}")


def read_shared_block(name: str, offset: int, size: int) -> bytes:
    """Copy ``size`` bytes at ``offset`` out of the named block.

    Blocks created by this process are read from the creator's mapping;
    foreign blocks are attached once and cached (LRU, bounded by
    :data:`MAX_ATTACHED_BLOCKS`).  Raises
    :class:`~repro.exceptions.SharedMemoryError` when the block cannot be
    attached (already unlinked, or shm broke mid-run) — the mining API
    falls back to payload shipping on that signal, and the ingest
    coordinator retries the read under the failure policy.
    """
    faults.trip("shm.attach", SharedMemoryError)
    local = _LOCAL_BLOCKS.get(name)
    if local is not None:
        return bytes(local.buf[offset : offset + size])
    block = _ATTACHED.get(name)
    if block is not None:
        _ATTACHED.move_to_end(name)
    else:
        try:
            block = shared_memory.SharedMemory(name=name)
        except Exception as exc:  # noqa: BLE001 - surface as one exception type
            raise SharedMemoryError(
                f"cannot attach shared-memory block {name!r}: {exc}"
            ) from exc
        _ATTACHED[name] = block
        while len(_ATTACHED) > MAX_ATTACHED_BLOCKS:
            _, evicted = _ATTACHED.popitem(last=False)
            evicted.close()
    return bytes(block.buf[offset : offset + size])


def unlink_block(name: str) -> None:
    """Release one block: drop cached mappings, then unlink the name.

    Idempotent — unlinking a block that is already gone is a no-op, so
    cleanup paths can run unconditionally.
    """
    attached = _ATTACHED.pop(name, None)
    if attached is not None:
        attached.close()
    block = _LOCAL_BLOCKS.pop(name, None)
    if block is None:
        try:
            block = shared_memory.SharedMemory(name=name)
        except Exception:  # noqa: BLE001 - already unlinked (or never created)
            return
    block.close()
    try:
        block.unlink()
    except Exception:  # noqa: BLE001 - lost a race with another unlink
        pass


def publish_block(
    payloads: Sequence[bytes], prefix: Optional[str] = None
) -> Tuple[str, List[Tuple[int, int]]]:
    """Pack byte payloads into one new block → ``(name, [(offset, size), ...])``.

    The creator's mapping is closed immediately (the caller ships only the
    spans), so worker processes do not accumulate mappings; the block stays
    linked until the consumer calls :func:`unlink_block`.  ``prefix`` (a
    :func:`run_prefix` of the consumer's) names the block so the consumer
    can sweep it even if the name itself never reaches it.
    """
    sizes = [len(payload) for payload in payloads]
    block = _create_block(max(1, sum(sizes)), prefix)
    spans: List[Tuple[int, int]] = []
    offset = 0
    for payload in payloads:
        block.buf[offset : offset + len(payload)] = payload
        spans.append((offset, len(payload)))
        offset += len(payload)
    name = block.name
    block.close()
    return name, spans


class SharedSegmentArena:
    """One window's payload segments packed into a single shm block.

    Path-backed handles pass through unchanged (the file *is* already a
    zero-copy transport); every payload-backed handle is rewritten to a
    shared-memory variant pointing into the arena.  The creating process
    owns the block: :meth:`close` unlinks it (idempotent), and until then
    same-process reads are served from the creator's mapping.
    """

    def __init__(self, handles: Sequence[SegmentHandle]) -> None:
        payloads = [h.payload for h in handles if h.payload is not None]
        self._block = _create_block(max(1, sum(len(p) for p in payloads)))
        self._closed = False
        _LOCAL_BLOCKS[self._block.name] = self._block
        rewritten: List[SegmentHandle] = []
        offset = 0
        for handle in handles:
            if handle.payload is None:
                rewritten.append(handle)
                continue
            size = len(handle.payload)
            self._block.buf[offset : offset + size] = handle.payload
            rewritten.append(
                SegmentHandle.from_shared(handle, self._block.name, offset, size)
            )
            offset += size
        self.handles: Tuple[SegmentHandle, ...] = tuple(rewritten)

    @property
    def name(self) -> str:
        """The shared-memory block name the handles point into."""
        return self._block.name

    @property
    def size(self) -> int:
        """Allocated block size in bytes."""
        return self._block.size

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def close(self) -> None:
        """Unlink the arena's block (idempotent)."""
        if self._closed:
            return
        self._closed = True
        unlink_block(self._block.name)

    def __enter__(self) -> "SharedSegmentArena":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def publish_segments(
    handles: Sequence[SegmentHandle],
) -> Tuple[Optional[SharedSegmentArena], Tuple[SegmentHandle, ...]]:
    """Wrap a window's handles in a shared arena when that can help.

    Returns ``(arena, handles)``: the arena is ``None`` — and the handles
    are returned unchanged — when there is no payload-backed handle to
    ship, shared memory is unavailable, or block creation fails (the
    pickle transport always works, so creation failures degrade silently
    rather than aborting the run).
    """
    if not any(h.payload is not None for h in handles):
        return None, tuple(handles)
    if not shared_memory_available():
        return None, tuple(handles)
    try:
        arena = SharedSegmentArena(handles)
    except SharedMemoryError:
        return None, tuple(handles)
    return arena, arena.handles
