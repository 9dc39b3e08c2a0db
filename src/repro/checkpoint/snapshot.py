"""Coordinated miner checkpoints: seal, validate, load, prune (DESIGN.md §12).

A *checkpoint* is a versioned, atomic snapshot of everything a
:class:`~repro.core.miner.StreamSubgraphMiner` needs to resume a ``watch``
mid-stream: the window's segments, the edge → symbol registry (in
registration order — auto-symbols depend on it), the slide id the window
was at, and the journal position the slide was sealed at.  The window
store, registry and journal have no shared transaction, so the checkpoint
is the explicit consistency contract between them: it is sealed *inside*
the per-slide sink chain, after the journal's append for the same slide,
when all three agree on "the stream up to and including slide ``s``".

**Seal protocol** (crash-safe at every step):

1. every file is written into a hidden temp directory and fsynced;
2. the manifest — carrying the format tag and a SHA-256 digest of every
   file — is written *last*;
3. the temp directory is renamed (``os.replace``) to its final
   ``chk-<slide id>`` name and the parent directory is fsynced.

A crash mid-seal leaves either a hidden temp directory (never scanned) or
a directory whose manifest is missing/digest-mismatched — the loader
detects both and skips to the next-newest snapshot.  Old snapshots are
pruned manifest-first, so a half-deleted snapshot also reads as invalid
rather than as silently truncated state.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from collections.abc import Sized
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro import faults
from repro.exceptions import CheckpointError
from repro.resilience import EventLog, FailurePolicy, retry_io
from repro.graph.edge_registry import EdgeRegistry
from repro.storage.segments import Segment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (miner ← checkpoint)
    from repro.core.miner import StreamSubgraphMiner
    from repro.history.journal import SlideRecord

#: Format tag written into checkpoint manifests.
CHECKPOINT_FORMAT = "repro-checkpoint/1"
#: Manifest file name inside a snapshot directory (written last).
MANIFEST_NAME = "checkpoint.json"
#: Registry state file name inside a snapshot directory.
REGISTRY_NAME = "registry.json"
#: Snapshot directory name prefix (``chk-<slide id, zero padded>``).
SNAPSHOT_PREFIX = "chk-"


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


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


def _write_fsynced(path: Path, payload: bytes) -> None:
    with open(path, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())


@dataclass(frozen=True)
class Checkpoint:
    """One sealed, validated snapshot of a miner's resumable state.

    ``batches_consumed`` (= ``slide_id + 1``: segment ids are assigned
    consecutively from 0 by the store) is how many stream batches the
    checkpointed miner had committed — the resume path skips exactly that
    prefix.  ``journal_records``/``journal_data_size`` record where the
    coordinated journal stood when the slide was sealed; they are
    informational (resume truncates the journal by *slide id*, which stays
    correct even after a retention compaction rebased the byte offsets).
    """

    path: Path
    slide_id: int
    window_size: int
    batch_size: int
    num_columns: int
    batches_consumed: int
    journal_records: int
    journal_data_size: int
    known_items: Tuple[str, ...]
    segments: Tuple[Segment, ...]
    registry: EdgeRegistry

    def __repr__(self) -> str:
        return (
            f"Checkpoint(slide={self.slide_id}, window={self.window_size}, "
            f"segments={len(self.segments)}, path={str(self.path)!r})"
        )


class CheckpointManager:
    """Seals, loads and prunes the snapshots under one checkpoint root.

    Parameters
    ----------
    root:
        Directory the ``chk-*`` snapshot directories live in (created on
        demand).
    keep:
        How many sealed snapshots to retain; older ones are pruned after
        every successful seal (at least 1).
    """

    def __init__(self, root: Union[str, Path], keep: int = 3) -> None:
        if keep < 1:
            raise CheckpointError(f"keep must be at least 1, got {keep}")
        self._root = Path(root)
        if self._root.exists() and not self._root.is_dir():
            raise CheckpointError(
                f"{self._root} exists and is not a directory; checkpoints "
                "need a directory"
            )
        self._root.mkdir(parents=True, exist_ok=True)
        self._keep = keep

    @property
    def root(self) -> Path:
        """The checkpoint root directory."""
        return self._root

    @property
    def keep(self) -> int:
        """How many snapshots survive pruning."""
        return self._keep

    # ------------------------------------------------------------------ #
    # sealing
    # ------------------------------------------------------------------ #
    def seal(
        self, miner: "StreamSubgraphMiner", journal: Optional[object] = None
    ) -> Checkpoint:
        """Seal the miner's current window state into a new snapshot.

        Must run at a slide boundary (the per-slide sink chain is one);
        ``journal`` — anything with ``__len__``/``data_size``, typically
        the coordinated :class:`~repro.history.journal.DiskJournal` — is
        only consulted for the informational journal position.  Re-sealing
        a slide that already has a valid snapshot (a resumed run replaying
        its cadence) is an idempotent no-op returning the existing one.
        """
        segments = tuple(miner.matrix.segments())
        if not segments:
            raise CheckpointError("cannot checkpoint an empty window")
        slide_id = segments[-1].segment_id
        final = self._root / f"{SNAPSHOT_PREFIX}{slide_id:08d}"
        if final.exists():
            try:
                return self.load(final)
            except CheckpointError:
                shutil.rmtree(final)  # a partial seal — replace it
        faults.trip("checkpoint.write", OSError)
        journal_records = len(journal) if isinstance(journal, Sized) else 0
        journal_data_size = int(getattr(journal, "data_size", 0))
        known_items = list(miner.matrix.store.items())
        registry_payload = json.dumps(
            miner.registry.to_state(), sort_keys=True
        ).encode("utf-8")

        temp = self._root / f".{SNAPSHOT_PREFIX}{slide_id:08d}.tmp-{os.getpid()}"
        if temp.exists():
            shutil.rmtree(temp)
        (temp / "segments").mkdir(parents=True)
        files: Dict[str, str] = {}
        segment_files: List[str] = []
        try:
            for segment in segments:
                relative = f"segments/seg-{segment.segment_id:08d}.dsg"
                payload = segment.to_bytes()
                _write_fsynced(temp / relative, payload)
                files[relative] = _sha256(payload)
                segment_files.append(relative)
            _write_fsynced(temp / REGISTRY_NAME, registry_payload)
            files[REGISTRY_NAME] = _sha256(registry_payload)
            manifest = {
                "format": CHECKPOINT_FORMAT,
                "slide_id": slide_id,
                "window_size": miner.window_size,
                "batch_size": miner.batch_size,
                "num_columns": miner.matrix.num_columns,
                "batches_consumed": slide_id + 1,
                "journal_records": journal_records,
                "journal_data_size": journal_data_size,
                "known_items": known_items,
                "segment_files": segment_files,
                "files": files,
            }
            # The manifest goes last: its presence (and its digests) is
            # what declares the snapshot complete.
            _write_fsynced(
                temp / MANIFEST_NAME,
                json.dumps(manifest, sort_keys=True).encode("utf-8"),
            )
            _fsync_directory(temp)
            os.replace(temp, final)
        except Exception:
            shutil.rmtree(temp, ignore_errors=True)
            raise
        _fsync_directory(self._root)
        self.prune()
        return Checkpoint(
            path=final,
            slide_id=slide_id,
            window_size=miner.window_size,
            batch_size=miner.batch_size,
            num_columns=miner.matrix.num_columns,
            batches_consumed=slide_id + 1,
            journal_records=journal_records,
            journal_data_size=journal_data_size,
            known_items=tuple(known_items),
            segments=segments,
            registry=miner.registry,
        )

    # ------------------------------------------------------------------ #
    # loading
    # ------------------------------------------------------------------ #
    def snapshot_paths(self) -> List[Path]:
        """Sealed snapshot directories, oldest slide first (unvalidated)."""
        return sorted(
            path
            for path in self._root.glob(f"{SNAPSHOT_PREFIX}*")
            if path.is_dir()
        )

    def load(self, path: Union[str, Path]) -> Checkpoint:
        """Load and fully validate one snapshot directory.

        Raises :class:`~repro.exceptions.CheckpointError` on a missing or
        malformed manifest, a missing file, or a digest mismatch — the
        partial-snapshot states a crash mid-seal or mid-prune can leave.
        """
        directory = Path(path)
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.exists():
            raise CheckpointError(
                f"{directory} has no manifest; partial snapshot (crash "
                "during seal or prune?)"
            )
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"corrupt checkpoint manifest in {directory}") from exc
        if manifest.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"{manifest_path} has unsupported checkpoint format "
                f"{manifest.get('format')!r}"
            )
        payloads: Dict[str, bytes] = {}
        for relative, digest in manifest["files"].items():
            target = directory / relative
            if not target.exists():
                raise CheckpointError(
                    f"snapshot {directory} is missing {relative}; skipping it"
                )
            payload = target.read_bytes()
            if _sha256(payload) != digest:
                raise CheckpointError(
                    f"snapshot {directory} failed the digest check for "
                    f"{relative}; skipping it"
                )
            payloads[relative] = payload
        try:
            segments = tuple(
                Segment.from_bytes(payloads[relative])
                for relative in manifest["segment_files"]
            )
            registry = EdgeRegistry.from_state(
                json.loads(payloads[REGISTRY_NAME].decode("utf-8"))
            )
        except CheckpointError:
            raise
        except Exception as exc:  # any decode failure invalidates the snapshot
            raise CheckpointError(
                f"snapshot {directory} does not decode: {exc}"
            ) from exc
        return Checkpoint(
            path=directory,
            slide_id=int(manifest["slide_id"]),
            window_size=int(manifest["window_size"]),
            batch_size=int(manifest["batch_size"]),
            num_columns=int(manifest["num_columns"]),
            batches_consumed=int(manifest["batches_consumed"]),
            journal_records=int(manifest["journal_records"]),
            journal_data_size=int(manifest["journal_data_size"]),
            known_items=tuple(manifest["known_items"]),
            segments=segments,
            registry=registry,
        )

    def latest(self) -> Optional[Checkpoint]:
        """The newest snapshot that validates, or ``None``.

        Invalid/partial snapshots are skipped (newest first), exactly as
        the seal protocol promises.
        """
        for path in reversed(self.snapshot_paths()):
            try:
                return self.load(path)
            except CheckpointError:
                continue
        return None

    # ------------------------------------------------------------------ #
    # pruning
    # ------------------------------------------------------------------ #
    def prune(self) -> int:
        """Delete the oldest snapshots beyond ``keep``; returns the count.

        The manifest is unlinked first: if deletion is interrupted the
        leftover directory fails validation instead of posing as a
        complete (but wrong) snapshot.
        """
        paths = self.snapshot_paths()
        pruned = 0
        while len(paths) > self._keep:
            victim = paths.pop(0)
            manifest = victim / MANIFEST_NAME
            if manifest.exists():
                manifest.unlink()
            shutil.rmtree(victim, ignore_errors=True)
            pruned += 1
        return pruned

    def __repr__(self) -> str:
        return (
            f"CheckpointManager(root={str(self._root)!r}, keep={self._keep}, "
            f"snapshots={len(self.snapshot_paths())})"
        )


class Checkpointer:
    """A per-slide sink that seals a checkpoint every ``every`` slides.

    Attach it *after* the journal sink (sinks run in order), so every seal
    sees a journal that already contains the slide being checkpointed —
    the coordination invariant resume depends on.  Under parallel
    ingestion the sink chain runs inside the single-writer commit hook, and
    a watch with mining workers commits the next slide's batch (and its new
    edges) only after this slide's sinks (DESIGN.md §12.1), so the window,
    registry and journal are all at the same slide when the snapshot is
    cut.
    """

    def __init__(
        self,
        manager: CheckpointManager,
        miner: "StreamSubgraphMiner",
        journal: Optional[object] = None,
        every: int = 10,
        policy: Optional[FailurePolicy] = None,
        events: Optional[EventLog] = None,
    ) -> None:
        if every < 1:
            raise CheckpointError(f"every must be at least 1, got {every}")
        self._manager = manager
        self._miner = miner
        self._journal = journal
        self._every = every
        self._policy = policy
        self._events = events
        self._slides = 0
        self._sealed = 0
        self._skipped = 0
        self._last: Optional[Checkpoint] = None

    @property
    def every(self) -> int:
        """The seal cadence in slides."""
        return self._every

    @property
    def snapshots_sealed(self) -> int:
        """How many snapshots this checkpointer has sealed."""
        return self._sealed

    @property
    def last_checkpoint(self) -> Optional[Checkpoint]:
        """The most recently sealed checkpoint, if any."""
        return self._last

    @property
    def snapshots_skipped(self) -> int:
        """Seal cadences abandoned after exhausting the I/O retry budget."""
        return self._skipped

    def __call__(self, record: "SlideRecord") -> None:
        self._slides += 1
        if self._slides % self._every:
            return
        # Snapshots are an optimisation (they bound resume replay), not
        # correctness: a seal that keeps failing after the policy's I/O
        # retries is skipped — the watch continues and the next cadence
        # tries again — rather than killing a healthy run.  The seal
        # itself cleans up its temp directory on failure, so a skipped
        # attempt leaves no partial snapshot behind.
        try:
            self._last = retry_io(
                lambda: self._manager.seal(self._miner, journal=self._journal),
                site="checkpoint.write",
                policy=self._policy,
                events=self._events,
            )
        except OSError as exc:
            self._skipped += 1
            if self._events is not None:
                self._events.record(
                    "skip",
                    "checkpoint.write",
                    detail=f"seal abandoned at slide {record.slide_id}: "
                    f"{type(exc).__name__}: {exc}",
                )
            return
        self._sealed += 1

    def __repr__(self) -> str:
        return (
            f"Checkpointer(every={self._every}, sealed={self._sealed}, "
            f"root={str(self._manager.root)!r})"
        )
