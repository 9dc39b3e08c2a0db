"""Warm-start snapshots of the serving index (DESIGN.md §15).

The miner checkpoints of :mod:`repro.checkpoint.snapshot` make the
*writer* resumable; this module makes the *server* warm-startable: the
serving index (:class:`~repro.serve.index.IndexSnapshot`) is
sealed as one JSON payload so a restarted server hydrates the index by
deserialisation and re-indexes only the journal suffix appended after
the seal, instead of rebuilding every posting list from scratch.

The seal follows the §12 crash-safety protocol: payload into a hidden
temp directory, fsynced; a manifest carrying the format tag, the sealed
last slide id and the payload's SHA-256 digest written last; one
``os.replace`` to the final ``serve-index`` name; parent directory
fsync.  A crash mid-seal leaves either a hidden temp directory (never
loaded) or a digest-mismatched snapshot — :func:`load_serve_index`
treats both as "no snapshot" so a cold start is always the fallback,
never corrupt state.

This module deliberately traffics in plain payload dictionaries (the
``to_payload``/``from_payload`` surface of ``IndexSnapshot``) so the
checkpoint layer never imports the serve layer — serve sits on top of
checkpoint, not beside it.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

from repro.exceptions import CheckpointError
from repro.checkpoint.snapshot import _fsync_directory, _sha256, _write_fsynced

#: Format tag written into serve-index manifests.
SERVE_INDEX_CHECKPOINT_FORMAT = "repro-serve-index-checkpoint/1"
#: Directory name of the sealed snapshot inside a warm-start root.
SERVE_INDEX_DIRNAME = "serve-index"
#: Manifest file name inside the snapshot directory (written last).
MANIFEST_NAME = "serve-index.json"
#: Payload file name inside the snapshot directory.
PAYLOAD_NAME = "index.json"


def seal_serve_index(root: Union[str, Path], payload: Mapping[str, object]) -> Path:
    """Atomically seal one serve-index payload under ``root``.

    Replaces any previous seal — the warm-start root holds exactly one
    snapshot (history lives in the journal; the index is derived state,
    so only the newest seal is ever worth loading).
    """
    root_path = Path(root)
    if root_path.exists() and not root_path.is_dir():
        raise CheckpointError(
            f"{root_path} exists and is not a directory; serve-index "
            "snapshots need a directory"
        )
    root_path.mkdir(parents=True, exist_ok=True)
    last_slide = None
    order = payload.get("order")
    if isinstance(order, (list, tuple)) and order:
        last_slide = order[-1]
    payload_bytes = json.dumps(payload, sort_keys=True).encode("utf-8")
    temp = root_path / f".{SERVE_INDEX_DIRNAME}.tmp"
    if temp.exists():
        shutil.rmtree(temp)
    temp.mkdir()
    _write_fsynced(temp / PAYLOAD_NAME, payload_bytes)
    manifest = {
        "format": SERVE_INDEX_CHECKPOINT_FORMAT,
        "payload": PAYLOAD_NAME,
        "last_slide": last_slide,
        "generation": payload.get("generation"),
        "digest": _sha256(payload_bytes),
    }
    _write_fsynced(
        temp / MANIFEST_NAME, json.dumps(manifest, sort_keys=True).encode("utf-8")
    )
    final = root_path / SERVE_INDEX_DIRNAME
    if final.exists():
        # os.replace cannot atomically swap two non-empty directories;
        # drop the old seal first.  A crash in between leaves only the
        # temp directory — the loader falls back to a cold start.
        shutil.rmtree(final)
    os.replace(temp, final)
    _fsync_directory(root_path)
    return final


def load_serve_index(root: Union[str, Path]) -> Optional[Dict[str, object]]:
    """Load the sealed payload under ``root``, or ``None`` when unusable.

    Every failure mode — missing directory, missing/corrupt manifest,
    digest mismatch, unreadable payload — returns ``None``: warm start
    is an optimisation, so the caller's fallback is always a cold
    rebuild from the journal, never an error.
    """
    final = Path(root) / SERVE_INDEX_DIRNAME
    manifest_path = final / MANIFEST_NAME
    payload_path = final / PAYLOAD_NAME
    if not manifest_path.exists() or not payload_path.exists():
        return None
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError):
        return None
    if manifest.get("format") != SERVE_INDEX_CHECKPOINT_FORMAT:
        return None
    try:
        payload_bytes = payload_path.read_bytes()
    except OSError:
        return None
    if _sha256(payload_bytes) != manifest.get("digest"):
        return None
    try:
        payload = json.loads(payload_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict):
        return None
    return payload


__all__ = [
    "SERVE_INDEX_CHECKPOINT_FORMAT",
    "SERVE_INDEX_DIRNAME",
    "seal_serve_index",
    "load_serve_index",
]
