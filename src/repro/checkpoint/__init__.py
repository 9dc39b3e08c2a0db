"""Crash-safe miner checkpoints, restore and the watch supervisor (DESIGN.md §12)."""

from repro.checkpoint.snapshot import (
    CHECKPOINT_FORMAT,
    Checkpoint,
    CheckpointManager,
    Checkpointer,
)
from repro.checkpoint.serve_index import (
    SERVE_INDEX_CHECKPOINT_FORMAT,
    load_serve_index,
    seal_serve_index,
)

__all__ = [
    "CHECKPOINT_FORMAT",
    "Checkpoint",
    "CheckpointManager",
    "Checkpointer",
    "SERVE_INDEX_CHECKPOINT_FORMAT",
    "load_serve_index",
    "seal_serve_index",
]
