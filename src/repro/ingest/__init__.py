"""Parallel sharded ingestion: stream → segments across worker processes.

The subsystem (DESIGN.md §5) completes the parallel end-to-end path —
parallel ingest → segmented window store → parallel mining:

* the stream's own batches (:func:`~repro.stream.stream.group_units`)
  are pulled lazily, one per in-flight credit;
* ingestion workers (:func:`~repro.ingest.worker.encode_chunk`) parse,
  canonicalise (registry snapshot + post-merge of new edges), count and
  materialise one finished segment payload per batch;
* a single-writer :class:`~repro.ingest.coordinator.WindowCoordinator`
  commits the segments to the window store in stream order, preserving
  exact eviction and boundary semantics.

``workers=0`` encodes the same batches in-process and is byte-identical to
the sequential append path.  Entry points:
:meth:`repro.core.miner.StreamSubgraphMiner.consume(..., ingest_workers=N)`,
the CLI's ``repro mine --ingest-workers N``, and :func:`ingest_batches`.
"""

from repro.ingest.api import IngestPipeline, IngestReport, ingest_batches
from repro.ingest.coordinator import WindowCoordinator
from repro.ingest.worker import (
    ChunkOutcome,
    IngestChunkTask,
    encode_chunk,
    initialize_ingest_worker,
    is_provisional,
    provisional_symbol,
)

__all__ = [
    "ChunkOutcome",
    "IngestChunkTask",
    "IngestPipeline",
    "IngestReport",
    "WindowCoordinator",
    "encode_chunk",
    "ingest_batches",
    "initialize_ingest_worker",
    "is_provisional",
    "provisional_symbol",
]
