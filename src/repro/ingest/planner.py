"""Ingest planning: how an incoming stream is split for concurrent encoding.

The :class:`IngestPlanner` turns a stream of raw *units* — unencoded
transactions or graph snapshots — into **batch-aligned chunks**
(DESIGN.md §5).  A chunk is the task shipped to one ingestion worker: it
carries exactly one whole batch (batches are the atom of window sliding and
of segment persistence, so they are never split across workers, and one
batch per task keeps the tasks maximally balanced), and the plan is a
deterministic function of the input order and the batch size — never of
the worker count or scheduling.  The coordinator
commits chunk results back in ``chunk_id`` order, which is what makes
``workers=0`` byte-identical to the sequential append path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple, Union

from repro.exceptions import IngestError
from repro.graph.graph import GraphSnapshot
from repro.stream.batch import Batch

#: One unencoded stream element: a raw transaction or a graph snapshot.
RawUnit = Union[Sequence[str], GraphSnapshot]


@dataclass(frozen=True)
class IngestChunk:
    """One whole batch of raw stream units: the unit of ingest work.

    ``batches`` holds the chunk's single batch (the tuple shape is the one
    a worker task carries).  ``first_batch_index`` is the 0-based position
    of that batch within this ingest run, so the worker can be told the final
    segment ids its batches will receive (``base_segment_id`` =
    the store's next id + ``first_batch_index``).
    """

    chunk_id: int
    first_batch_index: int
    batches: Tuple[Tuple[RawUnit, ...], ...]

    @property
    def num_batches(self) -> int:
        """Number of whole batches carried by this chunk."""
        return len(self.batches)

    @property
    def num_units(self) -> int:
        """Number of raw units (transactions / snapshots) in this chunk."""
        return sum(len(batch) for batch in self.batches)


class IngestPlanner:
    """Deterministic splitter of an incoming stream into batch-aligned chunks.

    Parameters
    ----------
    batch_size:
        Number of raw units per batch (ignored by :meth:`plan_batches`,
        where the caller already fixed the batch boundaries).
    """

    def __init__(self, batch_size: int) -> None:
        if batch_size <= 0:
            raise IngestError(f"batch_size must be positive, got {batch_size}")
        self._batch_size = batch_size

    @property
    def batch_size(self) -> int:
        """Raw units per batch."""
        return self._batch_size

    def plan_units(
        self, units: Iterable[RawUnit], drop_last: bool = False
    ) -> List[IngestChunk]:
        """Group raw units into batches of ``batch_size``, then into chunks.

        The trailing partial batch is kept unless ``drop_last`` is set,
        mirroring :func:`repro.stream.stream.assemble_batches`.
        """
        ordered = list(units)
        batches: List[Tuple[RawUnit, ...]] = []
        for start in range(0, len(ordered), self._batch_size):
            group = tuple(ordered[start : start + self._batch_size])
            if len(group) < self._batch_size and drop_last:
                break
            batches.append(group)
        return self._chunk(batches)

    def plan_batches(self, batches: Iterable[Batch]) -> List[IngestChunk]:
        """Chunk ready-made :class:`~repro.stream.batch.Batch` objects.

        The caller's batch boundaries are preserved exactly.
        """
        payloads: List[Tuple[RawUnit, ...]] = []
        for batch in batches:
            if not isinstance(batch, Batch):
                raise IngestError(
                    f"expected Batch instances, got {type(batch).__name__}"
                )
            payloads.append(tuple(batch.transactions))
        return self._chunk(payloads)

    def _chunk(
        self, batches: Sequence[Tuple[RawUnit, ...]]
    ) -> List[IngestChunk]:
        return [
            IngestChunk(chunk_id=index, first_batch_index=index, batches=(batch,))
            for index, batch in enumerate(batches)
        ]
