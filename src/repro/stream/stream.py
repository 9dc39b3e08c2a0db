"""Streams of graph snapshots and of raw transactions.

A :class:`GraphStream` wraps any iterable of
:class:`~repro.graph.graph.GraphSnapshot` objects and batches it; a
:class:`TransactionStream` does the same for already-encoded transactions.
Both yield :class:`~repro.stream.batch.Batch` objects, which is what the
sliding window and the storage structures consume.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, Optional, Sequence, Tuple, TypeVar, Union

from repro.exceptions import StreamError
from repro.graph.edge_registry import EdgeRegistry
from repro.graph.graph import GraphSnapshot
from repro.stream.batch import Batch, Transaction

Unit = TypeVar("Unit")


def group_units(
    units: Iterable[Unit], batch_size: int, drop_last: bool = False
) -> Iterator[Tuple[Unit, ...]]:
    """Group raw stream units into tuples of ``batch_size``, lazily.

    This is the one batching rule of the stream (DESIGN.md §5): the
    trailing partial group is kept unless ``drop_last`` is set, the
    grouping depends only on the input order, and each group is pulled
    from ``units`` only when it is asked for.  :func:`assemble_batches`
    wraps the groups in :class:`Batch` objects; the parallel ingestion
    pipeline ships them to its workers as they are.
    """
    if batch_size <= 0:
        raise StreamError(f"batch_size must be positive, got {batch_size}")
    iterator = iter(units)
    while True:
        group = tuple(islice(iterator, batch_size))
        if not group or (drop_last and len(group) < batch_size):
            return
        yield group


def assemble_batches(
    transactions: Iterable[Sequence[str]],
    batch_size: int,
    start_batch_id: int = 0,
    drop_last: bool = False,
) -> Iterator[Batch]:
    """Group transactions into :class:`Batch` objects of ``batch_size``.

    The batch-assembly function behind :class:`TransactionStream`: the
    groups of :func:`group_units`, with sequential batch ids starting at
    ``start_batch_id``.
    """
    groups = group_units(transactions, batch_size, drop_last=drop_last)
    for batch_id, group in enumerate(groups, start=start_batch_id):
        yield Batch(group, batch_id=batch_id)


class TransactionStream:
    """A batched stream of transactions.

    Parameters
    ----------
    transactions:
        Any iterable of transactions (sequences of item symbols).
    batch_size:
        Number of transactions per batch.  The final batch may be smaller
        unless ``drop_last`` is set.
    drop_last:
        Discard a trailing partial batch (default keeps it).
    """

    def __init__(
        self,
        transactions: Iterable[Sequence[str]],
        batch_size: int,
        drop_last: bool = False,
    ) -> None:
        if batch_size <= 0:
            raise StreamError(f"batch_size must be positive, got {batch_size}")
        self._transactions = transactions
        self._batch_size = batch_size
        self._drop_last = drop_last

    @property
    def batch_size(self) -> int:
        """Number of transactions per emitted batch."""
        return self._batch_size

    @property
    def raw_transactions(self) -> Iterable[Sequence[str]]:
        """The unbatched transactions this stream wraps (may be one-shot)."""
        return self._transactions

    @property
    def drop_last(self) -> bool:
        """Whether a trailing partial batch is discarded."""
        return self._drop_last

    def batches(self) -> Iterator[Batch]:
        """Yield successive batches with sequential ``batch_id`` values."""
        return assemble_batches(
            self._transactions, self._batch_size, drop_last=self._drop_last
        )

    def __iter__(self) -> Iterator[Batch]:
        return self.batches()


def skip_stream_prefix(
    stream: Union["GraphStream", "TransactionStream", Iterable[Batch]],
    batches: int,
) -> Union["GraphStream", "TransactionStream", Iterator[Batch]]:
    """Drop the first ``batches`` full batches of a stream (resume support).

    This is how a hydrated miner replays only the un-checkpointed suffix
    (DESIGN.md §12): the checkpoint records how many batches were already
    committed, and the resumed ``watch`` consumes the same source stream
    with that prefix skipped.  For the raw-unit stream types the skip is
    ``batches × batch_size`` units (batch alignment depends only on input
    order, so the remaining units regroup into the exact same batches the
    uninterrupted run would have committed next); for a plain batch
    iterable the first ``batches`` elements are dropped.

    A ``GraphStream`` keeps its registry: the checkpointed registry
    already contains every edge of the skipped prefix, so encoding resumes
    with identical symbol assignment.
    """
    if batches < 0:
        raise StreamError(f"cannot skip {batches} batches")
    if batches == 0:
        return stream
    if isinstance(stream, GraphStream):
        return GraphStream(
            islice(stream.raw_snapshots, batches * stream.batch_size, None),
            registry=stream.registry,
            batch_size=stream.batch_size,
            register_new_edges=stream.register_new_edges,
        )
    if isinstance(stream, TransactionStream):
        return TransactionStream(
            islice(stream.raw_transactions, batches * stream.batch_size, None),
            batch_size=stream.batch_size,
            drop_last=stream.drop_last,
        )
    return islice(iter(stream), batches, None)


class GraphStream:
    """A batched stream of graph snapshots encoded through an edge registry.

    Parameters
    ----------
    snapshots:
        Any iterable of :class:`~repro.graph.graph.GraphSnapshot`.
    registry:
        The :class:`~repro.graph.edge_registry.EdgeRegistry` used to encode
        snapshots into transactions.  A fresh registry is created when omitted
        and exposed via :attr:`registry`.
    batch_size:
        Number of snapshots per batch.
    register_new_edges:
        Whether unseen edges are added to the registry while streaming
        (default) or rejected.
    """

    def __init__(
        self,
        snapshots: Iterable[GraphSnapshot],
        registry: Optional[EdgeRegistry] = None,
        batch_size: int = 1000,
        register_new_edges: bool = True,
    ) -> None:
        if batch_size <= 0:
            raise StreamError(f"batch_size must be positive, got {batch_size}")
        self._snapshots = snapshots
        self._registry = registry if registry is not None else EdgeRegistry()
        self._batch_size = batch_size
        self._register_new_edges = register_new_edges

    @property
    def registry(self) -> EdgeRegistry:
        """The edge registry used to encode snapshots."""
        return self._registry

    @property
    def batch_size(self) -> int:
        """Number of snapshots per emitted batch."""
        return self._batch_size

    @property
    def raw_snapshots(self) -> Iterable[GraphSnapshot]:
        """The unencoded snapshots this stream wraps (may be one-shot)."""
        return self._snapshots

    @property
    def register_new_edges(self) -> bool:
        """Whether unseen edges are registered while streaming."""
        return self._register_new_edges

    def transactions(self) -> Iterator[Transaction]:
        """Yield the encoded transaction of every snapshot in order."""
        for snapshot in self._snapshots:
            yield self._registry.encode(snapshot, register_new=self._register_new_edges)

    def batches(self) -> Iterator[Batch]:
        """Yield successive batches of encoded transactions."""
        stream = TransactionStream(self.transactions(), batch_size=self._batch_size)
        return stream.batches()

    def __iter__(self) -> Iterator[Batch]:
        return self.batches()
