"""Unit tests for repro.stream.stream (TransactionStream and GraphStream)."""

import pytest

from repro.exceptions import StreamError
from repro.graph.edge import Edge
from repro.graph.edge_registry import EdgeRegistry
from repro.graph.graph import GraphSnapshot
from repro.stream.stream import (
    GraphStream,
    TransactionStream,
    assemble_batches,
    group_units,
)


class TestGroupUnits:
    """The one batching rule, shared by the batch streams and parallel ingest."""

    def test_batches_are_aligned_and_ordered(self):
        assert list(group_units(range(8), batch_size=3)) == [
            (0, 1, 2),
            (3, 4, 5),
            (6, 7),
        ]

    def test_groups_hold_whole_batches(self):
        groups = list(group_units(range(10), batch_size=2))
        assert [len(group) for group in groups] == [2, 2, 2, 2, 2]
        assert groups[2] == (4, 5)

    def test_drop_last_discards_partial_batch(self):
        groups = list(group_units(range(8), batch_size=3, drop_last=True))
        assert groups == [(0, 1, 2), (3, 4, 5)]
        # A full trailing batch is not partial and is kept.
        assert len(list(group_units(range(6), batch_size=3, drop_last=True))) == 2

    def test_empty_stream_yields_no_batches(self):
        assert list(group_units([], batch_size=4)) == []
        assert list(group_units([], batch_size=4, drop_last=True)) == []

    def test_grouping_is_deterministic(self):
        units = [f"t{i}" for i in range(57)]
        assert list(group_units(units, 5)) == list(group_units(iter(units), 5))

    def test_every_unit_lands_in_one_batch(self):
        groups = list(group_units(range(11), batch_size=4))
        assert [unit for group in groups for unit in group] == list(range(11))

    def test_units_are_pulled_one_batch_at_a_time(self):
        pulled = []

        def generate():
            for index in range(10):
                pulled.append(index)
                yield index

        groups = group_units(generate(), batch_size=3)
        assert next(groups) == (0, 1, 2)
        assert pulled == [0, 1, 2]

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_non_positive_batch_size_rejected(self, batch_size):
        with pytest.raises(StreamError):
            list(group_units([], batch_size=batch_size))


class TestAssembleBatches:
    """Batch objects over the groups of :func:`group_units`."""

    def test_matches_transaction_stream_batching(self):
        transactions = [[f"i{index}"] for index in range(7)]
        via_stream = list(TransactionStream(transactions, batch_size=3).batches())
        via_function = list(assemble_batches(transactions, batch_size=3))
        assert via_function == via_stream
        assert [b.batch_id for b in via_function] == [0, 1, 2]

    def test_start_batch_id_offsets_ids(self):
        batches = list(assemble_batches([["a"], ["b"]], batch_size=1, start_batch_id=5))
        assert [b.batch_id for b in batches] == [5, 6]

    def test_drop_last_discards_partial(self):
        batches = list(assemble_batches([["a"], ["b"], ["c"]], batch_size=2, drop_last=True))
        assert [len(b) for b in batches] == [2]

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(StreamError):
            list(assemble_batches([], batch_size=0))

    def test_raw_accessors_round_trip(self):
        transactions = [["a"], ["b"]]
        stream = TransactionStream(transactions, batch_size=2, drop_last=True)
        assert stream.raw_transactions is transactions
        assert stream.drop_last is True
        snapshots = [GraphSnapshot([Edge("v1", "v2")])]
        graph_stream = GraphStream(snapshots, batch_size=1, register_new_edges=False)
        assert graph_stream.raw_snapshots is snapshots
        assert graph_stream.register_new_edges is False


class TestTransactionStream:
    def test_batches_have_sequential_ids(self):
        stream = TransactionStream([["a"], ["b"], ["c"], ["d"]], batch_size=2)
        batches = list(stream.batches())
        assert [b.batch_id for b in batches] == [0, 1]
        assert [len(b) for b in batches] == [2, 2]

    def test_trailing_partial_batch_kept_by_default(self):
        stream = TransactionStream([["a"], ["b"], ["c"]], batch_size=2)
        batches = list(stream)
        assert [len(b) for b in batches] == [2, 1]

    def test_trailing_partial_batch_dropped_when_requested(self):
        stream = TransactionStream([["a"], ["b"], ["c"]], batch_size=2, drop_last=True)
        assert [len(b) for b in stream] == [2]

    def test_invalid_batch_size(self):
        with pytest.raises(StreamError):
            TransactionStream([], batch_size=0)

    def test_generator_input_consumed_lazily(self):
        def generate():
            for index in range(5):
                yield [f"i{index}"]

        stream = TransactionStream(generate(), batch_size=2)
        assert sum(len(b) for b in stream) == 5


class TestGraphStream:
    def make_snapshots(self):
        return [
            GraphSnapshot([Edge("v1", "v2"), Edge("v2", "v3")]),
            GraphSnapshot([Edge("v1", "v2")]),
            GraphSnapshot([Edge("v3", "v4")]),
        ]

    def test_encodes_snapshots_with_registry(self):
        stream = GraphStream(self.make_snapshots(), batch_size=2)
        transactions = list(stream.transactions())
        assert transactions[0] == ("a", "b")
        assert transactions[1] == ("a",)

    def test_creates_registry_when_missing(self):
        stream = GraphStream(self.make_snapshots(), batch_size=2)
        list(stream.batches())
        assert len(stream.registry) == 3

    def test_uses_supplied_registry(self):
        registry = EdgeRegistry()
        registry.register(Edge("v1", "v2"), "x")
        stream = GraphStream(self.make_snapshots(), registry=registry, batch_size=2)
        transactions = list(stream.transactions())
        assert "x" in transactions[0]

    def test_rejects_unknown_edges_when_registration_disabled(self):
        registry = EdgeRegistry().freeze()
        stream = GraphStream(
            self.make_snapshots(), registry=registry, batch_size=2, register_new_edges=False
        )
        with pytest.raises(Exception):
            list(stream.transactions())

    def test_batching(self):
        stream = GraphStream(self.make_snapshots(), batch_size=2)
        batches = list(stream)
        assert [len(b) for b in batches] == [2, 1]

    def test_invalid_batch_size(self):
        with pytest.raises(StreamError):
            GraphStream([], batch_size=-1)
