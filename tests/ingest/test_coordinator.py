"""Unit tests for the worker encoding step and the single-writer coordinator.

The registry-merge protocol (DESIGN.md §5) is pinned down here at the
component level: provisional symbols, first-occurrence merge order,
stream-order commit enforcement, and the byte-identity of payload commits.
"""

import pytest

from repro.exceptions import DSMatrixError, EdgeRegistryError, IngestError
from repro.graph.edge import Edge
from repro.graph.edge_registry import EdgeRegistry
from repro.graph.graph import GraphSnapshot
from repro.ingest import (
    ChunkOutcome,
    IngestChunkTask,
    WindowCoordinator,
    encode_chunk,
    is_provisional,
    provisional_symbol,
)
from repro.storage.backend import MemoryWindowStore
from repro.storage.segments import Segment
from repro.stream.batch import Batch


def snapshot(*pairs):
    return GraphSnapshot([Edge(u, v) for u, v in pairs])


class TestEncodeChunk:
    def test_transactions_chunk_builds_segment_rows(self):
        first, second = (
            encode_chunk(
                IngestChunkTask(kind="transactions", segment_id=segment_id, units=units)
            )
            for segment_id, units in ((5, (("a", "b"), ("b",))), (6, (("c",),)))
        )
        assert [first.segment_id, second.segment_id] == [5, 6]
        assert first.num_columns == 2
        assert first.rows == {"a": 0b01, "b": 0b11}
        assert second.rows == {"c": 0b1}
        # Final rows ship their exact serialisation for verbatim persistence.
        assert first.payload == Segment(5, 2, first.rows).to_bytes()
        assert second.payload == Segment(6, 1, second.rows).to_bytes()
        assert first.new_edges == second.new_edges == ()

    def test_duplicate_items_collapse_like_batch_normalisation(self):
        task = IngestChunkTask(
            kind="transactions", segment_id=0, units=(("b", "a", "b"),)
        )
        rows = encode_chunk(task).rows
        assert rows == {"a": 0b1, "b": 0b1}

    def test_known_edges_use_registry_symbols(self):
        registry = EdgeRegistry()
        known = Edge("u", "v")
        registry.register(known)
        task = IngestChunkTask(
            kind="snapshots",
            segment_id=0,
            units=(GraphSnapshot([known]),),
            registry=registry,
        )
        outcome = encode_chunk(task)
        assert outcome.rows == {"a": 0b1}
        assert outcome.new_edges == ()

    def test_unseen_edges_become_provisional_in_first_occurrence_order(self):
        registry = EdgeRegistry()
        task = IngestChunkTask(
            kind="snapshots",
            segment_id=0,
            units=(snapshot(("x", "y")), snapshot(("y", "z"), ("x", "y"))),
            registry=registry,
        )
        outcome = encode_chunk(task)
        assert outcome.new_edges == (Edge("x", "y"), Edge("y", "z"))
        rows = outcome.rows
        assert rows[provisional_symbol(0)] == 0b11  # x-y in both snapshots
        assert rows[provisional_symbol(1)] == 0b10
        assert outcome.payload is None  # not final yet
        assert all(is_provisional(item) for item in rows)
        assert len(registry) == 0  # the snapshot registry is never mutated

    def test_register_new_false_raises_in_worker(self):
        task = IngestChunkTask(
            kind="snapshots",
            segment_id=0,
            units=(snapshot(("x", "y")),),
            registry=EdgeRegistry(),
            register_new_edges=False,
        )
        with pytest.raises(EdgeRegistryError):
            encode_chunk(task)

    def test_snapshot_chunk_without_registry_rejected(self):
        task = IngestChunkTask(
            kind="snapshots", segment_id=0, units=(snapshot(("x", "y")),)
        )
        with pytest.raises(IngestError):
            encode_chunk(task)

    def test_unknown_chunk_kind_rejected(self):
        task = IngestChunkTask(kind="bogus", segment_id=0, units=())
        with pytest.raises(IngestError):
            encode_chunk(task)


class TestWindowCoordinator:
    def outcome(self, segment_id, rows, new_edges=(), payload=None):
        return ChunkOutcome(
            segment_id=segment_id,
            num_columns=2,
            rows=rows,
            payload=payload,
            new_edges=new_edges,
        )

    def test_merge_reproduces_sequential_symbol_assignment(self):
        registry = EdgeRegistry()
        store = MemoryWindowStore(window_size=4)
        coordinator = WindowCoordinator(store, registry=registry)
        # Batch 0 discovers u-v; batch 1 independently discovers u-v and w-x.
        coordinator.commit(
            self.outcome(0, {provisional_symbol(0): 0b01}, (Edge("u", "v"),))
        )
        coordinator.commit(
            self.outcome(
                1,
                {provisional_symbol(0): 0b10, provisional_symbol(1): 0b11},
                (Edge("u", "v"), Edge("w", "x")),
            )
        )
        assert registry.items() == ["a", "b"]
        assert registry.edge_for("a") == Edge("u", "v")
        assert registry.edge_for("b") == Edge("w", "x")
        assert coordinator.edges_registered == 2
        assert store.row("a").bits == 0b1001  # remapped into both segments
        assert store.row("b").bits == 0b1100

    def test_out_of_order_commit_rejected(self):
        registry = EdgeRegistry()
        coordinator = WindowCoordinator(
            MemoryWindowStore(window_size=2), registry=registry
        )
        # The store expects segment 0 next; segment 1 must wait its turn,
        # and the registry is not touched by the rejected commit.
        with pytest.raises(IngestError):
            coordinator.commit(
                self.outcome(1, {provisional_symbol(0): 0b1}, (Edge("u", "v"),))
            )
        assert len(registry) == 0

    def test_new_edges_without_registry_rejected(self):
        coordinator = WindowCoordinator(MemoryWindowStore(window_size=2))
        with pytest.raises(IngestError):
            coordinator.commit(
                self.outcome(0, {provisional_symbol(0): 0b1}, (Edge("u", "v"),))
            )

    def test_unresolved_provisional_rows_rejected(self):
        coordinator = WindowCoordinator(
            MemoryWindowStore(window_size=2), registry=EdgeRegistry()
        )
        # Rows reference provisional #1 but only #0 is declared new.
        with pytest.raises(IngestError):
            coordinator.commit(
                self.outcome(0, {provisional_symbol(1): 0b1}, (Edge("u", "v"),))
            )

    def test_register_new_false_rejects_unknown_edges_at_merge(self):
        coordinator = WindowCoordinator(
            MemoryWindowStore(window_size=2),
            registry=EdgeRegistry(),
            register_new_edges=False,
        )
        with pytest.raises(EdgeRegistryError):
            coordinator.commit(
                self.outcome(0, {provisional_symbol(0): 0b1}, (Edge("u", "v"),))
            )

    def test_counters_track_commits(self):
        store = MemoryWindowStore(window_size=1)
        coordinator = WindowCoordinator(store)
        coordinator.commit(self.outcome(0, {"a": 0b11}))
        coordinator.commit(self.outcome(1, {"b": 0b01}))
        assert coordinator.batches_committed == 2
        assert coordinator.columns_committed == 4
        assert coordinator.columns_evicted == 2  # window of 1 batch slid once
        assert store.num_columns == 2


class TestAppendSegment:
    def test_out_of_order_segment_id_rejected(self):
        store = MemoryWindowStore(window_size=2)
        with pytest.raises(DSMatrixError):
            store.append_segment(Segment(3, 1, {"a": 0b1}))

    def test_payload_commit_is_byte_identical_to_sequential(self, tmp_path):
        from repro.storage.backend import DiskWindowStore

        batch = Batch([("a", "b"), ("b",), ("a",)])
        sequential = DiskWindowStore(2, path=tmp_path / "seq")
        sequential.append_batch(batch)
        segment = Segment.from_batch(batch, segment_id=0)
        parallel = DiskWindowStore(2, path=tmp_path / "par")
        parallel.append_segment(segment, payload=segment.to_bytes())
        assert (tmp_path / "seq" / "seg-00000000.dsg").read_bytes() == (
            tmp_path / "par" / "seg-00000000.dsg"
        ).read_bytes()
