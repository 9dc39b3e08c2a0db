"""Parity suite: parallel ingestion equals sequential appends exactly.

The acceptance bar of DESIGN.md §5: for every ingest-worker count the
committed window must be *indistinguishable* from the sequential append
path — identical item frequencies and batch boundaries on both storage
backends, byte-identical segment files on disk, identical registry symbol
assignment for streams that discover new edges, and identical mining
results for every algorithm downstream.
"""

import hashlib
from pathlib import Path

import pytest

from repro.core.export import result_to_json
from repro.core.miner import StreamSubgraphMiner
from repro.datasets.random_graphs import GraphStreamGenerator, RandomGraphModel
from repro.exceptions import StreamError
from repro.graph.edge_registry import EdgeRegistry
from repro.stream.batch import Batch
from repro.stream.stream import GraphStream, TransactionStream

WORKER_COUNTS = (0, 1, 4)
BACKENDS = ("memory", "disk")


def synthetic_snapshots(seed=7, count=95):
    model = RandomGraphModel(num_vertices=10, avg_fanout=3.0, seed=seed)
    generator = GraphStreamGenerator(model, avg_edges_per_snapshot=4.0, seed=seed + 1)
    return list(generator.snapshots(count))


def build_miner(backend, tmp_path, registry=None):
    return StreamSubgraphMiner(
        window_size=3,
        batch_size=15,
        algorithm="vertical",
        registry=registry,
        storage_path=tmp_path / "segments" if backend != "memory" else None,
    )


def segment_digests(storage_dir: Path):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(storage_dir).glob("seg-*.dsg"))
    }


def window_fingerprint(miner):
    return (
        dict(miner.matrix.item_frequencies()),
        miner.matrix.boundaries(),
        miner.matrix.items(),
        miner.batches_consumed,
    )


class TestSnapshotStreamParity:
    """GraphStream ingestion: fresh registries discover every edge in-flight."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_worker_counts_match_sequential_append(self, backend, tmp_path):
        snapshots = synthetic_snapshots()
        # Reference: the historical sequential consume path.
        reference_registry = EdgeRegistry()
        reference = build_miner(backend, tmp_path / "seq", reference_registry)
        reference.consume(GraphStream(snapshots, registry=reference_registry, batch_size=15))
        reference_digests = (
            segment_digests(tmp_path / "seq" / "segments")
            if backend == "disk"
            else None
        )
        for workers in WORKER_COUNTS:
            registry = EdgeRegistry()
            miner = build_miner(backend, tmp_path / f"w{workers}", registry)
            miner.consume(
                GraphStream(snapshots, registry=registry, batch_size=15),
                ingest_workers=workers,
            )
            assert window_fingerprint(miner) == window_fingerprint(reference)
            # The registry-merge protocol reproduces sequential symbols.
            assert registry.items() == reference_registry.items()
            assert [registry.edge_for(item) for item in registry.items()] == [
                reference_registry.edge_for(item)
                for item in reference_registry.items()
            ]
            if backend == "disk":
                digests = segment_digests(tmp_path / f"w{workers}" / "segments")
                assert digests == reference_digests, (
                    f"ingest_workers={workers} persisted different segment bytes"
                )

    @pytest.mark.parametrize("algorithm", ["vertical", "vertical_direct", "fptree_multi"])
    def test_mining_results_identical_after_parallel_ingest(self, algorithm, tmp_path):
        snapshots = synthetic_snapshots()
        rendered = {}
        for workers in WORKER_COUNTS:
            registry = EdgeRegistry()
            miner = StreamSubgraphMiner(
                window_size=3, batch_size=15, algorithm=algorithm, registry=registry
            )
            miner.consume(
                GraphStream(snapshots, registry=registry, batch_size=15),
                ingest_workers=workers,
            )
            result = miner.mine(minsup=3, connected_only=True)
            rendered[workers] = result_to_json(result, registry)
        assert rendered[0] == rendered[1] == rendered[4], (
            f"{algorithm}: parallel ingestion changed the mined patterns"
        )

    def test_register_new_edges_false_raises_on_unseen_edge(self, tmp_path):
        snapshots = synthetic_snapshots()
        registry = EdgeRegistry()
        miner = build_miner("memory", tmp_path, registry)
        stream = GraphStream(
            snapshots, registry=registry, batch_size=15, register_new_edges=False
        )
        from repro.exceptions import EdgeRegistryError

        with pytest.raises(EdgeRegistryError):
            miner.consume(stream, ingest_workers=0)

    def test_prepopulated_frozen_registry_needs_no_merge(self, tmp_path):
        model = RandomGraphModel(num_vertices=10, avg_fanout=3.0, seed=7)
        registry = model.registry().freeze()
        snapshots = synthetic_snapshots()
        miner = build_miner("memory", tmp_path, registry)
        miner.consume(
            GraphStream(
                snapshots, registry=registry, batch_size=15, register_new_edges=False
            ),
            ingest_workers=2,
        )
        assert miner.batches_consumed == 7


class TestTransactionStreamParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_transaction_stream_matches_add_transactions(
        self, backend, workers, tmp_path
    ):
        registry = EdgeRegistry()
        transactions = [
            registry.encode(snapshot) for snapshot in synthetic_snapshots()
        ]
        reference = build_miner(backend, tmp_path / "seq")
        reference.add_transactions(transactions)
        reference.flush_pending()
        miner = build_miner(backend, tmp_path / f"w{workers}")
        miner.consume(
            TransactionStream(transactions, batch_size=15), ingest_workers=workers
        )
        assert window_fingerprint(miner) == window_fingerprint(reference)
        if backend == "disk":
            assert segment_digests(
                tmp_path / f"w{workers}" / "segments"
            ) == segment_digests(tmp_path / "seq" / "segments")

    def test_drop_last_is_honoured(self, tmp_path):
        transactions = [("a",), ("b",), ("a", "b"), ("c",), ("a",)]
        miner = build_miner("memory", tmp_path)
        miner.consume(
            TransactionStream(transactions, batch_size=2, drop_last=True),
            ingest_workers=0,
        )
        assert miner.matrix.boundaries() == [2, 4]  # trailing partial dropped

    def test_prebatched_iterable_matches_sequential(self, tmp_path):
        registry = EdgeRegistry()
        transactions = [
            registry.encode(snapshot) for snapshot in synthetic_snapshots()
        ]
        batches = list(TransactionStream(transactions, batch_size=15).batches())
        reference = build_miner("memory", tmp_path / "seq")
        reference.consume(batches)
        for workers in (0, 2):
            miner = build_miner("memory", tmp_path / f"w{workers}")
            miner.consume(batches, ingest_workers=workers)
            assert window_fingerprint(miner) == window_fingerprint(reference)

    def test_existing_batch_boundaries_are_preserved(self, tmp_path):
        # Pre-built batches keep their own sizes, whatever the miner's batch_size.
        batches = [Batch([("a",)] * 4), Batch([("b",)] * 2)]
        for workers in (0, 2):
            miner = build_miner("memory", tmp_path / f"w{workers}")
            miner.consume(batches, ingest_workers=workers)
            assert miner.matrix.boundaries() == [4, 6]
            assert miner.batches_consumed == 2

    def test_non_batch_iterable_rejected_like_the_sequential_path(self, tmp_path):
        with pytest.raises(StreamError) as sequential:
            build_miner("memory", tmp_path).consume([("a", "b")])
        for workers in (0, 2):
            with pytest.raises(StreamError) as parallel:
                build_miner("memory", tmp_path).consume(
                    [("a", "b")], ingest_workers=workers
                )
            assert parallel.type is sequential.type is StreamError
            assert str(parallel.value) == str(sequential.value)


class TestMaxInflightParity:
    """Any in-flight bound yields the byte-identical committed window.

    The pipelined executor (DESIGN.md §9) only changes *when* encoded
    batches become resident, never what is committed: for every
    ``ingest_workers`` × ``max_inflight`` combination the segment files,
    registry state and window fingerprint must equal the sequential path.
    """

    @pytest.mark.parametrize("workers", (0, 2))
    @pytest.mark.parametrize("max_inflight", (1, 2, 8))
    def test_disk_window_byte_identical(self, workers, max_inflight, tmp_path):
        snapshots = synthetic_snapshots()
        reference_registry = EdgeRegistry()
        reference = build_miner("disk", tmp_path / "seq", reference_registry)
        reference.consume(
            GraphStream(snapshots, registry=reference_registry, batch_size=15)
        )
        label = f"w{workers}m{max_inflight}"
        registry = EdgeRegistry()
        miner = build_miner("disk", tmp_path / label, registry)
        miner.consume(
            GraphStream(snapshots, registry=registry, batch_size=15),
            ingest_workers=workers,
            max_inflight=max_inflight,
        )
        assert window_fingerprint(miner) == window_fingerprint(reference)
        # Registry state: identical symbols assigned to identical edges.
        assert registry.items() == reference_registry.items()
        assert [registry.edge_for(item) for item in registry.items()] == [
            reference_registry.edge_for(item)
            for item in reference_registry.items()
        ]
        assert segment_digests(tmp_path / label / "segments") == segment_digests(
            tmp_path / "seq" / "segments"
        ), f"ingest_workers={workers} max_inflight={max_inflight} diverged"

    def test_report_exposes_inflight_accounting(self, tmp_path):
        from repro.ingest import ingest_batches
        from repro.storage.backend import MemoryWindowStore
        from repro.stream.stream import group_units

        store = MemoryWindowStore(3)
        report = ingest_batches(
            store,
            group_units([("a",), ("b",), ("a", "b")] * 10, 5),
            workers=2,
            max_inflight=2,
        )
        assert report.max_inflight == 2
        assert 1 <= report.peak_inflight <= 2
        assert report.batches == 6

    def test_invalid_max_inflight_rejected(self, tmp_path):
        from repro.exceptions import IngestError

        miner = build_miner("memory", tmp_path)
        with pytest.raises(IngestError):
            miner.consume(
                TransactionStream([("a",)], batch_size=1),
                ingest_workers=0,
                max_inflight=0,
            )


class TestWindowSemantics:
    def test_eviction_matches_sequential_path(self, tmp_path):
        """Streams longer than the window evict identically under ingestion."""
        transactions = [(chr(ord("a") + i % 6),) for i in range(40)]
        reference = build_miner("memory", tmp_path / "seq")
        reference.add_transactions(transactions)
        reference.flush_pending()
        miner = build_miner("memory", tmp_path / "par")
        miner.consume(
            TransactionStream(transactions, batch_size=15), ingest_workers=2
        )
        assert miner.matrix.num_batches == reference.matrix.num_batches == 3
        assert window_fingerprint(miner) == window_fingerprint(reference)

    def test_ingest_into_nonempty_window_continues_segment_ids(self, tmp_path):
        miner = build_miner("disk", tmp_path)
        miner.add_transactions([("a",)] * 15)
        miner.flush_pending()
        assert miner.matrix.next_segment_id == 1
        miner.consume(
            TransactionStream([("b",)] * 30, batch_size=15), ingest_workers=2
        )
        assert miner.matrix.next_segment_id == 3
        assert sorted(
            path.name for path in (tmp_path / "segments").glob("seg-*.dsg")
        ) == ["seg-00000000.dsg", "seg-00000001.dsg", "seg-00000002.dsg"]

    def test_negative_ingest_workers_rejected(self, tmp_path):
        from repro.exceptions import IngestError

        miner = build_miner("memory", tmp_path)
        with pytest.raises(IngestError):
            miner.consume(
                TransactionStream([("a",)], batch_size=1), ingest_workers=-1
            )
