"""Segment transport selection in the ingest pipeline (DESIGN.md §11)."""

import pytest

from repro import faults
from repro.core.miner import StreamSubgraphMiner
from repro.datasets.random_graphs import GraphStreamGenerator, RandomGraphModel
from repro.exceptions import IngestError
from repro.graph.edge_registry import EdgeRegistry
from repro.ingest.api import ingest_snapshots
from repro.parallel.pool import process_pools_available
from repro.resilience import FailurePolicy
from repro.storage.shm import block_prefix, linked_blocks, shared_memory_available
from repro.stream.stream import GraphStream

TRANSPORTS = ("auto", "shm", "pickle")


def synthetic_snapshots(seed=7, count=95):
    model = RandomGraphModel(num_vertices=10, avg_fanout=3.0, seed=seed)
    generator = GraphStreamGenerator(
        model, avg_edges_per_snapshot=4.0, seed=seed + 1
    )
    return list(generator.snapshots(count))


def build_miner(registry, transport="auto"):
    return StreamSubgraphMiner(
        window_size=3,
        batch_size=15,
        algorithm="vertical",
        registry=registry,
        transport=transport,
    )


def window_fingerprint(miner):
    return (
        dict(miner.matrix.item_frequencies()),
        miner.matrix.boundaries(),
        miner.matrix.items(),
        miner.batches_consumed,
    )


class TestIngestTransport:
    def test_transports_produce_identical_windows(self):
        snapshots = synthetic_snapshots()
        reference_registry = EdgeRegistry()
        reference = build_miner(reference_registry)
        reference.consume(
            GraphStream(snapshots, registry=reference_registry, batch_size=15)
        )
        for transport in TRANSPORTS:
            if transport == "shm" and not shared_memory_available():
                continue
            for workers in (0, 2):
                registry = EdgeRegistry()
                miner = build_miner(registry, transport=transport)
                miner.consume(
                    GraphStream(snapshots, registry=registry, batch_size=15),
                    ingest_workers=workers,
                )
                assert window_fingerprint(miner) == window_fingerprint(
                    reference
                ), f"transport={transport} workers={workers} diverged"
        assert linked_blocks(block_prefix()) == []

    def test_worker_crash_strands_no_blocks(self):
        if not (process_pools_available() and shared_memory_available()):
            pytest.skip("needs process pools and shared memory")
        # A worker killed mid-run breaks the pool; results other workers
        # had already published (blocks linked, names not yet received)
        # are lost with it.  Only the run's prefix sweep can reach them,
        # so repeat the crash a few times to give the race its chances.
        snapshots = synthetic_snapshots()
        policy = FailurePolicy(backoff_s=0.001, max_backoff_s=0.002, jitter=0.0)
        reference_registry = EdgeRegistry()
        reference = build_miner(reference_registry)
        reference.consume(
            GraphStream(snapshots, registry=reference_registry, batch_size=15)
        )
        for _ in range(5):
            registry = EdgeRegistry()
            miner = build_miner(registry)
            faults.install_plan("ingest.encode@2:crash")
            try:
                report = ingest_snapshots(
                    miner.matrix,
                    snapshots,
                    batch_size=15,
                    registry=registry,
                    workers=2,
                    transport="shm",
                    policy=policy,
                )
            finally:
                faults.uninstall_plan()
            assert report.retries + report.degradations >= 1
            assert window_fingerprint(miner)[:3] == window_fingerprint(reference)[:3]
            assert linked_blocks(block_prefix()) == []

    def test_report_records_transport(self):
        snapshots = synthetic_snapshots()

        def report_for(workers, transport):
            registry = EdgeRegistry()
            miner = build_miner(registry)
            return ingest_snapshots(
                miner.matrix,
                snapshots,
                batch_size=15,
                registry=registry,
                workers=workers,
                transport=transport,
            )

        assert report_for(0, "auto").transport == "pickle"
        assert report_for(2, "pickle").transport == "pickle"
        if shared_memory_available():
            assert report_for(2, "auto").transport == "shm"
            assert report_for(2, "shm").transport == "shm"

    def test_forced_shm_raises_when_unavailable(self, monkeypatch):
        monkeypatch.setattr(
            "repro.ingest.api.shared_memory_available", lambda: False
        )
        registry = EdgeRegistry()
        miner = build_miner(registry)
        with pytest.raises(IngestError):
            ingest_snapshots(
                miner.matrix,
                synthetic_snapshots(count=30),
                batch_size=15,
                registry=registry,
                workers=2,
                transport="shm",
            )

    def test_unknown_transport_rejected(self):
        registry = EdgeRegistry()
        miner = build_miner(registry)
        with pytest.raises(IngestError):
            ingest_snapshots(
                miner.matrix,
                synthetic_snapshots(count=30),
                batch_size=15,
                registry=registry,
                workers=0,
                transport="telegraph",
            )
