"""Unit tests for the StreamSubgraphMiner facade."""

import pytest

from repro.core.algorithms import get_algorithm
from repro.core.miner import StreamSubgraphMiner
from repro.datasets.paper_example import (
    PAPER_ALL_FREQUENT,
    PAPER_CONNECTED_FREQUENT,
    paper_example_snapshots,
)
from repro.exceptions import MiningError, StreamError
from repro.graph.edge import Edge
from repro.graph.graph import GraphSnapshot
from repro.stream.batch import Batch
from repro.stream.stream import GraphStream


class TestConstruction:
    def test_invalid_batch_size(self):
        with pytest.raises(StreamError):
            StreamSubgraphMiner(window_size=2, batch_size=0)

    def test_invalid_algorithm_object(self):
        with pytest.raises(MiningError):
            StreamSubgraphMiner(window_size=2, algorithm=123)

    def test_algorithm_can_be_instance(self):
        miner = StreamSubgraphMiner(window_size=2, algorithm=get_algorithm("vertical"))
        assert miner.algorithm.name == "vertical"

    def test_algorithm_setter(self):
        miner = StreamSubgraphMiner(window_size=2)
        miner.algorithm = "fptree_multi"
        assert miner.algorithm.name == "fptree_multi"

    def test_available_algorithms(self):
        miner = StreamSubgraphMiner(window_size=2)
        assert "vertical_direct" in miner.available_algorithms()

    def test_storage_path_persists_matrix(self, paper_registry, paper_batches, tmp_path):
        target = tmp_path / "stream"
        miner = StreamSubgraphMiner(
            window_size=2, registry=paper_registry, storage_path=target
        )
        miner.add_batch(paper_batches[0])
        assert (target / "manifest.json").exists()


class TestFeeding:
    def test_add_snapshots_batches_by_batch_size(self, paper_registry):
        miner = StreamSubgraphMiner(window_size=2, batch_size=3, registry=paper_registry)
        miner.add_snapshots(paper_example_snapshots())
        assert miner.batches_consumed == 3
        assert miner.transaction_count == 6  # window of 2 batches x 3 graphs

    def test_flush_pending_handles_partial_batch(self, paper_registry):
        miner = StreamSubgraphMiner(window_size=2, batch_size=4, registry=paper_registry)
        miner.add_snapshots(paper_example_snapshots()[:5])
        assert miner.batches_consumed == 1  # only one full batch so far
        miner.flush_pending()
        assert miner.batches_consumed == 2

    def test_mine_flushes_pending_automatically(self, paper_registry):
        miner = StreamSubgraphMiner(window_size=3, batch_size=100, registry=paper_registry)
        miner.add_snapshots(paper_example_snapshots())
        result = miner.mine(minsup=2)
        assert miner.transaction_count == 9
        assert len(result) > 0

    def test_consume_graph_stream_shares_registry(self, paper_registry):
        stream = GraphStream(
            paper_example_snapshots(), registry=paper_registry, batch_size=3
        )
        miner = StreamSubgraphMiner(window_size=2, registry=paper_registry)
        miner.consume(stream)
        assert miner.transaction_count == 6

    def test_consume_graph_stream_with_foreign_registry_rejected(self):
        stream = GraphStream(paper_example_snapshots(), batch_size=3)
        miner = StreamSubgraphMiner(window_size=2)
        with pytest.raises(StreamError):
            miner.consume(stream)

    def test_consume_batches(self, paper_batches):
        miner = StreamSubgraphMiner(window_size=2)
        miner.consume(paper_batches)
        assert miner.transaction_count == 6

    def test_consume_rejects_non_batches(self):
        miner = StreamSubgraphMiner(window_size=2)
        with pytest.raises(StreamError):
            miner.consume([["a", "b"]])

    def test_new_edges_registered_on_the_fly(self):
        miner = StreamSubgraphMiner(window_size=1, batch_size=2)
        miner.add_snapshots(
            [
                GraphSnapshot([Edge("x", "y")]),
                GraphSnapshot([Edge("y", "z"), Edge("x", "y")]),
            ]
        )
        assert len(miner.registry) == 2


class TestMining:
    def make_paper_miner(self, paper_registry, paper_batches, algorithm="vertical_direct"):
        miner = StreamSubgraphMiner(
            window_size=2, batch_size=3, algorithm=algorithm, registry=paper_registry
        )
        for batch in paper_batches:
            miner.add_batch(batch)
        return miner

    def test_connected_mining_matches_paper(self, paper_registry, paper_batches):
        miner = self.make_paper_miner(paper_registry, paper_batches)
        assert miner.mine(2).to_dict() == PAPER_CONNECTED_FREQUENT

    def test_all_collections_matches_paper(self, paper_registry, paper_batches):
        miner = self.make_paper_miner(paper_registry, paper_batches, algorithm="vertical")
        assert miner.mine_all_collections(2).to_dict() == PAPER_ALL_FREQUENT

    def test_relative_minsup(self, paper_registry, paper_batches):
        miner = self.make_paper_miner(paper_registry, paper_batches, algorithm="vertical")
        # 1/3 of 6 window transactions = 2.
        assert miner.mine(1 / 3).to_dict() == PAPER_CONNECTED_FREQUENT

    def test_direct_algorithm_cannot_return_disconnected(self, paper_registry, paper_batches):
        miner = self.make_paper_miner(paper_registry, paper_batches)
        with pytest.raises(MiningError):
            miner.mine(2, connected_only=False)

    def test_per_call_algorithm_override(self, paper_registry, paper_batches):
        miner = self.make_paper_miner(paper_registry, paper_batches, algorithm="vertical")
        result = miner.mine(2, algorithm="fptree_single")
        assert result.to_dict() == PAPER_CONNECTED_FREQUENT

    def test_paper_rule_option(self, paper_registry, paper_batches):
        miner = self.make_paper_miner(paper_registry, paper_batches, algorithm="vertical")
        assert miner.mine(2, rule="paper").to_dict() == PAPER_CONNECTED_FREQUENT

    def test_patterns_carry_decoded_edges(self, paper_registry, paper_batches):
        miner = self.make_paper_miner(paper_registry, paper_batches)
        result = miner.mine(2)
        for pattern in result:
            assert pattern.edges is not None
            assert pattern.is_connected()

    def test_window_slide_changes_results(self, paper_registry, paper_batches):
        miner = StreamSubgraphMiner(
            window_size=2, batch_size=3, algorithm="vertical", registry=paper_registry
        )
        miner.add_batch(paper_batches[0])
        miner.add_batch(paper_batches[1])
        before = miner.mine_all_collections(2).to_dict()
        miner.add_batch(paper_batches[2])
        after = miner.mine_all_collections(2).to_dict()
        assert before != after
        assert after == PAPER_ALL_FREQUENT

    def test_repr(self, paper_registry, paper_batches):
        miner = self.make_paper_miner(paper_registry, paper_batches)
        assert "window=2" in repr(miner)


class TestStreamOrdering:
    def test_add_batch_flushes_pending_first(self):
        """Interleaving add_transactions with add_batch keeps stream order."""
        miner = StreamSubgraphMiner(window_size=10, batch_size=100)
        miner.add_transactions([["a"], ["b"]])
        miner.add_batch(Batch([["c"]]))
        assert list(miner.matrix.transactions()) == [("a",), ("b",), ("c",)]
        assert miner.batches_consumed == 2

    def test_pending_transaction_count(self):
        miner = StreamSubgraphMiner(window_size=2, batch_size=4)
        miner.add_transactions([["a"], ["b"], ["c"]])
        assert miner.pending_transaction_count == 3
        assert miner.transaction_count == 0
        miner.flush_pending()
        assert miner.pending_transaction_count == 0
        assert miner.transaction_count == 3


class TestStorageBackends:
    def test_disk_storage_persists_segments(self, paper_registry, paper_batches, tmp_path):
        directory = tmp_path / "segments"
        miner = StreamSubgraphMiner(
            window_size=2,
            registry=paper_registry,
            storage_path=directory,
        )
        for batch in paper_batches:
            miner.add_batch(batch)
        assert (directory / "manifest.json").exists()
        assert len(list(directory.glob("seg-*.dsg"))) == 2

    def test_disk_storage_mining_matches_memory(self, paper_registry, paper_batches, tmp_path):
        results = {}
        for path in (None, tmp_path / "segments"):
            miner = StreamSubgraphMiner(
                window_size=2, registry=paper_registry, storage_path=path
            )
            for batch in paper_batches:
                miner.add_batch(batch)
            results[path] = miner.mine(minsup=2).to_dict()
        assert results[None] == PAPER_CONNECTED_FREQUENT
        assert results[tmp_path / "segments"] == results[None]
