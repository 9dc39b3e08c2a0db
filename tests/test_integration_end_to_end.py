"""End-to-end integration tests across the whole pipeline.

These tests exercise realistic flows: linked-data triples in, connected
frequent subgraphs out; random graph streams with window slides and on-disk
persistence; and consistency between the facade and the low-level pieces.
"""

from repro import (
    DSMatrix,
    Edge,
    EdgeRegistry,
    GraphStream,
    StreamSubgraphMiner,
)
from repro.core.algorithms import ALGORITHMS
from repro.datasets.random_graphs import GraphStreamGenerator, RandomGraphModel
from repro.linked_data.namespace import FOAF, Namespace
from repro.linked_data.parser import parse_ntriples, serialize_ntriples
from repro.linked_data.rdf_stream import RDFStreamAdapter
from repro.linked_data.triple import Triple
from tests.helpers import brute_force_connected_frequent

EX = Namespace("http://example.org/people/")


def social_documents():
    """Twelve published documents, each linking a handful of people."""
    clusters = [
        ["alice", "bob", "carol"],
        ["bob", "carol", "dave"],
        ["alice", "bob", "dave"],
        ["erin", "frank", "grace"],
    ]
    documents = []
    for round_index in range(3):
        for cluster in clusters:
            triples = [
                Triple(EX[cluster[i]], FOAF.knows, EX[cluster[j]])
                for i in range(len(cluster))
                for j in range(i + 1, len(cluster))
            ]
            documents.append(triples)
    return documents


class TestLinkedDataPipeline:
    def test_ntriples_to_connected_subgraphs(self):
        documents = social_documents()
        # Serialise and re-parse to exercise the full IO path.
        texts = [serialize_ntriples(doc) for doc in documents]
        parsed_documents = [list(parse_ntriples(text)) for text in texts]

        adapter = RDFStreamAdapter()
        snapshots = list(adapter.snapshots_from_documents(parsed_documents))
        miner = StreamSubgraphMiner(window_size=3, batch_size=4)
        miner.add_snapshots(snapshots)
        result = miner.mine(minsup=3)

        assert len(result) > 0
        # The alice-bob-carol triangle is frequent and connected.
        registry = miner.registry
        triangle = frozenset(
            registry.item_for(Edge(EX[a].value, EX[b].value, label=FOAF.knows.value))
            for a, b in [("alice", "bob"), ("alice", "carol"), ("bob", "carol")]
        )
        assert result.support_of(triangle) == 3
        for pattern in result:
            assert pattern.is_connected()

    def test_cross_cluster_patterns_are_not_reported(self):
        documents = social_documents()
        adapter = RDFStreamAdapter()
        snapshots = list(adapter.snapshots_from_documents(documents))
        miner = StreamSubgraphMiner(window_size=3, batch_size=4)
        miner.add_snapshots(snapshots)
        result = miner.mine(minsup=2)
        registry = miner.registry
        alice_bob = registry.item_for(
            Edge(EX.alice.value, EX.bob.value, label=FOAF.knows.value)
        )
        erin_frank = registry.item_for(
            Edge(EX.erin.value, EX.frank.value, label=FOAF.knows.value)
        )
        # Both edges are frequent but never connected, so no pattern contains both.
        assert result.support_of({alice_bob}) is not None
        assert result.support_of({erin_frank}) is not None
        for pattern in result:
            assert not {alice_bob, erin_frank} <= pattern.items


class TestGraphStreamPipeline:
    def test_stream_with_persistence_and_all_algorithms(self, tmp_path):
        model = RandomGraphModel(num_vertices=12, avg_fanout=3.0, seed=31)
        registry = model.registry()
        generator = GraphStreamGenerator(model, avg_edges_per_snapshot=5.0, seed=32)
        snapshots = generator.generate(120)

        storage = tmp_path / "window"
        miner = StreamSubgraphMiner(
            window_size=4,
            batch_size=20,
            registry=registry,
            storage_path=storage,
            algorithm="vertical",
        )
        stream = GraphStream(snapshots, registry=registry, batch_size=20)
        miner.consume(stream)

        assert (storage / "manifest.json").exists()
        reloaded = DSMatrix.load(storage)
        assert list(reloaded.transactions()) == list(miner.matrix.transactions())

        window_transactions = list(miner.matrix.transactions())
        expected_connected = brute_force_connected_frequent(
            window_transactions, 8, registry
        )
        for name in sorted(ALGORITHMS):
            result = miner.mine(8, algorithm=name)
            assert result.to_dict() == expected_connected, name

    def test_window_eviction_forgets_old_patterns(self):
        registry = EdgeRegistry()
        hot_early = [Edge("a", "b"), Edge("b", "c")]
        hot_late = [Edge("x", "y"), Edge("y", "z")]
        for edge in hot_early + hot_late:
            registry.register(edge)

        miner = StreamSubgraphMiner(window_size=2, batch_size=5, registry=registry)
        from repro.graph.graph import GraphSnapshot

        early = [GraphSnapshot(hot_early) for _ in range(10)]
        late = [GraphSnapshot(hot_late) for _ in range(10)]
        miner.add_snapshots(early + late)

        result = miner.mine(minsup=5)
        early_pair = frozenset(registry.item_for(edge) for edge in hot_early)
        late_pair = frozenset(registry.item_for(edge) for edge in hot_late)
        assert result.support_of(early_pair) is None
        assert result.support_of(late_pair) == 10
