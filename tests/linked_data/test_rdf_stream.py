"""Unit tests for repro.linked_data.rdf_stream."""

import pytest

from repro.exceptions import LinkedDataError
from repro.graph.edge import Edge
from repro.linked_data.namespace import FOAF, Namespace
from repro.linked_data.rdf_stream import (
    RDFStreamAdapter,
    TripleStore,
    snapshot_from_triples,
    triple_to_edge,
)
from repro.linked_data.triple import BlankNode, Literal, Triple

EX = Namespace("http://example.org/")


def knows(a: str, b: str) -> Triple:
    return Triple(EX[a], FOAF.knows, EX[b])


class TestTripleToEdge:
    def test_resource_link_becomes_labelled_edge(self):
        edge = triple_to_edge(knows("alice", "bob"))
        assert isinstance(edge, Edge)
        assert edge.label == FOAF.knows.value
        assert set(edge.vertices) == {EX.alice.value, EX.bob.value}

    def test_predicate_label_can_be_dropped(self):
        edge = triple_to_edge(knows("alice", "bob"), use_predicate_label=False)
        assert edge.label is None

    def test_blank_nodes_become_prefixed_vertices(self):
        triple = Triple(BlankNode("doc"), EX.mentions, EX.bob)
        edge = triple_to_edge(triple)
        assert "_:doc" in edge.vertices

    def test_literal_object_rejected(self):
        attribute = Triple(EX.alice, EX.age, Literal("30"))
        with pytest.raises(LinkedDataError):
            triple_to_edge(attribute)

    def test_self_link_rejected(self):
        with pytest.raises(LinkedDataError):
            triple_to_edge(Triple(EX.alice, EX.sameAs, EX.alice))


class TestSnapshotFromTriples:
    def test_attribute_triples_skipped(self):
        triples = [knows("alice", "bob"), Triple(EX.alice, EX.age, Literal("30"))]
        snapshot = snapshot_from_triples(triples, timestamp=1)
        assert len(snapshot) == 1
        assert snapshot.timestamp == 1

    def test_strict_mode_raises_on_attribute_triples(self):
        triples = [Triple(EX.alice, EX.age, Literal("30"))]
        with pytest.raises(LinkedDataError):
            snapshot_from_triples(triples, skip_attribute_triples=False)

    def test_self_links_skipped(self):
        snapshot = snapshot_from_triples([Triple(EX.a, EX.sameAs, EX.a)])
        assert len(snapshot) == 0


class TestTripleStore:
    def make_store(self):
        store = TripleStore()
        store.add(knows("alice", "bob"))
        store.add(knows("bob", "carol"))
        store.add(Triple(EX.alice, EX.age, Literal("30")))
        return store

    def test_add_and_len(self):
        store = self.make_store()
        assert len(store) == 3
        store.add(knows("alice", "bob"))  # idempotent
        assert len(store) == 3

    def test_match_patterns(self):
        store = self.make_store()
        assert len(store.match(subject=EX.alice)) == 2
        assert len(store.match(predicate=FOAF.knows)) == 2
        assert len(store.match(obj=EX.carol)) == 1
        assert len(store.match()) == 3

    def test_value(self):
        store = self.make_store()
        assert store.value(EX.alice, EX.age) == Literal("30")
        assert store.value(EX.carol, EX.age) is None

    def test_subjects_and_predicates(self):
        store = self.make_store()
        assert EX.alice in store.subjects()
        assert FOAF.knows in store.predicates()

    def test_remove_and_contains(self):
        store = self.make_store()
        triple = knows("alice", "bob")
        assert triple in store
        store.remove(triple)
        assert triple not in store

    def test_to_snapshot_only_links(self):
        snapshot = self.make_store().to_snapshot()
        assert len(snapshot) == 2

    def test_iteration_is_deterministic(self):
        store = self.make_store()
        assert list(store) == list(store)


class TestRDFStreamAdapter:
    def make_triples(self, count):
        return [knows(f"p{i}", f"p{i + 1}") for i in range(count)]

    def test_group_size_validation(self):
        with pytest.raises(LinkedDataError):
            RDFStreamAdapter(group_size=0)

    def test_snapshots_by_group_size(self):
        adapter = RDFStreamAdapter(group_size=3)
        snapshots = list(adapter.snapshots_from_triples(self.make_triples(7)))
        assert [len(s) for s in snapshots] == [3, 3, 1]
        assert [s.timestamp for s in snapshots] == [0, 1, 2]

    def test_attribute_triples_do_not_count_towards_groups(self):
        triples = [
            knows("a", "b"),
            Triple(EX.a, EX.age, Literal("1")),
            knows("b", "c"),
        ]
        adapter = RDFStreamAdapter(group_size=2)
        snapshots = list(adapter.snapshots_from_triples(triples))
        assert len(snapshots) == 1
        assert len(snapshots[0]) == 2

    def test_snapshots_from_documents(self):
        documents = [self.make_triples(2), self.make_triples(4)]
        adapter = RDFStreamAdapter()
        snapshots = list(adapter.snapshots_from_documents(documents))
        assert [s.timestamp for s in snapshots] == [0, 1]
        assert len(snapshots[1]) == 4

    def test_predicate_label_propagation(self):
        adapter = RDFStreamAdapter(group_size=1, use_predicate_label=False)
        snapshot = next(adapter.snapshots_from_triples(self.make_triples(1)))
        assert all(edge.label is None for edge in snapshot)
