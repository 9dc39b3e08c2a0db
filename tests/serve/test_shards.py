"""The sharded snapshot-swapped index: parity, sharing, atomicity."""

import json
import zlib

import pytest

from repro.exceptions import HistoryError, ServeError
from repro.history import algebra
from repro.history.journal import MemoryJournal
from repro.history.query import JournalIndex
from repro.serve.shards import IndexSnapshot, ShardedJournalIndex, shard_of
from repro.service.api import evaluate_expression
from repro.service.render import render_json

from serve_helpers import mined_journal
from tests.helpers import drifting_records

#: Provenance and ranking queries over ``drifting_records``.
DRIFT_QUERIES = [
    {"select": {"where": {"first_frequent_in": [1, 4]}}},
    {"select": {"where": {"first_frequent_in": [3, None]}}},
    {"select": {"where": {"and": [{"first_frequent_in": [2, 9]}, {"slides": [3, 5]}]}}},
    {"select": {"where": {"became_frequent_within": {"k": 1, "of": ["i02"]}}}},
    {"top_k": {"k": 5}},
    {"top_k": {"k": 4, "where": {"slides": [2, 6]}}},
    {"top_k": {"k": 3, "where": {"first_frequent_in": [2, 5]}}},
    {"select": {"where": {"first_frequent_in": [8, None]}}},
    {"select": {"where": {"became_frequent_within": {"k": 1, "of": ["i07"]}}}},
    {"history": {"items": ["i03"]}},
    {"history": {"items": ["i06"]}},
    {"history": {"items": ["i07"]}},
]


def answers(reader):
    """The rendered response body of every DRIFT_QUERIES entry."""
    return [render_json(evaluate_expression(query, reader)) for query in DRIFT_QUERIES]


class TestShardOf:
    def test_crc32_partitioning(self):
        # Stable across processes and restarts (unlike builtin hash()),
        # which is what makes warm-started shards line up.
        assert shard_of("a", 4) == zlib.crc32(b"a") % 4
        assert shard_of("edge:1-2", 7) == zlib.crc32(b"edge:1-2") % 7

    def test_single_shard_maps_everything_to_zero(self):
        assert shard_of("anything", 1) == 0


class TestProtocolParity:
    """Every IndexReader method must answer exactly like JournalIndex."""

    @pytest.mark.parametrize("shard_count", [1, 3, 4, 7])
    def test_reader_surface_matches_journal_index(self, records, shard_count):
        reference = JournalIndex(records)
        snapshot = ShardedJournalIndex(records, shard_count=shard_count).current
        assert snapshot.slide_ids() == reference.slide_ids()
        assert snapshot.last_slide_id == reference.last_slide_id
        items = reference.items()
        assert snapshot.items() == items
        for slide in reference.slide_ids():
            assert snapshot.has_slide(slide) == reference.has_slide(slide)
            assert snapshot.row_count(slide) == reference.row_count(slide)
            assert dict(snapshot.iter_patterns_at(slide)) == dict(
                reference.iter_patterns_at(slide)
            )
        for item in items:
            assert snapshot.posting_total(item) == reference.posting_total(item)
            for slide in reference.slide_ids():
                # The snapshot hands out immutable tuples; content parity is
                # what the algebra layer depends on.
                assert list(snapshot.posting(item, slide)) == list(
                    reference.posting(item, slide)
                )
        probe_patterns = [
            pattern
            for slide in reference.slide_ids()
            for pattern, _ in reference.iter_patterns_at(slide)
        ]
        for pattern in probe_patterns[:20]:
            for slide in reference.slide_ids():
                assert snapshot.support_at(pattern, slide) == reference.support_at(
                    pattern, slide
                )
            assert snapshot.first_frequent(pattern) == reference.first_frequent(
                pattern
            )
            assert snapshot.last_frequent(pattern) == reference.last_frequent(pattern)

    def test_stats_match(self, records):
        reference = JournalIndex(records)
        snapshot = ShardedJournalIndex(records, shard_count=4).current
        assert dict(snapshot.stats()) == dict(reference.stats())

    def test_distinct_patterns_counts_each_pattern_once(self):
        records = drifting_records(10)
        for cut in (0, 1, 6, 10):
            distinct = {items for record in records[:cut] for items, _ in record.patterns}
            snapshot = ShardedJournalIndex(records[:cut], shard_count=2).current
            assert snapshot.stats()["distinct_patterns"] == len(distinct)
            assert JournalIndex(records[:cut]).stats()["distinct_patterns"] == len(distinct)

    def test_rows_iterate_in_rank_order(self):
        records = drifting_records(8)
        for reader in (JournalIndex(records), ShardedJournalIndex(records).current):
            for record in records:
                rows = list(reader.iter_patterns_at(record.slide_id))
                assert rows == sorted(
                    record.patterns, key=lambda row: (-row[1], len(row[0]), row[0])
                )

    def test_algebra_evaluation_parity(self, records):
        reference = JournalIndex(records)
        snapshot = ShardedJournalIndex(records, shard_count=4).current
        items = reference.items()
        queries = [
            algebra.select(algebra.contains(items[0])),
            algebra.select(
                algebra.and_(
                    algebra.contains(items[-1]), algebra.support_gte(2)
                )
            ),
            algebra.select(
                algebra.or_(
                    algebra.contains(items[0]), algebra.contains(items[-1])
                )
            ),
            algebra.top_k(5),
            algebra.history(items[0]),
        ]
        for query in queries:
            sharded = algebra.evaluate(query, snapshot)
            plain = algebra.evaluate(query, reference)
            oracle = algebra.brute_force_query(query, records)
            assert sharded.payload() == plain.payload()
            result = sharded.curve if isinstance(query, algebra.History) else sharded.matches
            assert result == oracle


class TestSnapshotSwap:
    def test_swap_is_atomic_for_pinned_readers(self, records):
        index = ShardedJournalIndex(records[:-2], shard_count=4)
        pinned = index.current
        before_slides = pinned.slide_ids()
        before_rows = {s: pinned.row_count(s) for s in before_slides}
        index.extend(records[-2:])
        # The pinned snapshot answers exactly as before the commit,
        # end-to-end — no new slides, no mutated rows.
        assert pinned.slide_ids() == before_slides
        assert {s: pinned.row_count(s) for s in before_slides} == before_rows
        assert index.current is not pinned
        assert index.current.slide_ids() == [r.slide_id for r in records]

    def test_pinned_snapshot_answers_provenance_and_top_k_unchanged(self):
        records = drifting_records(16)
        index = ShardedJournalIndex(records[:8], shard_count=3)
        pinned = index.current
        before, stats_before = answers(pinned), pinned.stats()
        index.extend(records[8:])
        # The later commits add patterns to the shared provenance map ...
        assert index.current.stats()["distinct_patterns"] > stats_before["distinct_patterns"]
        # ... which the pinned snapshot ignores: same bytes, same stats,
        # and the same answers as an index that never saw those slides.
        assert answers(pinned) == before
        assert pinned.stats() == stats_before
        cold = ShardedJournalIndex(records[:8], shard_count=3).current
        assert answers(cold) == before
        # Postings are appended to dicts the snapshots share; the pinned
        # one neither reports nor seals the later slides' entries.
        for item in index.current.items():
            for record in records[8:]:
                assert pinned.posting(item, record.slide_id) == ()
        assert pinned.to_payload() == cold.to_payload()

    def test_extending_an_adopted_older_snapshot_branches_cleanly(self):
        records = drifting_records(12)
        index = ShardedJournalIndex(records[:5], shard_count=3)
        older = index.current
        index.extend(records[5:9])
        branch = ShardedJournalIndex.from_snapshot(older)
        branch.extend(records[9:])  # skips slides 5-8
        cold = ShardedJournalIndex(records[:5] + records[9:], shard_count=3).current
        assert answers(branch.current) == answers(cold)
        assert branch.current.to_payload()["shards"] == cold.to_payload()["shards"]
        assert answers(index.current) == answers(JournalIndex(records[:9]))
        assert answers(older) == answers(JournalIndex(records[:5]))

    def test_extending_an_older_version_forks_the_provenance(self):
        records = drifting_records(12)
        reference = JournalIndex(records[:5])
        newer = reference.extended(records[5:9])
        branch = reference.extended(records[9:])  # skips slides 5-8
        assert answers(newer) == answers(JournalIndex(records[:9]))
        assert answers(branch) == answers(JournalIndex(records[:5] + records[9:]))
        assert answers(reference) == answers(JournalIndex(records[:5]))

    def test_generation_and_swap_counters(self, records):
        index = ShardedJournalIndex(records[:2], shard_count=4)
        assert index.current.generation == 2
        assert index.swaps == 2
        index.extend(records[2:4])
        assert index.current.generation == 4
        assert index.swaps == 4

    def test_structural_sharing_of_untouched_shards(self, records):
        shard_count = 8
        index = ShardedJournalIndex(records[:-1], shard_count=shard_count)
        before = index.current
        last = records[-1]
        touched = {shard_of(item, shard_count) for items, _ in last.patterns for item in items}
        assert len(touched) < shard_count, "workload touches every shard; widen shard_count"
        index.extend([last])
        after = index.current
        for shard_id in range(shard_count):
            if shard_id in touched:
                assert after.shards[shard_id] is not before.shards[shard_id]
            else:
                # Untouched shards are carried by reference, not copied.
                assert after.shards[shard_id] is before.shards[shard_id]

    def test_out_of_order_extend_rejected_with_journal_index_message(self, records):
        index = ShardedJournalIndex(records, shard_count=4)
        reference = JournalIndex(records)
        with pytest.raises(HistoryError) as sharded_error:
            index.extend([records[0]])
        with pytest.raises(HistoryError) as reference_error:
            reference.extend([records[0]])
        assert str(sharded_error.value) == str(reference_error.value)

    def test_shard_count_validation(self, records):
        with pytest.raises(ServeError, match="shard count must be at least 1"):
            ShardedJournalIndex(records, shard_count=0)


class TestPayloadRoundTrip:
    def test_round_trip_preserves_answers(self, records):
        original = ShardedJournalIndex(records, shard_count=4).current
        payload = json.loads(json.dumps(original.to_payload()))
        restored = IndexSnapshot.from_payload(payload)
        assert restored.slide_ids() == original.slide_ids()
        assert dict(restored.stats()) == dict(original.stats())
        for item in original.items():
            assert restored.posting_total(item) == original.posting_total(item)
            for slide in original.slide_ids():
                assert list(restored.posting(item, slide)) == list(
                    original.posting(item, slide)
                )
        query = algebra.top_k(10)
        assert (
            algebra.evaluate(query, restored).payload()
            == algebra.evaluate(query, original).payload()
        )

    def test_from_payload_rejects_unknown_format(self):
        with pytest.raises(ServeError, match="format"):
            IndexSnapshot.from_payload({"format": "bogus/9"})

    def test_extend_after_round_trip(self):
        journal = mined_journal()
        records = journal.records()
        payload = ShardedJournalIndex(records[:3], shard_count=4).current.to_payload()
        index = ShardedJournalIndex.from_snapshot(IndexSnapshot.from_payload(payload))
        index.extend(records[3:])
        reference = JournalIndex(records)
        assert index.current.slide_ids() == reference.slide_ids()
        assert dict(index.current.stats()) == dict(reference.stats())
