"""The snapshot-swapped index: parity, sharing, atomicity."""

import json

import pytest

from repro.exceptions import HistoryError, ServeError
from repro.history import algebra
from repro.serve.app import evaluate_expression
from repro.serve.render import render_json
from repro.serve.index import IndexSnapshot, JournalIndex

from serve_helpers import mined_journal
from tests.helpers import ScanReader, drifting_records

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


class TestProtocolParity:
    """Every IndexReader method must answer like a scan of the journal."""

    @pytest.mark.parametrize("batch", [1, 3, 4, 7])
    def test_reader_surface_matches_journal_index(self, records, batch):
        # The index is fed in ``extend`` calls of ``batch`` slides each; the
        # published snapshot must not depend on how commits were grouped.
        reference = ScanReader(records)
        index = JournalIndex()
        for start in range(0, len(records), batch):
            index.extend(records[start:start + batch])
        assert index.swaps == len(records)
        snapshot = index.current
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
                assert snapshot.support_at(slide, pattern) == reference.support_at(
                    slide, pattern
                )
            assert snapshot.first_frequent(pattern) == reference.first_frequent(
                pattern
            )
            assert snapshot.last_frequent(pattern) == reference.last_frequent(pattern)

    def test_stats_match(self, records):
        reference = ScanReader(records)
        snapshot = JournalIndex(records).current
        assert dict(snapshot.stats()) == dict(reference.stats())

    def test_distinct_patterns_counts_each_pattern_once(self):
        records = drifting_records(10)
        for cut in (0, 1, 6, 10):
            distinct = {items for record in records[:cut] for items, _ in record.patterns}
            snapshot = JournalIndex(records[:cut]).current
            assert snapshot.stats()["distinct_patterns"] == len(distinct)
            assert ScanReader(records[:cut]).stats()["distinct_patterns"] == len(distinct)

    def test_rows_iterate_in_rank_order(self):
        records = drifting_records(8)
        reader = JournalIndex(records).current
        for record in records:
            rows = list(reader.iter_patterns_at(record.slide_id))
            assert rows == sorted(
                record.patterns, key=lambda row: (-row[1], len(row[0]), row[0])
            )

    def test_algebra_evaluation_parity(self, records):
        reference = ScanReader(records)
        snapshot = JournalIndex(records).current
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
            indexed = algebra.evaluate(query, snapshot)
            plain = algebra.evaluate(query, reference)
            oracle = algebra.brute_force_query(query, records)
            assert indexed.payload() == plain.payload()
            result = indexed.curve if isinstance(query, algebra.History) else indexed.matches
            assert result == oracle


class TestSnapshotSwap:
    def test_swap_is_atomic_for_pinned_readers(self, records):
        index = JournalIndex(records[:-2])
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
        index = JournalIndex(records[:8])
        pinned = index.current
        before, stats_before = answers(pinned), pinned.stats()
        index.extend(records[8:])
        # The later commits add patterns to the shared provenance map ...
        assert index.current.stats()["distinct_patterns"] > stats_before["distinct_patterns"]
        # ... which the pinned snapshot ignores: same bytes, same stats,
        # and the same answers as an index that never saw those slides.
        assert answers(pinned) == before
        assert pinned.stats() == stats_before
        cold = JournalIndex(records[:8]).current
        assert answers(cold) == before
        # Postings are appended to dicts the snapshots share; the pinned
        # one neither reports nor seals the later slides' entries.
        for item in index.current.items():
            for record in records[8:]:
                assert pinned.posting(item, record.slide_id) == ()
        assert pinned.to_payload() == cold.to_payload()

    def test_extending_an_adopted_older_snapshot_branches_cleanly(self):
        records = drifting_records(12)
        index = JournalIndex(records[:5])
        older = index.current
        index.extend(records[5:9])
        branch = JournalIndex.from_snapshot(older)
        branch.extend(records[9:])  # skips slides 5-8
        cold = JournalIndex(records[:5] + records[9:]).current
        assert answers(branch.current) == answers(cold)
        assert branch.current.to_payload()["postings"] == cold.to_payload()["postings"]
        assert answers(index.current) == answers(ScanReader(records[:9]))
        assert answers(older) == answers(ScanReader(records[:5]))

    def test_extending_an_older_version_forks_the_provenance(self):
        records = drifting_records(12)
        base = JournalIndex(records[:5]).current
        newer = JournalIndex.from_snapshot(base)
        newer.extend(records[5:9])  # appends to the shared provenance
        branch = JournalIndex.from_snapshot(base)
        branch.extend(records[9:])  # skips slides 5-8: must fork it
        assert answers(newer.current) == answers(ScanReader(records[:9]))
        assert answers(branch.current) == answers(ScanReader(records[:5] + records[9:]))
        assert answers(base) == answers(ScanReader(records[:5]))

    def test_commit_copies_a_bounded_number_of_entries(self, monkeypatch):
        """A commit copies the per-item maps, never anything that grows with
        the history: over 20k slides of one vocabulary the entries copied
        per commit stay at their first-slide count."""
        from repro.history.journal import SlideRecord
        from repro.serve import index as index_module

        copied = []

        def counting_dict(*args, **kwargs):
            if args and hasattr(args[0], "__len__"):
                copied[-1] += len(args[0])
            return dict(*args, **kwargs)

        monkeypatch.setattr(index_module, "dict", counting_dict, raising=False)
        patterns = {
            ("a",): 9, ("b",): 8, ("c",): 7, ("d",): 6,
            ("a", "b"): 5, ("a", "c"): 4, ("b", "c"): 3, ("a", "b", "c"): 2,
        }
        index = JournalIndex()
        first = None
        for slide in range(20_000):
            copied.append(0)
            index.extend([SlideRecord(slide, slide, slide, 10, 1, patterns)])
            if first is None:
                first = index.current
        assert index.current.stats()["slides"] == 20_000
        assert max(copied) <= len(patterns) + 2 * 4  # rows + two per-item maps
        assert copied[-1] == copied[1]
        assert index.current.slides is first.slides  # shared, not copied
        assert index.current.slide_order is first.slide_order

    def test_generation_and_swap_counters(self, records):
        index = JournalIndex(records[:2])
        assert index.current.generation == 2
        assert index.swaps == 2
        index.extend(records[2:4])
        assert index.current.generation == 4
        assert index.swaps == 4

    def test_out_of_order_extend_rejected_with_journal_index_message(self, records):
        index = JournalIndex(records)
        with pytest.raises(HistoryError) as error:
            index.extend([records[0]])
        assert str(error.value) == (
            f"slide {records[0].slide_id} breaks the index's slide order; "
            f"already indexed up to slide {records[-1].slide_id}"
        )


class TestPayloadRoundTrip:
    def test_round_trip_preserves_answers(self, records):
        original = JournalIndex(records).current
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
        payload = JournalIndex(records[:3]).current.to_payload()
        index = JournalIndex.from_snapshot(IndexSnapshot.from_payload(payload))
        index.extend(records[3:])
        reference = ScanReader(records)
        assert index.current.slide_ids() == reference.slide_ids()
        assert dict(index.current.stats()) == dict(reference.stats())
