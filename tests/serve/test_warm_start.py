"""Warm-start serving: sealed snapshots, suffix re-indexing, fallbacks."""

import json

from repro.checkpoint import load_serve_index, seal_serve_index
from repro.checkpoint.serve_index import MANIFEST_NAME, PAYLOAD_NAME, SERVE_INDEX_DIRNAME
from repro.history.journal import DiskJournal, open_journal
from repro.serve.app import ServeApp
from repro.serve.shards import SERVE_INDEX_FORMAT, IndexSnapshot, ShardedJournalIndex, shard_of
from repro.serve.warm import JournalTail, read_journal_suffix
from repro.service.api import evaluate_expression
from repro.service.render import render_json

from serve_helpers import mined_journal
from tests.helpers import drifting_records

QUERY = {"select": {"where": {"contains": ["a"]}}}


def disk_journal(tmp_path, records):
    path = tmp_path / "journal"
    journal = DiskJournal(path)
    for record in records:
        journal.append(record)
    journal.close()
    return path


class TestWarmStart:
    def test_restart_reindexes_only_the_suffix(self, tmp_path, records):
        path = disk_journal(tmp_path, records[:4])
        warm = tmp_path / "warm"
        first = ServeApp.from_directory(path, warm_dir=warm)
        assert first.cold_records_indexed == 4
        assert first.hydrated_slide is None
        first.seal_warm(warm)
        first.close()
        # Another process appends two slides, then the server restarts.
        journal = open_journal(path)
        for record in records[4:6]:
            journal.append(record)
        journal.close()
        second = ServeApp.from_directory(path, warm_dir=warm)
        try:
            assert second.hydrated_slide == records[3].slide_id
            assert second.cold_records_indexed == 2  # the suffix, not all 6
            cold = ServeApp.from_directory(path)
            try:
                assert second.query(QUERY) == cold.query(QUERY)
                assert second.stats()["slides"] == cold.stats()["slides"]
            finally:
                cold.close()
        finally:
            second.close()

    def test_corrupt_payload_falls_back_to_cold(self, tmp_path, records):
        path = disk_journal(tmp_path, records)
        warm = tmp_path / "warm"
        app = ServeApp.from_directory(path, warm_dir=warm)
        app.seal_warm(warm)
        app.close()
        payload_file = warm / SERVE_INDEX_DIRNAME / PAYLOAD_NAME
        payload_file.write_text(payload_file.read_text()[:-20], encoding="utf-8")
        assert load_serve_index(warm) is None  # digest mismatch
        restarted = ServeApp.from_directory(path, warm_dir=warm)
        try:
            assert restarted.hydrated_slide is None
            assert restarted.cold_records_indexed == len(records)
        finally:
            restarted.close()

    def test_shard_count_mismatch_falls_back_to_cold(self, tmp_path, records):
        path = disk_journal(tmp_path, records)
        warm = tmp_path / "warm"
        app = ServeApp.from_directory(path, shard_count=4, warm_dir=warm)
        app.seal_warm(warm)
        app.close()
        restarted = ServeApp.from_directory(path, shard_count=8, warm_dir=warm)
        try:
            assert restarted.hydrated_slide is None
            assert restarted.cold_records_indexed == len(records)
        finally:
            restarted.close()

    def test_snapshot_beyond_journal_falls_back_to_cold(self, tmp_path, records):
        # Seal at all N slides, then restart over a journal holding fewer:
        # the snapshot is no prefix of the journal, so it must be ignored
        # (warm start must never change an answer).
        full_path = disk_journal(tmp_path, records)
        warm = tmp_path / "warm"
        app = ServeApp.from_directory(full_path, warm_dir=warm)
        app.seal_warm(warm)
        app.close()
        short_path = tmp_path / "short"
        journal = DiskJournal(short_path)
        for record in records[:2]:
            journal.append(record)
        journal.close()
        restarted = ServeApp.from_directory(short_path, warm_dir=warm)
        try:
            assert restarted.hydrated_slide is None
            assert restarted.cold_records_indexed == 2
        finally:
            restarted.close()

    def test_missing_manifest_loads_none(self, tmp_path):
        assert load_serve_index(tmp_path / "nowhere") is None

    def test_seal_replaces_previous_snapshot(self, tmp_path, records):
        warm = tmp_path / "warm"
        from repro.serve.shards import ShardedJournalIndex

        first = ShardedJournalIndex(records[:2], shard_count=4).current
        second = ShardedJournalIndex(records, shard_count=4).current
        seal_serve_index(warm, first.to_payload())
        seal_serve_index(warm, second.to_payload())
        manifest = json.loads(
            (warm / SERVE_INDEX_DIRNAME / MANIFEST_NAME).read_text(encoding="utf-8")
        )
        assert manifest["last_slide"] == records[-1].slide_id


def size_ordered_payload(records, shard_count):
    """A serve-index payload with every slide's rows in (size, items) order.

    The layout seals used to have (the records' own canonical order, no
    rank order): hydration must not assume the rows arrive ranked.
    """
    slides, shards = {}, [{"postings": {}} for _ in range(shard_count)]
    for record in records:
        rows = [[list(items), support] for items, support in record.patterns]
        slides[str(record.slide_id)] = rows
        for position, (items, _) in enumerate(record.patterns):
            for item in items:
                postings = shards[shard_of(item, shard_count)]["postings"]
                postings.setdefault(item, {}).setdefault(str(record.slide_id), []).append(position)
    return {
        "format": SERVE_INDEX_FORMAT,
        "shard_count": shard_count,
        "generation": len(records),
        "order": [record.slide_id for record in records],
        "slides": slides,
        "shards": shards,
    }


class TestHydrationDoesNotTrustRowOrder:
    QUERIES = [
        {"top_k": {"k": 6}},
        {"top_k": {"k": 3, "where": {"slides": [2, 4]}}},
        {"select": {"where": {"first_frequent_in": [2, 7]}}},
        {"select": {"where": {"became_frequent_within": {"k": 2, "of": ["i03"]}}}},
        {"select": {"where": {"contains": ["i03"]}}},
        {"history": {"items": ["i02", "i03"]}},
    ]

    def test_size_ordered_payload_answers_like_a_cold_build(self):
        records = drifting_records(10)
        payload = json.loads(json.dumps(size_ordered_payload(records, 3)))
        # The fixture really is out of rank order somewhere.
        assert payload != ShardedJournalIndex(records, shard_count=3).current.to_payload()
        warm = IndexSnapshot.from_payload(payload)
        cold = ShardedJournalIndex(records, shard_count=3).current
        for query in self.QUERIES:
            assert render_json(evaluate_expression(query, warm)) == render_json(
                evaluate_expression(query, cold)
            )
        assert warm.stats() == cold.stats()
        # Extending the hydrated snapshot keeps it equal to a cold build.
        more = drifting_records(14)[10:]
        extended = ShardedJournalIndex.from_snapshot(warm)
        extended.extend(more)
        rebuilt = ShardedJournalIndex(records + more, shard_count=3).current
        for query in self.QUERIES:
            assert evaluate_expression(query, extended.current) == evaluate_expression(
                query, rebuilt
            )


class TestJournalTail:
    def test_incremental_polls(self, tmp_path, records):
        path = tmp_path / "journal"
        journal = DiskJournal(path)
        for record in records[:3]:
            journal.append(record)
        tail = JournalTail(path)
        got = tail.poll()
        assert [r.slide_id for r in got] == [r.slide_id for r in records[:3]]
        assert tail.poll() == []
        journal.append(records[3])
        assert [r.slide_id for r in tail.poll()] == [records[3].slide_id]
        journal.close()

    def test_seeded_after_slide_skips_prefix(self, tmp_path, records):
        path = disk_journal(tmp_path, records)
        suffix = read_journal_suffix(path, after_slide=records[1].slide_id)
        assert [r.slide_id for r in suffix] == [r.slide_id for r in records[2:]]

    def test_records_round_trip_content(self, tmp_path, records):
        path = disk_journal(tmp_path, records)
        tailed = JournalTail(path).poll()
        assert [r.patterns for r in tailed] == [r.patterns for r in records]

    def test_missing_journal_polls_empty(self, tmp_path):
        assert JournalTail(tmp_path / "nope").poll() == []
