"""Warm-start serving: sealed snapshots, suffix re-indexing, fallbacks."""

import copy
import json

import pytest

from repro.checkpoint import load_serve_index, seal_serve_index
from repro.checkpoint.serve_index import MANIFEST_NAME, PAYLOAD_NAME, SERVE_INDEX_DIRNAME
from repro.history.journal import DiskJournal, JournalTail, open_journal
from repro.serve.app import ServeApp, evaluate_expression
from repro.serve.render import render_json
from repro.exceptions import ServeError
from repro.serve.index import SERVE_INDEX_FORMAT, IndexSnapshot, JournalIndex

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

    def test_parent_format_seal_falls_back_to_cold(self, tmp_path, records):
        # A digest-valid seal in the older sharded layout
        # (``repro-serve-index/1``: a ``shards`` list of posting maps).
        path = disk_journal(tmp_path, records)
        warm = tmp_path / "warm"
        payload = JournalIndex(records).current.to_payload()
        postings = payload.pop("postings")
        payload.update(format="repro-serve-index/1", shards=[{"postings": postings}])
        with pytest.raises(ServeError, match="format"):
            IndexSnapshot.from_payload(payload)
        seal_serve_index(warm, payload)
        assert load_serve_index(warm) == json.loads(json.dumps(payload))
        restarted = ServeApp.from_directory(path, warm_dir=warm)
        cold = ServeApp.from_directory(path)
        try:
            assert restarted.hydrated_slide is None
            assert restarted.cold_records_indexed == len(records)
            assert restarted.query(QUERY) == cold.query(QUERY)
        finally:
            restarted.close()
            cold.close()

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
        first = JournalIndex(records[:2]).current
        second = JournalIndex(records).current
        seal_serve_index(warm, first.to_payload())
        seal_serve_index(warm, second.to_payload())
        manifest = json.loads(
            (warm / SERVE_INDEX_DIRNAME / MANIFEST_NAME).read_text(encoding="utf-8")
        )
        assert manifest["last_slide"] == records[-1].slide_id


def size_ordered_payload(records):
    """A serve-index payload with every slide's rows in (size, items) order.

    The layout seals used to have (the records' own canonical order, no
    rank order): hydration must not assume the rows arrive ranked.
    """
    slides, postings = {}, {}
    for record in records:
        rows = [[list(items), support] for items, support in record.patterns]
        slides[str(record.slide_id)] = rows
        for position, (items, _) in enumerate(record.patterns):
            for item in items:
                postings.setdefault(item, {}).setdefault(str(record.slide_id), []).append(position)
    return {
        "format": SERVE_INDEX_FORMAT,
        "generation": len(records),
        "order": [record.slide_id for record in records],
        "slides": slides,
        "postings": postings,
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
        payload = json.loads(json.dumps(size_ordered_payload(records)))
        # The fixture really is out of rank order somewhere.
        assert payload != JournalIndex(records).current.to_payload()
        warm = IndexSnapshot.from_payload(payload)
        cold = JournalIndex(records).current
        for query in self.QUERIES:
            assert render_json(evaluate_expression(query, warm)) == render_json(
                evaluate_expression(query, cold)
            )
        assert warm.stats() == cold.stats()
        # Its own seal hydrates again (postings keep the payload's order).
        assert IndexSnapshot.from_payload(warm.to_payload()).stats() == cold.stats()
        # Extending the hydrated snapshot keeps it equal to a cold build.
        more = drifting_records(14)[10:]
        extended = JournalIndex.from_snapshot(warm)
        extended.extend(more)
        rebuilt = JournalIndex(records + more).current
        for query in self.QUERIES:
            assert evaluate_expression(query, extended.current) == evaluate_expression(
                query, rebuilt
            )


def _first_posting(payload):
    """(item, slide key) of the payload's first posting list."""
    item = min(payload["postings"])
    return item, min(payload["postings"][item])


def _post_row_without_item(payload):
    item, slide = _first_posting(payload)
    rows = payload["slides"][slide]
    payload["postings"][item][slide] = [
        next(position for position, (items, _) in enumerate(rows) if item not in items)
    ]


def _set_posting(positions):
    def corrupt(payload):
        item, slide = _first_posting(payload)
        payload["postings"][item][slide] = positions(payload["slides"][slide])

    return corrupt


def _set_slide(value):
    def corrupt(payload):
        payload["slides"][min(payload["slides"])] = value

    return corrupt


#: One way each to break a digest-valid payload's shape.
MALFORMED = {
    "negative-position": _set_posting(lambda rows: [-1, 0]),
    "out-of-range-position": _set_posting(lambda rows: [len(rows)]),
    "non-int-position": _set_posting(lambda rows: ["0"]),
    "bool-position": _set_posting(lambda rows: [True]),
    "repeated-position": _set_posting(lambda rows: [0, 0]),
    "row-without-item": _post_row_without_item,
    "unknown-slide": lambda payload: payload["postings"][min(payload["postings"])]
    .update({"999999": [0]}),
    "missing-postings": lambda payload: payload.pop("postings"),
    "missing-item": lambda payload: payload["postings"].pop(min(payload["postings"])),
    "postings-not-object": lambda payload: payload.update(postings=[]),
    "non-list-rows": _set_slide("rows"),
    "row-not-a-pair": _set_slide([["a"]]),
    "string-support": _set_slide([[["a"], "5"]]),
    "non-string-item": _set_slide([[[1], 5]]),
    "unsorted-row-items": _set_slide([[["b", "a"], 5]]),
    "slide-missing-from-order": lambda payload: payload["order"].pop(),
    "string-generation": lambda payload: payload.update(generation="3"),
    "order-not-list": lambda payload: payload.update(order="0,1"),
}


class TestUntrustedPayload:
    """A digest-valid payload of the wrong shape is a cold start, never a crash."""

    @pytest.mark.parametrize("corrupt", list(MALFORMED.values()), ids=list(MALFORMED))
    def test_malformed_payload_starts_cold(self, tmp_path, records, corrupt):
        payload = json.loads(json.dumps(JournalIndex(records).current.to_payload()))
        IndexSnapshot.from_payload(copy.deepcopy(payload))  # the intact one hydrates
        corrupt(payload)
        with pytest.raises(ServeError):
            IndexSnapshot.from_payload(payload)
        path = disk_journal(tmp_path, records)
        warm = tmp_path / "warm"
        seal_serve_index(warm, payload)
        assert load_serve_index(warm) is not None  # the digest is valid
        restarted = ServeApp.from_directory(path, warm_dir=warm)
        cold = ServeApp.from_directory(path)
        try:
            assert restarted.hydrated_slide is None
            assert restarted.cold_records_indexed == len(records)
            for query in (QUERY, {"top_k": {"k": 5}}, {"history": {"items": ["a"]}}):
                assert render_json(restarted.query(query)) == render_json(cold.query(query))
        finally:
            restarted.close()
            cold.close()


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
        suffix = JournalTail(path, after_slide=records[1].slide_id).poll()
        assert [r.slide_id for r in suffix] == [r.slide_id for r in records[2:]]

    def test_records_round_trip_content(self, tmp_path, records):
        path = disk_journal(tmp_path, records)
        tailed = JournalTail(path).poll()
        assert [r.patterns for r in tailed] == [r.patterns for r in records]

    def test_missing_journal_polls_empty(self, tmp_path):
        assert JournalTail(tmp_path / "nope").poll() == []
