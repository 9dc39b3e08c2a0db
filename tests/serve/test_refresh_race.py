"""ServeApp.refresh racing concurrent queries (snapshot-swap atomicity).

``refresh`` publishes a *new* index snapshot in one reference assignment
per slide; it never mutates the snapshot a concurrent reader may have
pinned.  These tests pin that contract: every answer produced while
slides commit must equal the answer of a cold index build over some fully
committed journal prefix — never a half-applied slide.
"""

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.core.miner import StreamSubgraphMiner
from repro.history.journal import MemoryJournal
from repro.serve.app import ServeApp, evaluate_expression
from repro.serve.index import JournalIndex
from repro.stream.stream import TransactionStream
from tests.helpers import drifting_records

TRANSACTIONS = [
    ("a",),
    ("b",),
    ("a", "b"),
    ("c",),
    ("a", "c"),
    ("b", "c"),
    ("a", "b", "c"),
    ("d",),
] * 12

QUERY = {
    "select": {"where": {"or": [{"contains": ["a"]}, {"contains": ["c"]}]}}
}


def mined_records():
    journal = MemoryJournal()
    miner = StreamSubgraphMiner(
        window_size=3, batch_size=8, algorithm="vertical", on_slide=journal.append
    )
    miner.watch(
        TransactionStream(TRANSACTIONS, batch_size=8), 2, connected_only=False
    )
    return journal.records()


def cold(records):
    """A cold index build over ``records``."""
    return JournalIndex(records).current


def app_over(records):
    journal = MemoryJournal()
    for record in records:
        journal.append(record)
    return ServeApp.from_journal(journal)


class TestRefreshRace:
    def test_extended_leaves_the_original_index_untouched(self):
        records = mined_records()
        app = app_over(records[:4])
        pinned = app.index.current
        before_ids = pinned.slide_ids()
        before_answer = evaluate_expression(QUERY, pinned)
        for record in records[4:]:
            app.journal.append(record)
        assert app.refresh() == len(records) - 4
        # The old snapshot answers exactly as before, end-to-end.
        assert pinned.slide_ids() == before_ids
        assert evaluate_expression(QUERY, pinned) == before_answer
        assert app.index.current.slide_ids() == [r.slide_id for r in records]
        assert dict(app.index.current.stats()) == dict(cold(records).stats())

    def test_reader_pinned_before_commit_sees_old_snapshot(self):
        records = mined_records()
        app = app_over(records[:4])
        pinned = app.index.current
        expected = evaluate_expression(QUERY, pinned)
        app.journal.append(records[4])
        app.refresh()
        # A reader holding the pre-commit snapshot keeps getting the
        # pre-commit answer; the app's current snapshot moved on.
        assert evaluate_expression(QUERY, pinned) == expected
        assert app.index.current is not pinned
        assert app.index.current.last_slide_id == records[4].slide_id
        assert app.query(QUERY) == evaluate_expression(QUERY, cold(records[:5]))

    def test_concurrent_queries_always_see_a_committed_prefix(self):
        records = mined_records()
        prefix = 3
        # Canonical answer bytes per committed prefix length.
        canonical = set()
        for end in range(prefix, len(records) + 1):
            payload = evaluate_expression(QUERY, cold(records[:end]))
            canonical.add(json.dumps(payload, sort_keys=True, default=str))
        app = app_over(records[:prefix])
        stop = threading.Event()
        torn = []

        def reader():
            while not stop.is_set():
                answer = json.dumps(app.query(QUERY), sort_keys=True, default=str)
                if answer not in canonical:
                    torn.append(answer)
                    return

        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(reader) for _ in range(4)]
            for record in records[prefix:]:
                app.journal.append(record)
                app.refresh()
            stop.set()
            for future in futures:
                future.result(timeout=30)
        assert torn == [], f"reader observed a non-prefix answer: {torn[:1]}"
        assert app.index.current.last_slide_id == records[-1].slide_id

    def test_shared_provenance_under_concurrent_commits(self):
        """Readers pinning snapshots while the writer appends to the one
        provenance map they share: every answer equals a cold build of the
        prefix the reader pinned."""
        records = drifting_records(24)
        queries = [
            {"select": {"where": {"first_frequent_in": [2, None]}}},
            {"select": {"where": {"became_frequent_within": {"k": 1, "of": ["i05"]}}}},
            {"top_k": {"k": 4}},
        ]
        expected = {
            end: [evaluate_expression(query, cold(records[:end])) for query in queries]
            for end in range(1, len(records) + 1)
        }
        index = JournalIndex(records[:1])
        stop = threading.Event()
        wrong = []

        def reader():
            while not stop.is_set():
                snapshot = index.current
                end = len(snapshot.slide_ids())
                answers = [evaluate_expression(query, snapshot) for query in queries]
                if answers != expected[end] or snapshot.stats() != cold(
                    records[:end]
                ).stats():
                    wrong.append(end)
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(reader) for _ in range(6)]
                for record in records[1:]:
                    index.extend([record])
                stop.set()
                for future in futures:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == [], f"a reader saw a wrong answer at prefix {wrong[:1]}"
        assert index.current.last_slide_id == records[-1].slide_id
