"""HistoryService.refresh racing concurrent queries (snapshot-swap atomicity).

``refresh`` publishes a *new* index object in one reference assignment
(:meth:`JournalIndex.extended`); it never mutates the index a concurrent
reader may have pinned.  These tests pin that contract: every answer
produced while slides commit must equal the canonical answer of some
fully committed journal prefix — never a half-applied slide.
"""

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.core.miner import StreamSubgraphMiner
from repro.history.journal import MemoryJournal
from repro.history.query import JournalIndex
from repro.service.api import HistoryService, evaluate_expression
from repro.serve.shards import ShardedJournalIndex
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


class TestRefreshRace:
    def test_extended_leaves_the_original_index_untouched(self):
        records = mined_records()
        index = JournalIndex(records[:4])
        before_ids = index.slide_ids()
        before_answer = evaluate_expression(QUERY, index)
        extended = index.extended(records[4:])
        # The old index answers exactly as before, end-to-end.
        assert index.slide_ids() == before_ids
        assert evaluate_expression(QUERY, index) == before_answer
        assert extended.slide_ids() == [r.slide_id for r in records]
        assert dict(extended.stats()) == dict(JournalIndex(records).stats())

    def test_reader_pinned_before_commit_sees_old_snapshot(self):
        records = mined_records()
        journal = MemoryJournal()
        for record in records[:4]:
            journal.append(record)
        service = HistoryService(journal)
        pinned = service.index
        expected = evaluate_expression(QUERY, pinned)
        journal.append(records[4])
        service.refresh()
        # A reader holding the pre-commit index object keeps getting the
        # pre-commit answer; the service's current index moved on.
        assert evaluate_expression(QUERY, pinned) == expected
        assert service.index is not pinned
        assert service.index.last_slide_id == records[4].slide_id

    def test_concurrent_queries_always_see_a_committed_prefix(self):
        records = mined_records()
        prefix = 3
        # Canonical answer bytes per committed prefix length.
        canonical = set()
        for end in range(prefix, len(records) + 1):
            payload = evaluate_expression(QUERY, JournalIndex(records[:end]))
            canonical.add(json.dumps(payload, sort_keys=True, default=str))
        journal = MemoryJournal()
        for record in records[:prefix]:
            journal.append(record)
        service = HistoryService(journal)
        stop = threading.Event()
        torn = []

        def reader():
            while not stop.is_set():
                answer = json.dumps(
                    service.query(QUERY), sort_keys=True, default=str
                )
                if answer not in canonical:
                    torn.append(answer)
                    return

        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(reader) for _ in range(4)]
            for record in records[prefix:]:
                journal.append(record)
                service.refresh()
            stop.set()
            for future in futures:
                future.result(timeout=30)
        assert torn == [], f"reader observed a non-prefix answer: {torn[:1]}"
        assert service.index.last_slide_id == records[-1].slide_id

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
            end: [evaluate_expression(query, JournalIndex(records[:end])) for query in queries]
            for end in range(1, len(records) + 1)
        }
        index = ShardedJournalIndex(records[:1], shard_count=3)
        stop = threading.Event()
        wrong = []

        def reader():
            while not stop.is_set():
                snapshot = index.current
                end = len(snapshot.slide_ids())
                answers = [evaluate_expression(query, snapshot) for query in queries]
                if answers != expected[end] or snapshot.stats() != JournalIndex(
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
