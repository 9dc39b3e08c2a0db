"""Every injection site is wired to the unified failure policy.

Each test arms a fault plan against one site and asserts the subsystem
recovers the way DESIGN.md §14 promises: I/O sites retry under the
policy and leave byte-identical artifacts, the checkpoint seal skips
(never kills the run) once its budget is spent, and the HTTP server drops the one poisoned connection while counting it in
``/stats``.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro import faults
from repro.checkpoint import CheckpointManager, Checkpointer
from repro.core.miner import StreamSubgraphMiner
from repro.datasets.synthetic import IBMSyntheticGenerator
from repro.history.journal import DiskJournal, MemoryJournal, SlideRecord
from repro.ingest import ingest_batches
from repro.resilience import EventLog, FailurePolicy
from repro.serve.app import ServeApp
from repro.serve.http import BackgroundServer
from repro.storage.backend import MemoryWindowStore
from repro.stream.stream import TransactionStream, group_units

#: Zero sleeps: these tests exercise the retry *logic*, not the pacing.
FAST = FailurePolicy(
    max_retries=2, backoff_s=0.0, io_retries=2, io_backoff_s=0.0, jitter=0.0
)

@pytest.fixture(autouse=True)
def disarm():
    yield
    faults.uninstall_plan()


def make_record(slide_id):
    return SlideRecord(
        slide_id=slide_id,
        first_batch=max(0, slide_id - 2),
        last_batch=slide_id,
        num_columns=30,
        minsup=3,
        patterns=((("a",), 7), (("a", "b"), 4)),
        timings={},
    )


class TestJournalWrite:
    def test_append_retries_and_bytes_match_a_clean_run(self, tmp_path):
        clean = DiskJournal(tmp_path / "clean")
        for slide in range(3):
            clean.append(make_record(slide))
        clean.close()

        events = EventLog()
        faulted = DiskJournal(tmp_path / "faulted")
        faulted.failure_policy = FAST
        faulted.resilience_events = events
        faults.install_plan("journal.write@2x2")
        for slide in range(3):
            faulted.append(make_record(slide))
        faulted.close()

        assert events.counts() == {"retry": 2}
        assert (tmp_path / "faulted" / "journal.dat").read_bytes() == (
            tmp_path / "clean" / "journal.dat"
        ).read_bytes()
        reopened = DiskJournal(tmp_path / "faulted")
        assert [record.slide_id for record in reopened.records()] == [0, 1, 2]
        reopened.close()

    def test_exhausted_budget_propagates(self, tmp_path):
        journal = DiskJournal(tmp_path / "journal")
        journal.failure_policy = FAST
        journal.resilience_events = EventLog()
        faults.install_plan("journal.write@1x5")  # outlives io_retries=2
        with pytest.raises(OSError):
            journal.append(make_record(0))
        journal.close()

    def test_failed_append_leaves_the_journal_unchanged(self, tmp_path):
        # A record is held only once it is on disk: after an exhausted
        # persist the journal still ends at the last record written, and
        # the same record can be appended again.
        journal = DiskJournal(tmp_path / "journal")
        journal.failure_policy = FailurePolicy(
            max_retries=1, backoff_s=0.0, io_retries=1, io_backoff_s=0.0, jitter=0.0
        )
        journal.append(make_record(0))
        faults.install_plan("journal.write@1x99")
        with pytest.raises(OSError):
            journal.append(make_record(1))
        assert len(journal) == 1
        assert journal.last_slide_id == 0
        assert [record.slide_id for record in journal.records()] == [0]
        assert DiskJournal(tmp_path / "journal").slide_ids() == [0]
        faults.uninstall_plan()
        journal.append(make_record(1))
        journal.close()
        assert DiskJournal(tmp_path / "journal").slide_ids() == [0, 1]

    def test_clean_append_records_no_events(self, tmp_path):
        events = EventLog()
        journal = DiskJournal(tmp_path / "journal")
        journal.failure_policy = FAST
        journal.resilience_events = events
        journal.append(make_record(0))
        journal.close()
        assert len(events) == 0


class TestSegmentWrite:
    TRANSACTIONS = [("a",), ("b",), ("a", "b"), ("c",), ("a", "c")] * 6

    def _ingest(self, events=None):
        store = MemoryWindowStore(3)
        report = ingest_batches(
            store,
            group_units(self.TRANSACTIONS, 5),
            policy=FAST,
            events=events,
        )
        return store, report

    def test_commit_retries_and_window_matches_a_clean_run(self):
        clean_store, clean_report = self._ingest()
        faults.install_plan("segment.write@2")
        faulted_store, report = self._ingest(events=EventLog())
        assert report.retries == 1
        assert report.batches == clean_report.batches
        assert dict(faulted_store.item_frequencies()) == dict(
            clean_store.item_frequencies()
        )
        assert faulted_store.boundaries() == clean_store.boundaries()


class TestCheckpointWrite:
    def _checkpointer(self, tmp_path, events):
        miner = StreamSubgraphMiner(window_size=3, batch_size=10, algorithm="vertical")
        miner.add_transactions(IBMSyntheticGenerator(seed=11).generate(50))
        manager = CheckpointManager(tmp_path / "chk")
        return Checkpointer(manager, miner, every=1, policy=FAST, events=events)

    def test_seal_retries_then_succeeds(self, tmp_path):
        events = EventLog()
        checkpointer = self._checkpointer(tmp_path, events)
        faults.install_plan("checkpoint.write@1")
        checkpointer(make_record(4))
        assert checkpointer.snapshots_sealed == 1
        assert checkpointer.snapshots_skipped == 0
        assert events.counts() == {"retry": 1}

    def test_exhausted_budget_skips_the_seal_not_the_run(self, tmp_path):
        events = EventLog()
        checkpointer = self._checkpointer(tmp_path, events)
        faults.install_plan("checkpoint.write@1x10")  # every attempt fails
        checkpointer(make_record(4))  # must not raise
        assert checkpointer.snapshots_sealed == 0
        assert checkpointer.snapshots_skipped == 1
        assert events.counts() == {"retry": 2, "skip": 1}
        # The next cadence tries again once the fault window has passed.
        faults.uninstall_plan()
        checkpointer(make_record(5))
        assert checkpointer.snapshots_sealed == 1


class TestHTTPResponse:
    @pytest.fixture()
    def running_server(self):
        journal = MemoryJournal()
        miner = StreamSubgraphMiner(
            window_size=3, batch_size=5, algorithm="vertical", on_slide=journal.append
        )
        miner.watch(
            TransactionStream([("a",), ("b",), ("a", "b")] * 10, batch_size=5),
            minsup=2,
            connected_only=False,
        )
        with BackgroundServer(ServeApp.from_journal(journal)) as server:
            yield server

    def test_poisoned_response_drops_one_connection_and_is_counted(
        self, running_server
    ):
        port = running_server.port
        url = f"http://127.0.0.1:{port}/stats"
        faults.install_plan("http.response@1")
        with pytest.raises((urllib.error.URLError, ConnectionError)):
            urllib.request.urlopen(url, timeout=5)
        # The server survives: the next request on a fresh connection works
        # and reports the drop.
        with urllib.request.urlopen(url, timeout=5) as response:
            payload = json.loads(response.read())
        assert payload["resilience"] == {"dropped_connections": 1}
