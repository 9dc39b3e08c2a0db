"""Parity suite: the journal is byte-identical under every execution mode.

The acceptance bar of DESIGN.md §10, in the style of the §4/§5 suites:
for every ``workers`` × ``ingest_workers`` × ``max_inflight`` combination
the sealed slide records — and the record files a disk journal persists —
must be byte-identical to the sequential ``workers=0, ingest_workers=0``
run.  Wall-clock timings are the only thing allowed to differ, and they
live outside the record bytes.
"""

import hashlib

import pytest

from repro.core.miner import StreamSubgraphMiner
from repro.exceptions import MiningError
from repro.graph.edge_registry import EdgeRegistry
from repro.history.journal import DATA_NAME, DiskJournal, MemoryJournal
from repro.parallel.pipeline import default_max_inflight
from repro.stream.stream import GraphStream, TransactionStream

from tests.ingest.test_ingest_parity import synthetic_snapshots

#: (mining workers, ingest workers, max_inflight) grid; None = sequential path.
EXECUTION_MODES = (
    (0, None, None),
    (0, 0, 1),
    (0, 2, 2),
    (2, 0, 8),
    (2, 2, 1),
)


def stream_transactions():
    registry = EdgeRegistry()
    return [registry.encode(snapshot) for snapshot in synthetic_snapshots(count=60)]


def run_watch(journal, transactions, workers, ingest_workers, max_inflight):
    miner = StreamSubgraphMiner(
        window_size=3, batch_size=15, algorithm="vertical", on_slide=journal.append
    )
    report = miner.watch(
        TransactionStream(transactions, batch_size=15),
        minsup=3,
        connected_only=False,
        workers=workers,
        ingest_workers=ingest_workers,
        max_inflight=max_inflight,
    )
    return miner, report


def data_digest(journal_dir):
    """Digest of the journal's deterministic data file (record bytes only)."""
    return hashlib.sha256((journal_dir / DATA_NAME).read_bytes()).hexdigest()


class TestJournalParity:
    @pytest.mark.parametrize("workers,ingest_workers,max_inflight", EXECUTION_MODES)
    def test_memory_journal_records_byte_identical(
        self, workers, ingest_workers, max_inflight
    ):
        transactions = stream_transactions()
        reference = MemoryJournal()
        run_watch(reference, transactions, 0, None, None)
        assert len(reference) == 4  # 60 transactions / 15 per batch
        journal = MemoryJournal()
        run_watch(journal, transactions, workers, ingest_workers, max_inflight)
        assert [record.to_bytes() for record in journal] == [
            record.to_bytes() for record in reference
        ], (
            f"workers={workers} ingest_workers={ingest_workers} "
            f"max_inflight={max_inflight} diverged"
        )

    @pytest.mark.parametrize("workers,ingest_workers,max_inflight", EXECUTION_MODES)
    def test_disk_journal_files_byte_identical(
        self, workers, ingest_workers, max_inflight, tmp_path
    ):
        transactions = stream_transactions()
        run_watch(DiskJournal(tmp_path / "seq"), transactions, 0, None, None)
        label = f"w{workers}i{ingest_workers}m{max_inflight}"
        run_watch(
            DiskJournal(tmp_path / label),
            transactions,
            workers,
            ingest_workers,
            max_inflight,
        )
        assert data_digest(tmp_path / label) == data_digest(tmp_path / "seq"), (
            f"workers={workers} ingest_workers={ingest_workers} "
            f"max_inflight={max_inflight} persisted different record bytes"
        )

    def test_graph_stream_watch_matches_transaction_path(self, tmp_path):
        """Snapshot streams journal identically to their encoded transactions."""
        snapshots = synthetic_snapshots(count=60)
        reference_registry = EdgeRegistry()
        reference = MemoryJournal()
        miner = StreamSubgraphMiner(
            window_size=3,
            batch_size=15,
            algorithm="vertical",
            registry=reference_registry,
            on_slide=reference.append,
        )
        miner.watch(
            GraphStream(snapshots, registry=reference_registry, batch_size=15),
            minsup=3,
            connected_only=False,
        )
        for ingest_workers in (0, 2):
            registry = EdgeRegistry()
            journal = MemoryJournal()
            parallel = StreamSubgraphMiner(
                window_size=3,
                batch_size=15,
                algorithm="vertical",
                registry=registry,
                on_slide=journal.append,
            )
            parallel.watch(
                GraphStream(snapshots, registry=registry, batch_size=15),
                minsup=3,
                connected_only=False,
                ingest_workers=ingest_workers,
            )
            assert [record.to_bytes() for record in journal] == [
                record.to_bytes() for record in reference
            ]


class TestWatchSemantics:
    def test_watch_report_shape(self):
        journal = MemoryJournal()
        miner, report = run_watch(journal, stream_transactions(), 0, None, None)
        assert report.slides == len(journal) == 4
        assert report.columns == miner.transaction_count
        assert report.last_record is journal.records()[-1]
        assert report.last_record.timings["mine_s"] >= 0.0

    def test_records_reflect_window_slides(self):
        journal = MemoryJournal()
        run_watch(journal, stream_transactions(), 0, None, None)
        records = journal.records()
        assert [record.slide_id for record in records] == [0, 1, 2, 3]
        # While the window fills, the batch range grows from slide 0 ...
        assert (records[0].first_batch, records[0].last_batch) == (0, 0)
        assert (records[2].first_batch, records[2].last_batch) == (0, 2)
        # ... and once full (window_size=3) the oldest batch starts evicting.
        assert (records[3].first_batch, records[3].last_batch) == (1, 3)
        assert all(record.minsup == 3 for record in records)

    def test_relative_minsup_resolved_per_slide(self):
        journal = MemoryJournal()
        miner = StreamSubgraphMiner(
            window_size=3, batch_size=10, algorithm="vertical", on_slide=journal.append
        )
        transactions = [("a",)] * 30
        miner.watch(
            TransactionStream(transactions, batch_size=10),
            minsup=0.5,
            connected_only=False,
        )
        # 50% of 10, 20 and 30 window transactions respectively.
        assert [record.minsup for record in journal] == [5, 10, 15]

    def test_multiple_sinks_all_notified(self):
        first, second = MemoryJournal(), MemoryJournal()
        miner = StreamSubgraphMiner(
            window_size=2, batch_size=5, algorithm="vertical", on_slide=first.append
        )
        miner.add_slide_sink(second.append)
        assert len(miner.slide_sinks) == 2
        miner.watch(
            TransactionStream([("a",), ("b",)] * 5, batch_size=5),
            minsup=2,
            connected_only=False,
        )
        assert [r.to_bytes() for r in first] == [r.to_bytes() for r in second]

    def test_non_callable_sink_rejected(self):
        miner = StreamSubgraphMiner(window_size=2, batch_size=5)
        with pytest.raises(MiningError):
            miner.add_slide_sink("not-callable")

    def test_watch_without_sinks_still_mines(self):
        miner = StreamSubgraphMiner(window_size=2, batch_size=5, algorithm="vertical")
        report = miner.watch(
            TransactionStream([("a",), ("a", "b")] * 5, batch_size=5),
            minsup=2,
            connected_only=False,
        )
        assert report.slides == 2
        assert report.last_record is not None
        assert report.last_record.support_of(("a",)) == 10

    def test_empty_stream_yields_empty_report(self):
        journal = MemoryJournal()
        miner = StreamSubgraphMiner(
            window_size=2, batch_size=5, on_slide=journal.append
        )
        report = miner.watch(
            TransactionStream([], batch_size=5), minsup=2, connected_only=False
        )
        assert report.slides == 0
        assert report.last_record is None
        assert len(journal) == 0

    def test_last_ingest_report_exposed_after_parallel_watch(self):
        miner = StreamSubgraphMiner(window_size=3, batch_size=15, algorithm="vertical")
        assert miner.last_ingest_report is None
        miner.watch(
            TransactionStream(stream_transactions(), batch_size=15),
            minsup=3,
            connected_only=False,
            ingest_workers=2,
            max_inflight=2,
        )
        report = miner.last_ingest_report
        assert report is not None
        assert report.batches == 4
        assert report.max_inflight == 2

    @pytest.mark.parametrize("ingest_workers", (0, 1))
    def test_stream_is_pulled_lazily(self, ingest_workers):
        """Slides commit while the stream is still being read.

        The ingestion pipeline pulls one batch per in-flight credit, so
        when slide ``i`` is sealed at most ``i`` committed batches plus
        the in-flight bound plus one more batch have been read — never
        the whole stream.
        """
        batch_size, batches = 5, 20
        pulled = 0

        def units():
            nonlocal pulled
            for index in range(batches * batch_size):
                pulled += 1
                yield (f"i{index % 7}",)

        pulled_at_slide = []
        miner = StreamSubgraphMiner(
            window_size=3,
            batch_size=batch_size,
            algorithm="vertical",
            on_slide=lambda record: pulled_at_slide.append(pulled),
        )
        miner.watch(
            TransactionStream(units(), batch_size=batch_size),
            minsup=2,
            connected_only=False,
            ingest_workers=ingest_workers,
        )
        assert len(pulled_at_slide) == batches
        bound = (default_max_inflight(ingest_workers) + 1) * batch_size
        assert pulled_at_slide[0] <= bound
        for slide, count in enumerate(pulled_at_slide):
            assert count <= bound + slide * batch_size, (slide, count)


class TestEmissionBound:
    """A live source never waits on a slide the watch has not sunk yet.

    The source below, before yielding the first unit of batch ``j``,
    waits (with a timeout) until slide ``j - m`` has been sunk.  The sinks
    run in the watch's own thread, so if the pipeline pulls batch ``j``
    before that slide is out, the wait times out and the test fails — it
    never hangs.  ``m`` is the emission bound of each path: 1 for
    sequential feeding; the in-flight bound for parallel ingestion, whose
    first two batches are peeked before anything is committed.
    """

    BATCH_SIZE = 5
    BATCHES = 9
    TIMEOUT_S = 1.0

    def live_source(self, sunk, lag, exempt, misses):
        for index in range(self.BATCHES * self.BATCH_SIZE):
            batch, offset = divmod(index, self.BATCH_SIZE)
            if offset == 0 and batch >= exempt and batch - lag >= 0:
                if not sunk[batch - lag].wait(self.TIMEOUT_S):
                    misses.append((batch, batch - lag))
                    raise AssertionError(
                        f"batch {batch} pulled before slide {batch - lag} was sunk"
                    )
            yield (f"i{index % 4}", f"i{index % 3 + 4}")

    @pytest.mark.parametrize("workers", (0, 1, 2))
    @pytest.mark.parametrize("ingest_workers", (None, 1, 2))
    @pytest.mark.parametrize("max_inflight", (1, None))
    def test_batch_waits_for_the_slide_it_may_not_overtake(
        self, workers, ingest_workers, max_inflight
    ):
        import threading

        if ingest_workers is None:
            lag, exempt = 1, 0
        else:
            lag = max_inflight or default_max_inflight(ingest_workers)
            exempt = 2
        sunk = [threading.Event() for _ in range(self.BATCHES)]
        misses = []
        miner = StreamSubgraphMiner(
            window_size=3,
            batch_size=self.BATCH_SIZE,
            algorithm="vertical",
            on_slide=lambda record: sunk[record.slide_id].set(),
        )
        with miner:
            report = miner.watch(
                TransactionStream(
                    self.live_source(sunk, lag, exempt, misses),
                    batch_size=self.BATCH_SIZE,
                ),
                minsup=2,
                connected_only=False,
                workers=workers,
                ingest_workers=ingest_workers,
                max_inflight=max_inflight,
            )
        assert misses == []
        assert report.slides == self.BATCHES
        assert all(event.is_set() for event in sunk)
