"""Restore parity: hydrate + resume reproduces the journal byte-identically.

The §12 acceptance bar: after a crash at any point, restoring from the
latest sealed snapshot and replaying only the un-checkpointed stream
suffix must continue ``journal.dat`` with exactly the bytes an
uninterrupted run would have written — including when the crash fell in
the window between the journal's data append and its log line (the
orphan-tail case), and under parallel mining + parallel ingestion.
"""

import pytest

from repro.checkpoint import CheckpointManager, Checkpointer
from repro.core.miner import StreamSubgraphMiner
from repro.exceptions import CheckpointError, HistoryError
from repro.history.journal import DATA_NAME, DiskJournal, truncate_journal
from repro.stream.stream import TransactionStream

from checkpoint_helpers import BATCH_SIZE, MINSUP, make_miner

CRASH_AT_TRANSACTION = 70  # mid-stream: 7 slides mined, snapshot at slide 5


def run_watch(journal_dir, units, miner=None, resume_from=None, workers=0,
              ingest_workers=0, checkpoint_dir=None, every=2):
    journal = DiskJournal(journal_dir)
    if miner is None:
        miner = make_miner(on_slide=journal.append)
    checkpointer = None
    if checkpoint_dir is not None:
        manager = CheckpointManager(checkpoint_dir, keep=2)
        checkpointer = Checkpointer(manager, miner, journal=journal, every=every)
        miner.add_slide_sink(checkpointer)
    with miner:
        miner.watch(
            TransactionStream(units, batch_size=BATCH_SIZE),
            MINSUP,
            connected_only=False,
            workers=workers,
            ingest_workers=ingest_workers or None,
            resume_from=resume_from,
        )
    journal.close()
    return checkpointer


def restore_and_replay(journal_dir, checkpoint_dir, units, workers=0,
                       ingest_workers=0):
    checkpoint = CheckpointManager(checkpoint_dir, keep=2).latest()
    assert checkpoint is not None
    truncate_journal(journal_dir, checkpoint.slide_id)
    journal = DiskJournal(journal_dir)
    miner = StreamSubgraphMiner.hydrate(
        checkpoint, algorithm="vertical", on_slide=journal.append
    )
    run_watch(
        journal_dir,
        units,
        miner=miner,
        resume_from=checkpoint,
        workers=workers,
        ingest_workers=ingest_workers,
    )
    return checkpoint


class TestRestoreParity:
    @pytest.mark.parametrize(
        "workers,ingest_workers", [(0, 0), (2, 2)], ids=["sequential", "parallel"]
    )
    def test_resume_continues_byte_identically(
        self, tmp_path, transactions, workers, ingest_workers
    ):
        run_watch(tmp_path / "ref", transactions)
        prefix = transactions[:CRASH_AT_TRANSACTION]
        run_watch(
            tmp_path / "live",
            prefix,
            checkpoint_dir=tmp_path / "chk",
            workers=workers,
            ingest_workers=ingest_workers,
        )
        checkpoint = restore_and_replay(
            tmp_path / "live",
            tmp_path / "chk",
            transactions,
            workers=workers,
            ingest_workers=ingest_workers,
        )
        assert checkpoint.slide_id == 5
        assert (tmp_path / "live" / DATA_NAME).read_bytes() == (
            tmp_path / "ref" / DATA_NAME
        ).read_bytes()

    def test_orphan_tail_composes_with_snapshot_restore(
        self, tmp_path, transactions
    ):
        """Crash between the journal data append and its log line.

        The crashed run leaves journal.dat with a trailing half-record no
        log line references.  Resume must drop the orphan (the rollback to
        the checkpointed slide subsumes it) and still continue
        byte-identically.
        """
        run_watch(tmp_path / "ref", transactions)
        prefix = transactions[:CRASH_AT_TRANSACTION]
        run_watch(tmp_path / "live", prefix, checkpoint_dir=tmp_path / "chk")
        data_path = tmp_path / "live" / DATA_NAME
        with open(data_path, "ab") as handle:
            handle.write(b"\x13half-a-record-no-log-line")
        restore_and_replay(tmp_path / "live", tmp_path / "chk", transactions)
        assert data_path.read_bytes() == (tmp_path / "ref" / DATA_NAME).read_bytes()

    def test_resume_without_checkpoint_restarts_from_scratch(
        self, tmp_path, transactions
    ):
        """A SIGKILL before the first seal: reset the journal, rerun fully."""
        run_watch(tmp_path / "ref", transactions)
        prefix = transactions[:BATCH_SIZE]  # one slide, no snapshot at every=2
        checkpointer = run_watch(
            tmp_path / "live", prefix, checkpoint_dir=tmp_path / "chk"
        )
        assert checkpointer.snapshots_sealed == 0
        assert CheckpointManager(tmp_path / "chk").latest() is None
        kept, size = truncate_journal(tmp_path / "live", -1)
        assert (kept, size) == (0, 0)
        run_watch(tmp_path / "live", transactions)
        assert (tmp_path / "live" / DATA_NAME).read_bytes() == (
            tmp_path / "ref" / DATA_NAME
        ).read_bytes()

    def test_hydrated_miner_mines_like_the_original(self, tmp_path, transactions):
        miner = make_miner()
        miner.add_transactions(transactions[:50])
        reference = miner.mine(MINSUP, connected_only=False)
        checkpoint = CheckpointManager(tmp_path / "chk").seal(miner)
        restored = StreamSubgraphMiner.hydrate(checkpoint, algorithm="vertical")
        assert restored.batches_consumed == miner.batches_consumed
        result = restored.mine(MINSUP, connected_only=False)
        assert {
            frozenset(p.sorted_items()): p.support for p in result
        } == {frozenset(p.sorted_items()): p.support for p in reference}


class TestRestoreValidation:
    def seal_one(self, tmp_path, transactions):
        miner = make_miner()
        miner.add_transactions(transactions[:50])
        return CheckpointManager(tmp_path / "chk").seal(miner)

    def test_watch_requires_hydration_first(self, tmp_path, transactions):
        checkpoint = self.seal_one(tmp_path, transactions)
        fresh = make_miner()  # right geometry, but an empty window
        with pytest.raises(CheckpointError, match="hydrate"):
            fresh.watch(
                TransactionStream(transactions, batch_size=BATCH_SIZE),
                MINSUP,
                resume_from=checkpoint,
            )

    def test_watch_rejects_a_window_size_mismatch(self, tmp_path, transactions):
        checkpoint = self.seal_one(tmp_path, transactions)
        other = StreamSubgraphMiner(
            window_size=5, batch_size=BATCH_SIZE, algorithm="vertical"
        )
        with pytest.raises(CheckpointError, match="window size"):
            other.watch(
                TransactionStream(transactions, batch_size=BATCH_SIZE),
                MINSUP,
                resume_from=checkpoint,
            )

    def test_truncate_rejects_a_compacted_away_slide(self, tmp_path, transactions):
        run_watch(tmp_path / "live", transactions[:CRASH_AT_TRANSACTION])
        with pytest.raises(HistoryError, match="slide 99"):
            truncate_journal(tmp_path / "live", 99)

    def test_truncate_needs_a_journal_for_a_real_slide(self, tmp_path):
        with pytest.raises(HistoryError, match="no pattern journal"):
            truncate_journal(tmp_path / "missing", 5)
