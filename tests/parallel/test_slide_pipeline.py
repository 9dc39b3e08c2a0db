"""The pipelined watch: one whole-window mining task per slide (DESIGN.md §9).

With mining workers a watch ships every slide's window to a worker as one
task, and mines slide n+1 there while the main process seals and sinks
slide n.  These tests pin what that must not change: the task count (one
per slide, no item shards), the checkpoint invariant (a sink for slide n
sees the window, registry and journal at slide n, even when the next
batch already registered new edges in a worker's task), and crash
recovery through the shared failure policy.
"""

import multiprocessing
import shutil
import sys

import pytest

from repro import faults
from repro.checkpoint import CheckpointManager, Checkpointer
from repro.core.miner import SLIDES_AHEAD, StreamSubgraphMiner
from repro.exceptions import StreamError
from repro.history.journal import DATA_NAME, DiskJournal, MemoryJournal, truncate_journal
from repro.parallel.api import HANDOFF_SWITCH_INTERVAL_S, handoff_switch_interval
from repro.parallel.pipeline import PipelineExecutor
from repro.parallel.planner import ShardPlanner
from repro.parallel.pool import process_pools_available
from repro.resilience import FailurePolicy
from repro.stream.batch import Batch
from repro.stream.stream import GraphStream, TransactionStream

from tests.ingest.test_ingest_parity import synthetic_snapshots

pool_required = pytest.mark.skipif(
    not process_pools_available(), reason="process pools unavailable on this host"
)

#: Millisecond backoffs: recovery is what is pinned, not its pacing.
FAST = FailurePolicy(backoff_s=0.001, max_backoff_s=0.002, io_backoff_s=0.001, jitter=0.0)

BATCH_SIZE = 5
WINDOW_SIZE = 3


@pytest.fixture(autouse=True)
def disarm():
    yield
    faults.uninstall_plan()


def transactions(count=60):
    return [(f"i{index % 5}", f"i{index % 3 + 5}", f"i{index % 7 + 8}") for index in range(count)]


def watch_into(path, units, **kwargs):
    journal = DiskJournal(path)
    miner = StreamSubgraphMiner(
        window_size=WINDOW_SIZE,
        batch_size=BATCH_SIZE,
        algorithm="vertical",
        on_slide=journal.append,
        failure_policy=FAST,
    )
    with miner:
        report = miner.watch(
            TransactionStream(units, batch_size=BATCH_SIZE),
            minsup=3,
            connected_only=False,
            **kwargs,
        )
    journal.close()
    return miner, report, (path / DATA_NAME).read_bytes()


def record_mining_runs(monkeypatch):
    """Record (task function, tasks, committed) of every executor run; forbid shards."""
    runs = []
    original = PipelineExecutor.run

    def recording_run(self, fn, tasks, consumer, *args, **kwargs):
        stats = original(self, fn, tasks, consumer, *args, **kwargs)
        runs.append((fn.__name__, stats.tasks, stats.committed))
        return stats

    def no_shards(*args, **kwargs):
        raise AssertionError("the watch planned item shards")

    monkeypatch.setattr(PipelineExecutor, "run", recording_run)
    monkeypatch.setattr(ShardPlanner, "plan_items", no_shards)
    return runs


class TestOneTaskPerSlide:
    @pytest.mark.parametrize("ingest_workers", (0, 1))
    def test_the_watch_submits_one_mining_task_per_slide(
        self, tmp_path, monkeypatch, ingest_workers
    ):
        runs = record_mining_runs(monkeypatch)
        _miner, report, data = watch_into(
            tmp_path / "par", transactions(), workers=2, ingest_workers=ingest_workers
        )
        assert report.slides == 12
        assert runs == [("run_mining_slide", 12, 12)]
        _miner, _report, reference = watch_into(tmp_path / "seq", transactions())
        assert data == reference

    def test_a_sequentially_fed_watch_mines_in_process(self, tmp_path, monkeypatch):
        """No batch is read ahead, so a worker would have nothing to overlap."""
        runs = record_mining_runs(monkeypatch)
        miner, report, data = watch_into(tmp_path / "par", transactions(), workers=2)
        assert report.slides == 12
        assert runs == []
        assert miner.mining_pool is None
        _miner, _report, reference = watch_into(tmp_path / "seq", transactions())
        assert data == reference

    @pool_required
    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_the_watch_spawns_no_more_workers_than_slides_in_flight(self, workers):
        miner = StreamSubgraphMiner(
            window_size=WINDOW_SIZE, batch_size=BATCH_SIZE, algorithm="vertical"
        )
        with miner:
            report = miner.watch(
                TransactionStream(transactions(), batch_size=BATCH_SIZE),
                minsup=3,
                connected_only=False,
                workers=workers,
                ingest_workers=1,
            )
            assert report.slides == 12
            assert miner.mining_pool.workers == min(workers, SLIDES_AHEAD + 1)


class TestCheckpointInvariant:
    """Checkpoints cut in a sink see the miner at exactly that slide."""

    ALGORITHM = "vertical_direct"
    SNAPSHOTS = 70  # 14 slides; new edges keep arriving for most of them

    def run(self, root, every=1, resume_from=None, journal_dir=None, **kwargs):
        journal = DiskJournal(journal_dir or root / "journal")
        if resume_from is None:
            miner = StreamSubgraphMiner(
                window_size=WINDOW_SIZE,
                batch_size=BATCH_SIZE,
                algorithm=self.ALGORITHM,
                on_slide=journal.append,
            )
        else:
            miner = StreamSubgraphMiner.hydrate(
                resume_from, algorithm=self.ALGORITHM, on_slide=journal.append
            )
        manager = CheckpointManager(root / "chk", keep=100)
        miner.add_slide_sink(Checkpointer(manager, miner, journal=journal, every=every))
        with miner:
            miner.watch(
                GraphStream(
                    synthetic_snapshots(count=self.SNAPSHOTS),
                    registry=miner.registry,
                    batch_size=BATCH_SIZE,
                ),
                minsup=2,
                resume_from=resume_from,
                **kwargs,
            )
        journal.close()
        return manager

    @pool_required
    def test_resume_from_every_checkpoint_reproduces_the_journal(self, tmp_path):
        sequential = self.run(tmp_path / "seq")
        pipelined = self.run(tmp_path / "par", workers=2, ingest_workers=1)
        reference = (tmp_path / "seq" / "journal" / DATA_NAME).read_bytes()
        assert (tmp_path / "par" / "journal" / DATA_NAME).read_bytes() == reference
        snapshots = pipelined.snapshot_paths()
        assert len(snapshots) == self.SNAPSHOTS // BATCH_SIZE
        registries = set()
        for path in snapshots:
            # The snapshot a sink cut mid-pipeline holds the same bytes
            # (window, registry, journal position) as the sequential one.
            twin = tmp_path / "seq" / "chk" / path.name
            for file in sorted(p for p in path.rglob("*") if p.is_file()):
                assert file.read_bytes() == (twin / file.relative_to(path)).read_bytes(), file
            checkpoint = pipelined.load(path)
            registries.add(len(checkpoint.registry))
            resumed = tmp_path / f"resume-{checkpoint.slide_id}"
            shutil.copytree(tmp_path / "par" / "journal", resumed)
            truncate_journal(resumed, checkpoint.slide_id)
            self.run(
                tmp_path / f"chk-{checkpoint.slide_id}",
                resume_from=checkpoint,
                journal_dir=resumed,
                workers=2,
                ingest_workers=1,
            )
            assert (resumed / DATA_NAME).read_bytes() == reference, checkpoint.slide_id
        # The stream registered new edges after the first checkpoint.
        assert len(registries) > 1


@pool_required
class TestCrashRecovery:
    def test_a_crashed_slide_worker_is_absorbed_by_a_respawn(self, tmp_path):
        _miner, _report, reference = watch_into(tmp_path / "ref", transactions())
        faults.install_plan("mine.shard@3:crash")
        miner, report, data = watch_into(
            tmp_path / "chaos", transactions(), workers=2, ingest_workers=1
        )
        assert report.slides == 12
        assert data == reference
        kinds = [event.kind for event in miner.resilience_events]
        assert "respawn" in kinds, kinds


class TestFailures:
    @pytest.mark.parametrize("ingest_workers", (None, 1))
    def test_a_bad_batch_fails_after_every_earlier_slide_is_out(self, ingest_workers):
        good = transactions(30)
        batches = [
            Batch(good[start : start + BATCH_SIZE], batch_id=start // BATCH_SIZE)
            for start in range(0, len(good), BATCH_SIZE)
        ]
        journal = MemoryJournal()
        miner = StreamSubgraphMiner(
            window_size=WINDOW_SIZE,
            batch_size=BATCH_SIZE,
            algorithm="vertical",
            on_slide=journal.append,
        )
        with miner, pytest.raises(StreamError, match="expected Batch"):
            miner.watch(
                iter([*batches, "not a batch"]),
                minsup=3,
                connected_only=False,
                workers=2,
                ingest_workers=ingest_workers,
            )
        assert [record.slide_id for record in journal] == list(range(len(batches)))

    @pytest.mark.parametrize("ingest_workers", (None, 1))
    @pytest.mark.parametrize("workers", (0, 2))
    def test_a_graph_stream_with_its_own_registry_is_rejected(self, workers, ingest_workers):
        journal = MemoryJournal()
        miner = StreamSubgraphMiner(
            window_size=WINDOW_SIZE,
            batch_size=BATCH_SIZE,
            algorithm="vertical_direct",
            on_slide=journal.append,
        )
        stream = GraphStream(synthetic_snapshots(count=20), batch_size=BATCH_SIZE)
        with miner, pytest.raises(StreamError, match="share the miner's EdgeRegistry"):
            miner.watch(stream, minsup=2, workers=workers, ingest_workers=ingest_workers)
        assert list(journal) == []
        assert miner.matrix.next_segment_id == 0

    @pool_required
    def test_a_failed_watch_shuts_its_ingestion_workers_down(self):
        """The ingestion pool goes with the watch, not with the exception's frames."""

        def sink(record):
            if record.slide_id == 3:
                raise RuntimeError("sink broke")

        before = set(multiprocessing.active_children())
        miner = StreamSubgraphMiner(
            window_size=WINDOW_SIZE, batch_size=BATCH_SIZE, algorithm="vertical", on_slide=sink
        )
        with pytest.raises(RuntimeError, match="sink broke") as failure:
            miner.watch(
                TransactionStream(transactions(), batch_size=BATCH_SIZE),
                minsup=3,
                connected_only=False,
                workers=1,
                ingest_workers=1,
            )
        miner.close()
        # ``failure`` still holds the traceback (and so the watch's frames).
        assert failure.traceback
        assert set(multiprocessing.active_children()) - before == set()

    @pool_required
    def test_a_failed_watch_retires_the_replicas_of_uncommitted_slides(self):
        """Slide 4 is shipped before slide 3's sinks fail, and never committed.

        Slow slide tasks (a sleep fault) on one worker keep slide 4's task
        out while slide 3 is sunk.  A second watch on the same miner then
        commits *other* data as segment 4: it must be mined from that data,
        not from a replica that still holds the first stream's segment 4.
        """

        journal = MemoryJournal()
        failing = True

        def sink(record):
            if not failing:
                journal.append(record)
            elif record.slide_id == 3:
                raise RuntimeError("sink broke")

        first = transactions(60)
        second = [tuple(f"j{item}" for item in unit) for unit in transactions(30)]
        faults.install_plan("mine.shard@1x1000:sleep~0.02")
        miner = StreamSubgraphMiner(
            window_size=WINDOW_SIZE,
            batch_size=BATCH_SIZE,
            algorithm="vertical",
            on_slide=sink,
        )
        with miner:
            with pytest.raises(RuntimeError, match="sink broke"):
                miner.watch(
                    TransactionStream(first, batch_size=BATCH_SIZE),
                    minsup=3,
                    connected_only=False,
                    workers=1,
                    ingest_workers=1,
                )
            assert miner.matrix.next_segment_id == 4
            assert miner.mining_pool is None
            failing = False
            miner.watch(
                TransactionStream(second, batch_size=BATCH_SIZE),
                minsup=3,
                connected_only=False,
                workers=1,
                ingest_workers=1,
            )
        faults.uninstall_plan()
        reference = MemoryJournal()
        with StreamSubgraphMiner(
            window_size=WINDOW_SIZE, batch_size=BATCH_SIZE, algorithm="vertical"
        ) as sequential:
            sequential.add_transactions(first[: 4 * BATCH_SIZE])
            sequential.add_slide_sink(reference.append)
            sequential.watch(
                TransactionStream(second, batch_size=BATCH_SIZE), minsup=3, connected_only=False
            )
        assert [r.to_bytes() for r in journal] == [r.to_bytes() for r in reference]


class TestHandoffSwitchInterval:
    def test_overlapping_watches_restore_the_callers_interval_last(self):
        original = sys.getswitchinterval()
        lowered = pytest.approx(min(original, HANDOFF_SWITCH_INTERVAL_S))
        first, second = handoff_switch_interval(), handoff_switch_interval()
        first.__enter__()
        assert sys.getswitchinterval() == lowered
        second.__enter__()
        first.__exit__(None, None, None)
        # The second watch still runs: the interval stays lowered for it.
        assert sys.getswitchinterval() == lowered
        second.__exit__(None, None, None)
        assert sys.getswitchinterval() == pytest.approx(original)
