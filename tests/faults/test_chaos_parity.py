"""Chaos parity: seeded fault schedules never change the mined history.

The acceptance bar of DESIGN.md §14: under a deterministic fault plan —
worker kills, journal write errors — a watch run recovers via the
failure policy and seals a ``journal.dat`` **byte-identical** to the
fault-free sequential run, for every (workers × ingest_workers)
combination.  A fault-free run
must additionally record *zero* resilience events: the recovery paths
cost nothing until something actually breaks.
"""

import pytest

from repro import faults
from repro.core.miner import StreamSubgraphMiner
from repro.datasets.synthetic import IBMSyntheticGenerator
from repro.history.journal import DiskJournal
from repro.parallel.pool import process_pools_available
from repro.resilience import FailurePolicy
from repro.stream.stream import TransactionStream

BATCH_SIZE = 10
WINDOW_SIZE = 2
MINSUP = 0.3
TRANSACTIONS = IBMSyntheticGenerator(seed=23).generate(40)

#: Millisecond backoffs keep the chaos matrix fast; determinism of the
#: recovery (not its pacing) is what parity pins down.
FAST = FailurePolicy(
    backoff_s=0.001, max_backoff_s=0.002, io_backoff_s=0.001, jitter=0.0
)

#: One plan per fault family: process death in both pools and a
#: persistent-layer write error.
FAULT_PLANS = (
    "mine.shard@1:crash;ingest.encode@2:crash",
    "journal.write@2x2",
)

COMBOS = ((0, 0), (2, 0), (0, 2), (2, 2))

pool_required = pytest.mark.skipif(
    not process_pools_available(), reason="process pools unavailable on this host"
)


@pytest.fixture(autouse=True)
def disarm():
    yield
    faults.uninstall_plan()


def run_watch(path, workers=0, ingest_workers=0, policy=None):
    journal = DiskJournal(path)
    journal.failure_policy = policy
    miner = StreamSubgraphMiner(
        window_size=WINDOW_SIZE,
        batch_size=BATCH_SIZE,
        algorithm="vertical",
        on_slide=journal.append,
        failure_policy=policy,
    )
    journal.resilience_events = miner.resilience_event_log
    try:
        with miner:
            miner.watch(
                TransactionStream(TRANSACTIONS, batch_size=BATCH_SIZE),
                minsup=MINSUP,
                connected_only=False,
                workers=workers,
                ingest_workers=ingest_workers,
            )
    finally:
        journal.close()
    return miner.resilience_events


@pytest.fixture(scope="module")
def reference_bytes(tmp_path_factory):
    """journal.dat of the plain sequential, fault-free run."""
    path = tmp_path_factory.mktemp("reference") / "journal"
    run_watch(path)
    return (path / "journal.dat").read_bytes()


@pool_required
class TestChaosParity:
    @pytest.mark.parametrize("plan", FAULT_PLANS)
    @pytest.mark.parametrize("workers,ingest_workers", COMBOS)
    def test_journal_bytes_survive_faults(
        self, tmp_path, reference_bytes, plan, workers, ingest_workers
    ):
        faults.install_plan(plan)
        try:
            events = run_watch(
                tmp_path / "journal",
                workers=workers,
                ingest_workers=ingest_workers,
                policy=FAST,
            )
        finally:
            faults.uninstall_plan()
        assert (tmp_path / "journal" / "journal.dat").read_bytes() == reference_bytes
        # journal.write trips in the coordinating process on every combo;
        # crashes only fire when their pool is actually in play.
        if plan.startswith("journal.write"):
            assert any(event.kind == "retry" for event in events)

    @pytest.mark.parametrize("workers,ingest_workers", COMBOS)
    def test_fault_free_runs_record_zero_events(
        self, tmp_path, reference_bytes, workers, ingest_workers
    ):
        events = run_watch(
            tmp_path / "journal",
            workers=workers,
            ingest_workers=ingest_workers,
            policy=FAST,
        )
        assert (tmp_path / "journal" / "journal.dat").read_bytes() == reference_bytes
        assert events == ()
