"""Ablation: pattern-history journal overhead + query engine (E10).

Three properties of the history subsystem are pinned here (DESIGN.md §10):

* the E10 driver's determinism flags hold — sealed record bytes are
  identical under pipelined ingestion and the index agrees with a
  brute-force journal scan;
* journalling is an O(patterns-per-slide) tax, not a rescan of the
  window — asserted by running the same watch with and without a disk
  journal sink (the wall-clock columns land in BENCH_e10.json; the
  nightly gate budgets them);
* index-backed queries answer from posting lists, measured via
  pytest-benchmark with 4 reader threads sharing one immutable index
  snapshot.
"""

import json
from concurrent.futures import ThreadPoolExecutor

from repro.bench.experiments import experiment_journal_history
from repro.core.miner import StreamSubgraphMiner
from repro.history import algebra
from repro.history.journal import DiskJournal, MemoryJournal
from repro.serve.index import JournalIndex
from repro.stream.stream import TransactionStream


def test_e10_driver_flags_and_rows(tmp_path, scale):
    output = tmp_path / "BENCH_e10.json"
    outcome = experiment_journal_history(scale=scale, output_path=output)
    assert outcome["experiment"] == "E10-journal-history"
    # Sealed record bytes are identical under pipelined ingestion ...
    assert outcome["journal_identical"] is True
    # ... and the posting-list index agrees with the brute-force scan.
    assert outcome["index_matches_bruteforce"] is True
    by_mode = {row["mode"]: row for row in outcome["rows"] if "mode" in row}
    assert set(by_mode) == {"no-journal", "memory-journal", "disk-journal"}
    assert by_mode["disk-journal"]["journal_kb"] > 0
    assert (
        by_mode["no-journal"]["slides"]
        == by_mode["memory-journal"]["slides"]
        == by_mode["disk-journal"]["slides"]
    )
    query_rows = [row for row in outcome["rows"] if "query" in row]
    assert {row["query"] for row in query_rows} == {
        "super",
        "sub",
        "support-history",
    }
    assert all(row["queries"] > 0 for row in query_rows)
    # The driver archives its outcome for the CI artifact upload.
    archived = json.loads(output.read_text(encoding="utf-8"))
    assert archived["rows"] == outcome["rows"]


def test_journal_write_overhead(benchmark, edge_workload, tmp_path):
    """Wall-clock of a full watch run with a disk journal sink.

    The no-sink wall-clock of the same stream is attached as extra info,
    so the report shows the journal tax (budgeted at <= 10% in steady
    state; the nightly E10 gate tracks it across commits).
    """
    import time

    def run_watch(sink):
        miner = StreamSubgraphMiner(
            window_size=edge_workload.window_size,
            batch_size=edge_workload.batch_size,
            algorithm="vertical",
            on_slide=sink,
        )
        return miner.watch(
            TransactionStream(
                edge_workload.transactions, batch_size=edge_workload.batch_size
            ),
            max(2, edge_workload.batch_size // 4),
            connected_only=False,
        )

    started = time.perf_counter()
    baseline_report = run_watch(None)
    no_sink_s = time.perf_counter() - started

    journals = []

    def run():
        journal = DiskJournal(tmp_path / f"journal-{len(journals)}")
        journals.append(journal)
        return run_watch(journal.append)

    report = benchmark.pedantic(run, rounds=3, iterations=1)
    assert report.slides == baseline_report.slides > 0
    assert len(journals[-1]) == report.slides
    benchmark.extra_info["no_sink_s"] = round(no_sink_s, 4)
    benchmark.extra_info["journal_kb"] = round(
        journals[-1].disk_size_bytes() / 1024.0, 1
    )


def test_concurrent_query_throughput(benchmark, edge_workload):
    """Index-backed queries from 4 reader threads over one shared index."""
    journal = MemoryJournal()
    miner = StreamSubgraphMiner(
        window_size=edge_workload.window_size,
        batch_size=edge_workload.batch_size,
        algorithm="vertical",
        on_slide=journal.append,
    )
    miner.watch(
        TransactionStream(
            edge_workload.transactions, batch_size=edge_workload.batch_size
        ),
        max(2, edge_workload.batch_size // 4),
        connected_only=False,
    )
    index = JournalIndex(journal.records()).current
    universe = index.items()
    assert universe, "the workload must produce at least one frequent item"

    def worker(offset):
        for position in range(50):
            item = universe[(offset + position) % len(universe)]
            other = universe[(offset + 2 * position + 1) % len(universe)]
            algebra.evaluate(algebra.select(algebra.contains(item)), index)
            algebra.evaluate(algebra.history(item, other), index)
        return 100

    def run():
        with ThreadPoolExecutor(max_workers=4) as pool:
            return sum(pool.map(worker, range(4)))

    answered = benchmark.pedantic(run, rounds=3, iterations=1)
    assert answered == 400
    benchmark.extra_info["reader_threads"] = 4
    benchmark.extra_info["slides"] = len(journal)
