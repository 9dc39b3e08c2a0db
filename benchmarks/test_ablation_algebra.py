"""Ablation: query-algebra planner vs naive vs brute force (E13).

The E13 driver (DESIGN.md §13) evaluates seven query families three ways
— cost-based planner, naive left-to-right driver choice, brute-force
record scan — and this module pins its gate flags:

* every planner and naive answer equals the brute-force oracle
  (``planner_matches_bruteforce``);
* the planner's total wall-clock does not lose to naive evaluation
  (``planner_not_slower_than_naive``), with the ``super-adversarial``
  family (conjuncts written largest-posting-first) showing the reorder
  win in the ``scanned`` column;
* the Explain Q-Error percentiles are sane (>= 1 by construction).

A pytest-benchmark measures planner evaluation throughput over the
shared edge workload.
"""

import json

from repro.bench.experiments import experiment_query_algebra
from repro.core.miner import StreamSubgraphMiner
from repro.history import algebra
from repro.history.journal import MemoryJournal
from repro.serve.index import JournalIndex
from repro.stream.stream import TransactionStream


def test_e13_driver_flags_and_rows(tmp_path, scale):
    output = tmp_path / "BENCH_e13.json"
    outcome = experiment_query_algebra(scale=scale, output_path=output)
    assert outcome["experiment"] == "E13-query-algebra"
    # Planner and naive evaluation both agree with the brute-force oracle.
    assert outcome["planner_matches_bruteforce"] is True
    # The cost-based plan never loses to left-to-right evaluation.
    assert outcome["planner_not_slower_than_naive"] is True
    assert outcome["qerror_p50"] >= 1.0
    assert outcome["qerror_p95"] >= outcome["qerror_p50"]
    rows = outcome["rows"]
    by_family = {}
    for row in rows:
        assert row["mode"] in ("planner", "naive", "brute")
        assert row["queries"] > 0 and row["scanned"] >= 0
        by_family.setdefault(row["family"], {})[row["mode"]] = row
    assert len(by_family) == outcome["families"]
    for modes in by_family.values():
        assert set(modes) == {"planner", "naive", "brute"}
        # All three modes answered the same queries with the same results.
        assert (
            modes["planner"]["matches"]
            == modes["naive"]["matches"]
            == modes["brute"]["matches"]
        )
    # The adversarial family is the planner's showcase: conjuncts are
    # written largest-posting-first, so naive scans strictly more postings.
    adversarial = by_family["super-adversarial"]
    assert adversarial["planner"]["scanned"] < adversarial["naive"]["scanned"]
    archived = json.loads(output.read_text(encoding="utf-8"))
    assert archived["rows"] == outcome["rows"]


def test_planner_evaluation_throughput(benchmark, edge_workload):
    """Planner-evaluated conjunctive queries over the shared edge workload."""
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
    queries = [
        algebra.select(
            algebra.and_(
                algebra.contains(universe[position % len(universe)]),
                algebra.support_gte(2 + position % 3),
            )
        )
        for position in range(50)
    ]

    def run():
        return sum(
            len(algebra.evaluate(query, index).matches) for query in queries
        )

    answered = benchmark.pedantic(run, rounds=3, iterations=1)
    assert answered >= 0
    benchmark.extra_info["queries"] = len(queries)
    benchmark.extra_info["slides"] = len(journal)
