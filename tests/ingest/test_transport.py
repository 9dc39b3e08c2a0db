"""The one segment transport (DESIGN.md §11).

Segments cross a process boundary as pickled payloads or path handles —
nothing is published to shared memory, so a parallel run needs no probe,
no fallback and no leak sweep.  Both execution modes of the ingest
pipeline (in-process and pooled) must build the window sequential
appends build, and a parallel watch must seal the sequential journal
byte for byte without ever loading a shared-state module.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.core.miner import StreamSubgraphMiner
from repro.datasets.random_graphs import GraphStreamGenerator, RandomGraphModel
from repro.graph.edge_registry import EdgeRegistry
from repro.history.journal import DiskJournal
from repro.stream.stream import GraphStream

SRC = Path(__file__).resolve().parents[2] / "src"

#: Watched by the parallel run in a fresh interpreter, so its module table
#: shows exactly what a parallel watch loads.
PARALLEL_WATCH = textwrap.dedent(
    """
    import json, sys
    from repro.core.miner import StreamSubgraphMiner
    from repro.datasets.synthetic import IBMSyntheticGenerator
    from repro.history.journal import DiskJournal
    from repro.stream.stream import TransactionStream

    journal = DiskJournal(sys.argv[1])
    with StreamSubgraphMiner(
        window_size=3, batch_size=10, algorithm="vertical", on_slide=journal.append
    ) as miner:
        miner.watch(
            TransactionStream(IBMSyntheticGenerator(seed=5).generate(120), batch_size=10),
            minsup=0.2,
            connected_only=False,
            workers=2,
            ingest_workers=1,
        )
    journal.close()
    print(json.dumps(sorted(m for m in sys.modules if m.startswith("multiprocessing.shared"))))
    """
)


def synthetic_snapshots(seed=7, count=95):
    model = RandomGraphModel(num_vertices=10, avg_fanout=3.0, seed=seed)
    generator = GraphStreamGenerator(
        model, avg_edges_per_snapshot=4.0, seed=seed + 1
    )
    return list(generator.snapshots(count))


def build_miner(registry):
    return StreamSubgraphMiner(
        window_size=3,
        batch_size=15,
        algorithm="vertical",
        registry=registry,
    )


def window_fingerprint(miner):
    return (
        dict(miner.matrix.item_frequencies()),
        miner.matrix.boundaries(),
        miner.matrix.items(),
        miner.batches_consumed,
    )


class TestIngestTransport:
    def test_transports_produce_identical_windows(self):
        snapshots = synthetic_snapshots()
        reference_registry = EdgeRegistry()
        reference = build_miner(reference_registry)
        reference.consume(
            GraphStream(snapshots, registry=reference_registry, batch_size=15)
        )
        for workers in (0, 2):
            registry = EdgeRegistry()
            miner = build_miner(registry)
            miner.consume(
                GraphStream(snapshots, registry=registry, batch_size=15),
                ingest_workers=workers,
            )
            assert window_fingerprint(miner) == window_fingerprint(
                reference
            ), f"ingest workers={workers} diverged"


class TestNoSharedMemory:
    def test_parallel_watch_loads_no_shared_state_and_matches_sequential(
        self, tmp_path
    ):
        from repro.datasets.synthetic import IBMSyntheticGenerator
        from repro.stream.stream import TransactionStream

        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        completed = subprocess.run(
            [sys.executable, "-c", PARALLEL_WATCH, str(tmp_path / "parallel")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert json.loads(completed.stdout.splitlines()[-1]) == []

        journal = DiskJournal(tmp_path / "sequential")
        with StreamSubgraphMiner(
            window_size=3, batch_size=10, algorithm="vertical", on_slide=journal.append
        ) as miner:
            miner.watch(
                TransactionStream(
                    IBMSyntheticGenerator(seed=5).generate(120), batch_size=10
                ),
                minsup=0.2,
                connected_only=False,
            )
        journal.close()
        sequential = (tmp_path / "sequential" / "journal.dat").read_bytes()
        assert sequential
        assert (tmp_path / "parallel" / "journal.dat").read_bytes() == sequential
