"""Parity suite: sharded parallel mining equals sequential mining exactly.

For every algorithm and both storage backends, ``workers=0`` (in-process
shard plan), ``workers=1`` and ``workers=4`` (process pools) must produce
the identical pattern set — on the paper's running example and on a seeded
synthetic graph stream.  This is the determinism guarantee of DESIGN.md §4.
"""

import pytest

from repro.core.export import result_to_json
from repro.core.miner import StreamSubgraphMiner
from repro.datasets.paper_example import paper_example_batches, paper_example_registry
from repro.datasets.random_graphs import GraphStreamGenerator, RandomGraphModel

ALGORITHMS = (
    "fptree_multi",
    "fptree_single",
    "fptree_topdown",
    "vertical",
    "vertical_disk",
    "vertical_direct",
)
WORKER_COUNTS = (0, 1, 4)
BACKENDS = ("memory", "disk")


def synthetic_stream(seed=7, snapshots=90):
    model = RandomGraphModel(num_vertices=10, avg_fanout=3.0, seed=seed)
    registry = model.registry()
    generator = GraphStreamGenerator(model, avg_edges_per_snapshot=4.0, seed=seed + 1)
    return registry, list(generator.snapshots(snapshots))


def build_paper_miner(algorithm, backend, tmp_path):
    registry = paper_example_registry()
    miner = StreamSubgraphMiner(
        window_size=2,
        batch_size=3,
        algorithm=algorithm,
        registry=registry,
        storage_path=tmp_path / "segments" if backend != "memory" else None,
    )
    for batch in paper_example_batches():
        miner.add_batch(batch)
    return miner, 2


def build_synthetic_miner(algorithm, backend, tmp_path):
    registry, snapshots = synthetic_stream()
    miner = StreamSubgraphMiner(
        window_size=3,
        batch_size=15,
        algorithm=algorithm,
        registry=registry,
        storage_path=tmp_path / "segments" if backend != "memory" else None,
    )
    miner.add_snapshots(snapshots)
    return miner, 3


DATASETS = {"paper": build_paper_miner, "synthetic": build_synthetic_miner}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_worker_counts_agree(algorithm, backend, dataset, tmp_path):
    build = DATASETS[dataset]
    rendered = {}
    for workers in WORKER_COUNTS:
        miner, minsup = build(algorithm, backend, tmp_path / f"w{workers}")
        result = miner.mine(minsup=minsup, connected_only=True, workers=workers)
        rendered[workers] = result_to_json(result, miner.registry)
    assert rendered[0] == rendered[1] == rendered[4], (
        f"{algorithm}/{backend}/{dataset}: parallel mining diverged from "
        "the sequential reference"
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_parallel_matches_plain_sequential_mine(backend, tmp_path):
    """workers=N equals the historical workers-free mine() call."""
    miner, minsup = build_paper_miner("vertical_direct", backend, tmp_path / "seq")
    sequential = miner.mine(minsup=minsup, connected_only=True)
    miner2, _ = build_paper_miner("vertical_direct", backend, tmp_path / "par")
    parallel = miner2.mine(minsup=minsup, connected_only=True, workers=4)
    assert result_to_json(sequential, miner.registry) == result_to_json(
        parallel, miner2.registry
    )


def test_disk_backend_ships_paths_not_payloads(tmp_path):
    """The segmented disk backend hands workers file paths, not matrices."""
    miner, _ = build_synthetic_miner("vertical", "disk", tmp_path)
    handles = miner.matrix.segment_handles()
    assert handles, "expected a non-empty window"
    assert all(handle.path is not None for handle in handles)
    assert all(handle.payload is None for handle in handles)
    # And the handles reconstruct the exact same rows.
    for handle, segment in zip(handles, miner.matrix.segments()):
        loaded = handle.load()
        assert loaded.segment_id == segment.segment_id
        assert loaded.items() == segment.items()
        assert all(
            loaded.row_bits(item) == segment.row_bits(item)
            for item in segment.items()
        )


def test_memory_backend_ships_payload_handles(tmp_path):
    miner, _ = build_paper_miner("vertical", "memory", tmp_path)
    handles = miner.matrix.segment_handles()
    assert all(handle.payload is not None for handle in handles)
    assert all(handle.path is None for handle in handles)


def test_disk_workers_keep_streaming_rows_from_disk(tmp_path):
    """vertical_disk workers reopen the segmented store: rows come from files."""
    miner, minsup = build_synthetic_miner("vertical_disk", "disk", tmp_path)
    miner.mine(minsup=minsup, connected_only=True, workers=2)
    merged = miner.algorithm.stats.as_dict()
    assert merged.get("rows_read_from_disk", 0) > 0


def test_parallel_rejects_unregistered_algorithm_instance(tmp_path):
    """Only the registry name crosses the process boundary, so a custom
    subclass would silently be swapped for the stock class — reject it."""
    from repro.core.algorithms.vertical import VerticalMiner
    from repro.exceptions import ParallelMiningError
    from repro.parallel import mine_window_parallel

    class CustomVertical(VerticalMiner):
        name = "vertical"

    miner, minsup = build_paper_miner("vertical", "memory", tmp_path)
    with pytest.raises(ParallelMiningError):
        mine_window_parallel(
            miner.matrix, CustomVertical(), minsup, workers=2,
            registry=miner.registry,
        )
    with pytest.raises(ParallelMiningError):
        mine_window_parallel(miner.matrix, "bogus", minsup, workers=2)


def test_shard_capability_matches_algorithm_family():
    """Single-tree algorithms keep the filtering fallback (and run as one
    shard); the vertical family and the multi-tree miner truly split."""
    from repro.core.algorithms import ALGORITHMS
    from repro.core.algorithms.base import MiningAlgorithm

    base = MiningAlgorithm.mine_shard
    assert ALGORITHMS["fptree_single"].mine_shard is base
    assert ALGORITHMS["fptree_topdown"].mine_shard is base
    for name in ("vertical", "vertical_disk", "vertical_direct", "fptree_multi"):
        assert ALGORITHMS[name].mine_shard is not base
