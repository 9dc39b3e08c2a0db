"""All five algorithms return byte-identical results through every backend.

Acceptance test of the storage-engine refactor: a sliding-window
append+mine loop (window of 8, 50 batches, disk persistence on) must
produce the same :class:`~repro.core.patterns.MiningResult` — byte for
byte, via its JSON export — whether the window lives in a
``MemoryWindowStore`` or a segmented ``DiskWindowStore``, and the disk
store must never rewrite the full matrix: each append writes one segment
file and each eviction deletes one.
"""

import pytest

from repro.core.export import result_to_json
from repro.core.miner import StreamSubgraphMiner
from repro.datasets.random_graphs import GraphStreamGenerator, RandomGraphModel
from repro.storage.backend import DiskWindowStore

ALGORITHMS = (
    "fptree_multi",
    "fptree_single",
    "fptree_topdown",
    "vertical",
    "vertical_disk",
    "vertical_direct",
)

WINDOW_SIZE = 8
NUM_BATCHES = 50
BATCH_SIZE = 4


@pytest.fixture(scope="module")
def stream_fixture():
    model = RandomGraphModel(num_vertices=10, avg_fanout=3.0, seed=5)
    registry = model.registry()
    generator = GraphStreamGenerator(model, avg_edges_per_snapshot=4.0, seed=6)
    snapshots = list(generator.snapshots(NUM_BATCHES * BATCH_SIZE))
    return registry, snapshots


def mine_through(storage_path, algorithm, stream_fixture):
    registry, snapshots = stream_fixture
    miner = StreamSubgraphMiner(
        window_size=WINDOW_SIZE,
        batch_size=BATCH_SIZE,
        algorithm=algorithm,
        registry=registry,
        storage_path=storage_path,
    )
    miner.add_snapshots(snapshots)
    result = miner.mine(minsup=2, connected_only=True)
    return miner, result


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_backends_yield_byte_identical_results(algorithm, stream_fixture, tmp_path):
    miner, memory_result = mine_through(None, algorithm, stream_fixture)
    _, disk_result = mine_through(tmp_path / "segments", algorithm, stream_fixture)
    registry = miner.registry
    memory_json = result_to_json(memory_result, registry).encode("utf-8")
    assert result_to_json(disk_result, registry).encode("utf-8") == memory_json


def test_sliding_disk_loop_never_rewrites_full_matrix(stream_fixture, tmp_path):
    miner, result = mine_through(tmp_path / "segments", "vertical_direct", stream_fixture)
    store = miner.matrix.store
    assert isinstance(store, DiskWindowStore)
    stats = store.io_stats
    assert stats.appends == NUM_BATCHES
    assert stats.segment_files_deleted == NUM_BATCHES - WINDOW_SIZE
    # A steady-state append writes one segment file and the manifest, far
    # less than the persisted window.
    assert stats.bytes_last_append < store.disk_size_bytes()
    assert len(result) > 0
