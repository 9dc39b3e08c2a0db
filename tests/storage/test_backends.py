"""Tests for the window storage backends (repro.storage.backend).

Covers the contract of DESIGN.md §3: incremental support counters, O(1)
window slides, segment-level persistence (per-batch I/O, no full-matrix
rewrites), reopening a persisted directory, rejecting a malformed manifest
and the edge cases around empty batches and slid windows.
"""

import json

import pytest

from repro.exceptions import DSMatrixError
from repro.storage.backend import DiskWindowStore, MemoryWindowStore
from repro.storage.dsmatrix import DSMatrix
from repro.stream.batch import Batch


def batches_for(count, items_per_batch=3, start=0):
    """Synthetic batches with overlapping item sets."""
    result = []
    for index in range(start, start + count):
        transactions = [
            [f"i{(index + offset) % 7}", f"i{(index + offset + 1) % 7}"]
            for offset in range(items_per_batch)
        ]
        result.append(Batch(transactions, batch_id=index))
    return result


@pytest.fixture(params=["memory", "disk"])
def any_store(request, tmp_path):
    """One store per backend, window size 3."""
    if request.param == "memory":
        return MemoryWindowStore(3)
    return DiskWindowStore(3, path=tmp_path / "segments")


class TestSharedSemantics:
    def test_incremental_counters_match_recounted_rows(self, any_store):
        for batch in batches_for(8):
            any_store.append_batch(batch)
        for item in any_store.items():
            assert any_store.item_frequency(item) == any_store.row(item).count()

    def test_slide_is_a_segment_pop(self, any_store):
        for batch in batches_for(5):
            any_store.append_batch(batch)
        assert any_store.num_batches == 3
        assert [s.segment_id for s in any_store.segments()] == [2, 3, 4]

    def test_row_cache_invalidated_on_append(self, any_store):
        any_store.append_batch(Batch([["a", "b"], ["a"]]))
        before = any_store.row("a")
        assert before.count() == 2
        any_store.append_batch(Batch([["a"]]))
        after = any_store.row("a")
        assert after.length == 3
        assert after.count() == 3

    def test_evicted_item_keeps_zero_row(self, any_store):
        any_store.append_batch(Batch([["x", "y"]]))
        for batch in batches_for(3):
            any_store.append_batch(batch)
        assert any_store.item_frequency("x") == 0
        assert any_store.row("x").is_empty()

    def test_unknown_item_raises(self, any_store):
        any_store.append_batch(Batch([["a"]]))
        with pytest.raises(DSMatrixError):
            any_store.row("zz")
        with pytest.raises(DSMatrixError):
            any_store.item_frequency("zz")

    def test_empty_batch_appends_and_evicts(self, any_store):
        any_store.append_batch(Batch([]))
        any_store.append_batch(Batch([["a"], ["b"]]))
        assert any_store.num_columns == 2
        assert any_store.boundaries() == [0, 2]
        assert list(any_store.transactions()) == [("a",), ("b",)]
        # Slide the empty batch out again.
        evicted = [any_store.append_batch(b) for b in batches_for(2)]
        assert evicted == [0, 0]  # first append fills, second evicts 0 columns
        assert any_store.num_batches == 3

    def test_fixed_universe_rejected_before_mutation(self, tmp_path):
        store = MemoryWindowStore(2, items=["a", "b"])
        store.append_batch(Batch([["a"]]))
        with pytest.raises(DSMatrixError):
            store.append_batch(Batch([["a", "z"]]))
        # The failed append must not have half-applied.
        assert store.num_batches == 1
        assert store.item_frequency("a") == 1


class TestSegmentedPersistence:
    def test_slide_past_capacity_keeps_window_size_files(self, tmp_path):
        directory = tmp_path / "segments"
        store = DiskWindowStore(8, path=directory)
        for batch in batches_for(50):
            store.append_batch(batch)
        segment_files = sorted(directory.glob("seg-*.dsg"))
        assert len(segment_files) == 8
        assert store.io_stats.segment_files_deleted == 42

    def test_steady_state_appends_write_one_batch(self, tmp_path):
        """Acceptance: 50 batches through a window of 8 with persistence on
        performs no full-matrix rewrites; steady-state appends persist
        O(batch) bytes (segment + manifest), not the whole window."""
        store = DiskWindowStore(8, path=tmp_path / "segments")
        per_append = []
        for batch in batches_for(50, items_per_batch=20):
            store.append_batch(batch)
            per_append.append(store.io_stats.bytes_last_append)
        # Steady state (window full): every append writes about the same
        # number of bytes, and far less than the persisted window.
        steady = per_append[10:]
        assert max(steady) < store.disk_size_bytes()
        assert max(steady) <= min(steady) * 2

    def test_old_segment_files_untouched_by_later_appends(self, tmp_path):
        directory = tmp_path / "segments"
        store = DiskWindowStore(4, path=directory)
        for batch in batches_for(3):
            store.append_batch(batch)
        snapshot = {
            path.name: path.read_bytes() for path in directory.glob("seg-*.dsg")
        }
        store.append_batch(batches_for(1, start=3)[0])
        for name, content in snapshot.items():
            assert (directory / name).read_bytes() == content

    def test_reopen_round_trip(self, tmp_path):
        directory = tmp_path / "segments"
        store = DiskWindowStore(3, path=directory)
        for batch in batches_for(5):
            store.append_batch(batch)
        reopened = DiskWindowStore.open(directory)
        assert reopened.window_size == 3
        assert reopened.boundaries() == store.boundaries()
        assert reopened.items() == store.items()
        for item in store.items():
            assert reopened.row(item) == store.row(item)
        # Appends continue with fresh segment ids after the resume.
        reopened.append_batch(batches_for(1, start=5)[0])
        assert reopened.segments()[-1].segment_id == 5

    def test_reopen_with_mismatched_window_size(self, tmp_path):
        directory = tmp_path / "segments"
        store = DiskWindowStore(3, path=directory)
        store.append_batch(Batch([["a"]]))
        with pytest.raises(DSMatrixError):
            DiskWindowStore(window_size=5, path=directory)

    def test_row_persisted_reads_segment_files(self, tmp_path):
        store = DiskWindowStore(2, path=tmp_path / "segments")
        store.append_batch(Batch([["a", "b"], ["a"]]))
        store.append_batch(Batch([["b"]]))
        store.append_batch(Batch([["a"], ["c"]]))  # slides the window
        for item in ("a", "b", "c"):
            assert store.row_persisted(item) == store.row(item)

    def test_row_persisted_falls_back_when_segment_file_vanishes(self, tmp_path):
        directory = tmp_path / "segments"
        store = DiskWindowStore(2, path=directory)
        store.append_batch(Batch([["a"]]))
        next(directory.glob("seg-*.dsg")).unlink()
        assert store.row_persisted("a") is None  # caller falls back to row()
        assert store.row("a").count() == 1

    def test_append_keeps_manifest_consistent_before_deleting(self, tmp_path):
        """Crash-safety ordering: at no point does the manifest reference a
        deleted segment file, so the store is reopenable after every append."""
        directory = tmp_path / "segments"
        store = DiskWindowStore(2, path=directory)
        for batch in batches_for(5):
            store.append_batch(batch)
            manifest = json.loads((directory / "manifest.json").read_text())
            for entry in manifest["segments"]:
                assert (directory / entry["file"]).exists()
            reopened = DiskWindowStore.open(directory)
            assert reopened.boundaries() == store.boundaries()

    def test_reopen_rejects_conflicting_item_universe(self, tmp_path):
        directory = tmp_path / "segments"
        store = DiskWindowStore(2, path=directory)
        store.append_batch(Batch([["x", "y"]]))
        with pytest.raises(DSMatrixError):
            DiskWindowStore(window_size=2, items=["a"], path=directory)


class TestFacadeDiskMode:
    def test_dsmatrix_disk_storage_round_trip(self, tmp_path):
        directory = tmp_path / "segments"
        matrix = DSMatrix(window_size=2, path=directory)
        matrix.append_batch(Batch([["a", "b"], ["b"]]))
        matrix.append_batch(Batch([["a"]]))
        matrix.append_batch(Batch([["c"]]))  # slides
        restored = DSMatrix.load(directory)
        assert restored.boundaries() == matrix.boundaries()
        for item in matrix.items():
            assert restored.row(item) == matrix.row(item)

    def test_row_from_disk_on_segment_directory_after_slide(self, tmp_path):
        directory = tmp_path / "segments"
        matrix = DSMatrix(window_size=2, path=directory)
        for batch in batches_for(5):
            matrix.append_batch(batch)
        for item in matrix.items():
            assert DSMatrix.row_from_disk(directory, item) == matrix.row(item)

    def test_row_from_disk_unknown_item_on_directory(self, tmp_path):
        directory = tmp_path / "segments"
        matrix = DSMatrix(window_size=2, path=directory)
        matrix.append_batch(Batch([["a"]]))
        with pytest.raises(DSMatrixError):
            DSMatrix.row_from_disk(directory, "zz")

    def test_storage_requires_path(self):
        with pytest.raises(DSMatrixError):
            DiskWindowStore(2)

    def test_unknown_storage_kind(self):
        # The path alone picks the backend; no kind name is accepted.
        for kind in ("quantum", "memory", "disk"):
            with pytest.raises(DSMatrixError):
                DSMatrix(window_size=2, storage=kind, path="x")

    def test_store_instance_passthrough(self):
        store = MemoryWindowStore(4)
        matrix = DSMatrix(storage=store)
        assert matrix.store is store
        assert matrix.window_size == 4
        with pytest.raises(DSMatrixError):
            DSMatrix(window_size=3, storage=store)

    def test_store_instance_rejects_conflicting_arguments(self, tmp_path):
        with pytest.raises(DSMatrixError):
            DSMatrix(storage=MemoryWindowStore(2), items=["a"])
        with pytest.raises(DSMatrixError):
            DSMatrix(storage=MemoryWindowStore(2), path=tmp_path / "x")

    def test_segmented_layout_rejects_file_path(self, tmp_path):
        target = tmp_path / "window.dsm"
        target.write_bytes(b"not a directory")
        with pytest.raises(DSMatrixError):
            DSMatrix(window_size=2, path=target)
        with pytest.raises(DSMatrixError):
            DSMatrix.load(target)
        with pytest.raises(DSMatrixError):
            DSMatrix.row_from_disk(target, "a")

    def test_row_persisted_unknown_item_is_none_on_all_backends(self, tmp_path):
        disk = DSMatrix(window_size=2, path=tmp_path / "segs")
        memory = DSMatrix(window_size=2)
        for matrix in (disk, memory):
            matrix.append_batch(Batch([["a"]]))
            assert matrix.row_persisted("zz") is None

    def test_manifest_known_items_only_lists_zero_support_items(self, tmp_path):
        directory = tmp_path / "segs"
        store = DiskWindowStore(1, path=directory)
        store.append_batch(Batch([["x"]]))
        store.append_batch(Batch([["y"]]))  # evicts x -> zero support
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["known_items"] == ["x"]
        reopened = DiskWindowStore.open(directory)
        assert reopened.item_frequency("x") == 0
        assert reopened.row("x").is_empty()


def _duplicate_first_segment(manifest, directory):
    manifest["segments"].insert(0, dict(manifest["segments"][0]))


def _reverse_segments(manifest, directory):
    manifest["segments"].reverse()


def _point_outside_directory(manifest, directory):
    # A valid segment file that lives outside the store's directory.
    (directory.parent / "seg-00000000.dsg").write_bytes(
        (directory / "seg-00000000.dsg").read_bytes()
    )
    manifest["segments"][0]["file"] = "../seg-00000000.dsg"


MALFORMED_MANIFESTS = [
    pytest.param(lambda m, d: {"format": m["format"]}, id="format-only"),
    pytest.param(lambda m, d: [m], id="json-list"),
    pytest.param(lambda m, d: {**m, "window_size": "3"}, id="string-window-size"),
    pytest.param(lambda m, d: {**m, "window_size": 0}, id="zero-window-size"),
    pytest.param(lambda m, d: {**m, "window_size": True}, id="bool-window-size"),
    pytest.param(lambda m, d: {**m, "window_size": 1}, id="more-segments-than-window"),
    pytest.param(lambda m, d: {**m, "segments": {}}, id="segments-not-a-list"),
    pytest.param(lambda m, d: {**m, "segments": [1, 2]}, id="entry-not-an-object"),
    pytest.param(lambda m, d: {**m, "known_items": "x"}, id="known-items-not-a-list"),
    pytest.param(_duplicate_first_segment, id="duplicate-segment"),
    pytest.param(_reverse_segments, id="decreasing-segment-ids"),
    pytest.param(_point_outside_directory, id="file-outside-directory"),
    pytest.param(
        lambda m, d: m["segments"][1].update(num_columns=99),
        id="column-count-mismatch",
    ),
]


@pytest.mark.parametrize("corrupt", MALFORMED_MANIFESTS)
def test_malformed_manifest_raises_dsmatrix_error(tmp_path, corrupt):
    """Both loaders reject any manifest other than what the store writes."""
    directory = tmp_path / "segments"
    store = DiskWindowStore(3, path=directory)
    for batch in batches_for(2):
        store.append_batch(batch)
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    corrupted = corrupt(manifest, directory)
    manifest_path.write_text(json.dumps(manifest if corrupted is None else corrupted))
    with pytest.raises(DSMatrixError):
        DSMatrix.load(directory)
    with pytest.raises(DSMatrixError):
        DSMatrix.row_from_disk(directory, "i1")
