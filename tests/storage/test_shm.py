"""Tests of the shared-memory segment transport (DESIGN.md §11)."""

from multiprocessing import shared_memory

import pytest

from repro.exceptions import SharedMemoryError, StorageError
from repro.storage.bitvector import popcount_bytes
from repro.storage.segments import (
    Segment,
    SegmentHandle,
    segment_counts_from_bytes,
)
from repro.storage.shm import (
    SHM_DIRECTORY,
    SharedSegmentArena,
    block_prefix,
    linked_blocks,
    publish_block,
    publish_segments,
    read_shared_block,
    run_prefix,
    shared_memory_available,
    sweep_blocks,
    unlink_block,
)


def _no_shm_leaks():
    # Only this process tree's blocks: another run's leftovers in the
    # host-wide directory say nothing about this code.
    return linked_blocks(block_prefix()) == []


def _segment(segment_id=0, num_columns=5):
    rows = {"a": 0b10110, "b": 0b00111, "c": 0b01000}
    return Segment(segment_id, num_columns, rows)


class TestPopcountBytes:
    def test_empty(self):
        assert popcount_bytes(b"") == 0

    def test_matches_per_byte_counts(self):
        data = bytes(range(256)) * 17
        assert popcount_bytes(data) == sum(b.bit_count() for b in data)

    def test_crosses_stride_boundaries(self):
        data = b"\xff" * (1 << 17)  # two full strides
        assert popcount_bytes(data) == 8 * len(data)

    def test_accepts_memoryview(self):
        assert popcount_bytes(memoryview(b"\x0f\xf0")) == 8


class TestSegmentCountsFromBytes:
    def test_matches_segment_counts(self):
        segment = _segment()
        counts = segment_counts_from_bytes(segment.to_bytes())
        expected = {
            item: bin(segment.row_bits(item)).count("1")
            for item in segment.items()
            if segment.row_bits(item)
        }
        assert counts == expected

    def test_rejects_bad_magic(self):
        with pytest.raises(StorageError):
            segment_counts_from_bytes(b"XXXX" + b"\x00" * 16)


class TestPublishBlock:
    def test_roundtrip_and_unlink(self):
        if not shared_memory_available():
            pytest.skip("no shared memory on this host")
        payloads = [b"alpha", b"", b"gamma-gamma"]
        name, spans = publish_block(payloads)
        try:
            assert [read_shared_block(name, o, s) for o, s in spans] == payloads
        finally:
            unlink_block(name)
        assert _no_shm_leaks()

    def test_unlink_is_idempotent(self):
        if not shared_memory_available():
            pytest.skip("no shared memory on this host")
        name, _spans = publish_block([b"x"])
        unlink_block(name)
        unlink_block(name)  # second call is a no-op
        assert _no_shm_leaks()

    def test_attach_after_unlink_raises(self):
        if not shared_memory_available():
            pytest.skip("no shared memory on this host")
        name, spans = publish_block([b"payload"])
        unlink_block(name)
        with pytest.raises(SharedMemoryError):
            read_shared_block(name, *spans[0])


class TestBlockNaming:
    def test_blocks_are_named_under_the_process_prefix(self):
        if not shared_memory_available():
            pytest.skip("no shared memory on this host")
        prefix = run_prefix()
        assert prefix.startswith(block_prefix())
        plain, _ = publish_block([b"a"])
        scoped, _ = publish_block([b"b"], prefix)
        try:
            assert plain.startswith(block_prefix())
            assert scoped.startswith(prefix)
            # 31 bytes with the leading "/" is the tightest POSIX limit.
            assert len(scoped) < 31
            assert linked_blocks(prefix) == [scoped]
        finally:
            unlink_block(plain)
            unlink_block(scoped)
        assert _no_shm_leaks()

    def test_sweep_unlinks_only_its_prefix(self):
        if not shared_memory_available():
            pytest.skip("no shared memory on this host")
        mine, theirs = run_prefix(), run_prefix()
        lost = [publish_block([bytes([i])], mine)[0] for i in range(3)]
        kept, _ = publish_block([b"kept"], theirs)
        try:
            assert sweep_blocks(mine) == sorted(lost)
            assert linked_blocks(mine) == []
            assert linked_blocks(theirs) == [kept]
            for name in lost:
                with pytest.raises(SharedMemoryError):
                    read_shared_block(name, 0, 1)
        finally:
            unlink_block(kept)
        assert _no_shm_leaks()

    def test_foreign_blocks_are_not_this_process_trees(self):
        if not shared_memory_available():
            pytest.skip("no shared memory on this host")
        # A default-named block, as a crashed unrelated run would leave.
        decoy = shared_memory.SharedMemory(create=True, size=8)
        try:
            assert decoy.name not in linked_blocks(block_prefix())
            assert _no_shm_leaks()
            assert sweep_blocks(block_prefix()) == []
            assert decoy.name in linked_blocks("psm_")
        finally:
            decoy.close()
            decoy.unlink()

    def test_no_shm_directory_lists_nothing(self, monkeypatch):
        monkeypatch.setattr(
            "repro.storage.shm.SHM_DIRECTORY", SHM_DIRECTORY + "/no-such-dir"
        )
        assert linked_blocks("psm_") == []
        assert sweep_blocks("psm_") == []


class TestSharedSegmentArena:
    def test_handles_roundtrip(self):
        if not shared_memory_available():
            pytest.skip("no shared memory on this host")
        segments = [_segment(i) for i in range(3)]
        handles = tuple(SegmentHandle.from_segment(s) for s in segments)
        with SharedSegmentArena(handles) as arena:
            assert arena.name.startswith(block_prefix())
            assert len(arena.handles) == len(handles)
            for handle, segment in zip(arena.handles, segments):
                assert handle.shm_name == arena.name
                loaded = handle.load()
                assert loaded.to_bytes() == segment.to_bytes()
                assert handle.load_counts() == segment_counts_from_bytes(
                    segment.to_bytes()
                )
        assert arena.closed
        assert _no_shm_leaks()

    def test_close_is_idempotent(self):
        if not shared_memory_available():
            pytest.skip("no shared memory on this host")
        handles = (SegmentHandle.from_segment(_segment()),)
        arena = SharedSegmentArena(handles)
        arena.close()
        arena.close()
        assert _no_shm_leaks()

    def test_publish_segments_passthrough_without_payloads(self, tmp_path):
        segment = _segment()
        path = segment.write(tmp_path / "seg.bin")
        handles = (SegmentHandle.from_path(segment, path),)
        arena, out = publish_segments(handles)
        assert arena is None
        assert out == handles


class TestSegmentHandleShapes:
    def test_exactly_one_shape_required(self):
        with pytest.raises(StorageError):
            SegmentHandle(segment_id=0, num_columns=5)
        with pytest.raises(StorageError):
            SegmentHandle(
                segment_id=0,
                num_columns=5,
                payload=b"x",
                shm_name="psm_x",
                shm_size=1,
            )

    def test_load_counts_from_payload(self):
        segment = _segment()
        handle = SegmentHandle.from_segment(segment)
        assert handle.load_counts() == segment_counts_from_bytes(
            segment.to_bytes()
        )

    def test_load_counts_from_path(self, tmp_path):
        segment = _segment()
        path = segment.write(tmp_path / "seg.bin")
        handle = SegmentHandle.from_path(segment, path)
        assert handle.load_counts() == segment_counts_from_bytes(
            segment.to_bytes()
        )
