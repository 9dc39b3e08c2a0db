"""Unit tests for repro.storage.segments."""

import json

import pytest

from repro.exceptions import DSMatrixError
from repro.storage.dsmatrix import DSMatrix
from repro.storage.segments import Segment, read_segment_row
from repro.stream.batch import Batch


@pytest.fixture
def abc_segment():
    batch = Batch([["a", "c"], ["b"], ["a", "b", "c"]])
    return Segment.from_batch(batch, segment_id=7)


class TestConstruction:
    def test_from_batch_encodes_local_bit_patterns(self, abc_segment):
        assert abc_segment.segment_id == 7
        assert abc_segment.num_columns == 3
        assert abc_segment.row_bits("a") == 0b101
        assert abc_segment.row_bits("b") == 0b110
        assert abc_segment.row_bits("c") == 0b101

    def test_absent_item_has_zero_bits(self, abc_segment):
        assert abc_segment.row_bits("zz") == 0

    def test_item_counts_precomputed(self, abc_segment):
        assert abc_segment.item_counts() == {"a": 2, "b": 2, "c": 2}

    def test_all_zero_rows_are_dropped(self):
        segment = Segment(0, 2, {"a": 0b01, "b": 0})
        assert segment.items() == ["a"]

    def test_empty_batch(self):
        segment = Segment.from_batch(Batch([]), segment_id=0)
        assert segment.num_columns == 0
        assert segment.items() == []
        assert list(segment.transactions()) == []

    def test_rejects_overflowing_bits(self):
        with pytest.raises(DSMatrixError):
            Segment(0, 2, {"a": 0b100})

    def test_rejects_negative_columns(self):
        with pytest.raises(DSMatrixError):
            Segment(0, -1, {})


class TestReconstruction:
    def test_column_items_single_pass_is_sorted(self, abc_segment):
        assert abc_segment.column_items() == [["a", "c"], ["b"], ["a", "b", "c"]]

    def test_transactions(self, abc_segment):
        assert list(abc_segment.transactions()) == [
            ("a", "c"),
            ("b",),
            ("a", "b", "c"),
        ]

    def test_memory_bits(self, abc_segment):
        assert abc_segment.memory_bits() == 3 * 3


class TestSerialisation:
    def test_bytes_round_trip(self, abc_segment):
        restored = Segment.from_bytes(abc_segment.to_bytes())
        assert restored.segment_id == abc_segment.segment_id
        assert restored.num_columns == abc_segment.num_columns
        for item in abc_segment.items():
            assert restored.row_bits(item) == abc_segment.row_bits(item)

    def test_file_round_trip(self, abc_segment, tmp_path):
        target = abc_segment.write(tmp_path / "seg.dsg")
        restored = Segment.read(target)
        assert restored.item_counts() == abc_segment.item_counts()

    def test_empty_segment_round_trip(self, tmp_path):
        segment = Segment.from_batch(Batch([]), segment_id=3)
        restored = Segment.read(segment.write(tmp_path / "empty.dsg"))
        assert restored.num_columns == 0
        assert restored.segment_id == 3

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(DSMatrixError):
            Segment.read(tmp_path / "absent.dsg")

    def test_bad_magic(self):
        with pytest.raises(DSMatrixError):
            Segment.from_bytes(b"NOPE" + b"\x00" * 16)


class TestRowSeek:
    def test_read_segment_row_seeks_one_row(self, abc_segment, tmp_path):
        target = abc_segment.write(tmp_path / "seg.dsg")
        bits, width = read_segment_row(target, "b")
        assert (bits, width) == (0b110, 3)

    def test_read_segment_row_unknown_item(self, abc_segment, tmp_path):
        target = abc_segment.write(tmp_path / "seg.dsg")
        bits, width = read_segment_row(target, "zz")
        assert bits is None
        assert width == 3

    def test_read_segment_row_missing_file(self, tmp_path):
        with pytest.raises(DSMatrixError):
            read_segment_row(tmp_path / "absent.dsg", "a")


class TestPayloadMemoisation:
    def test_to_bytes_is_memoised(self, abc_segment):
        first = abc_segment.to_bytes()
        assert abc_segment.to_bytes() is first  # cached, not re-serialised

    def test_from_bytes_seeds_the_cache(self, abc_segment):
        data = abc_segment.to_bytes()
        restored = Segment.from_bytes(data)
        assert restored.to_bytes() == data

    def test_constructor_payload_seeds_the_cache(self):
        reference = Segment(4, 2, {"a": 0b01, "b": 0b11})
        payload = reference.to_bytes()
        seeded = Segment(4, 2, {"a": 0b01, "b": 0b11}, payload=payload)
        assert seeded.to_bytes() is payload


def _with_header(data, header):
    """``data`` (a serialised segment) with its JSON header replaced."""
    length = int.from_bytes(data[4:8], "little")
    encoded = json.dumps(header).encode("utf-8")
    return data[:4] + len(encoded).to_bytes(4, "little") + encoded + data[8 + length :]


def _without(name):
    return lambda header: {key: value for key, value in header.items() if key != name}


MALFORMED_HEADERS = [
    pytest.param(lambda header: [header], id="json-list"),
    pytest.param(_without("stride"), id="missing-stride"),
    pytest.param(_without("items"), id="missing-items"),
    pytest.param(_without("segment_id"), id="missing-segment-id"),
    pytest.param(_without("num_columns"), id="missing-num-columns"),
    pytest.param(lambda header: {**header, "stride": "1"}, id="string-stride"),
    pytest.param(lambda header: {**header, "stride": -1}, id="negative-stride"),
    pytest.param(lambda header: {**header, "num_columns": True}, id="bool-num-columns"),
    pytest.param(lambda header: {**header, "items": "ab"}, id="items-not-a-list"),
    pytest.param(lambda header: {**header, "items": [1, 2]}, id="items-not-strings"),
]


@pytest.mark.parametrize("corrupt", MALFORMED_HEADERS)
def test_malformed_segment_header_raises_dsmatrix_error(tmp_path, corrupt):
    """Every reader of a segment file rejects a header of the wrong shape."""
    directory = tmp_path / "segments"
    matrix = DSMatrix(window_size=3, path=directory)
    matrix.append_batch(Batch([["a", "b"], ["b"]]))
    matrix.append_batch(Batch([["a"], ["c"]]))
    path = directory / "seg-00000000.dsg"
    data = path.read_bytes()
    header = json.loads(data[8 : 8 + int.from_bytes(data[4:8], "little")])
    corrupted = _with_header(data, corrupt(header))
    path.write_bytes(corrupted)
    with pytest.raises(DSMatrixError):
        Segment.from_bytes(corrupted)
    with pytest.raises(DSMatrixError):
        DSMatrix.load(directory)
    with pytest.raises(DSMatrixError):
        DSMatrix.row_from_disk(directory, "a")
