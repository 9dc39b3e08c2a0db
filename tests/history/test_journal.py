"""Unit tests for the pattern journal: records, serialisation, backends."""

import json

import pytest

from repro.exceptions import HistoryError
from repro.history.journal import (
    DATA_NAME,
    JOURNAL_FORMAT,
    LOG_NAME,
    MANIFEST_NAME,
    RECORD_MAGIC,
    DiskJournal,
    MemoryJournal,
    SlideRecord,
    open_journal,
)


def make_record(slide_id=0, patterns=None, timings=None, **overrides):
    fields = {
        "slide_id": slide_id,
        "first_batch": max(0, slide_id - 2),
        "last_batch": slide_id,
        "num_columns": 30,
        "minsup": 3,
        "patterns": patterns if patterns is not None else ((("a",), 7), (("a", "b"), 4)),
        "timings": timings or {},
    }
    fields.update(overrides)
    return SlideRecord(**fields)


class TestSlideRecord:
    def test_patterns_are_normalised_to_canonical_order(self):
        record = make_record(
            patterns=((("c", "a"), 2), (("b",), 5), (("a",), 6))
        )
        assert record.patterns == ((("a",), 6), (("b",), 5), (("a", "c"), 2))

    def test_patterns_accept_a_mapping(self):
        record = make_record(patterns={("b", "a"): 4, ("a",): 9})
        assert record.patterns == ((("a",), 9), (("a", "b"), 4))
        assert record.support_of(("a", "b")) == 4
        assert record.support_of(("z",)) is None

    def test_duplicate_patterns_rejected(self):
        with pytest.raises(HistoryError):
            make_record(patterns=((("a", "b"), 2), (("b", "a"), 3)))

    def test_invalid_fields_rejected(self):
        with pytest.raises(HistoryError):
            make_record(slide_id=-1)
        with pytest.raises(HistoryError):
            make_record(first_batch=5, last_batch=3)
        with pytest.raises(HistoryError):
            make_record(minsup=0)
        with pytest.raises(HistoryError):
            make_record(patterns=(((), 2),))

    def test_timings_do_not_affect_equality(self):
        assert make_record(timings={"mine_s": 0.5}) == make_record(
            timings={"mine_s": 99.0}
        )


class TestRecordSerialisation:
    def test_round_trip(self):
        record = make_record(
            slide_id=7,
            patterns=((("a",), 12), (("b", "c"), 5), (("a", "b", "c"), 3)),
        )
        clone = SlideRecord.from_bytes(record.to_bytes())
        assert clone == record
        assert clone.patterns == record.patterns
        assert clone.slide_id == 7

    def test_bytes_exclude_timings(self):
        with_timings = make_record(timings={"mine_s": 1.23})
        without = make_record()
        assert with_timings.to_bytes() == without.to_bytes()

    def test_round_trip_empty_pattern_set(self):
        record = make_record(patterns=())
        clone = SlideRecord.from_bytes(record.to_bytes())
        assert clone.patterns == ()
        assert clone.pattern_count == 0

    def test_round_trip_wide_symbol_table(self):
        # More than 8 items forces a multi-byte bitmask stride.
        items = [f"edge{index:02d}" for index in range(20)]
        patterns = tuple((tuple(items[i : i + 3]), 50 - i) for i in range(0, 18, 3))
        record = make_record(patterns=patterns)
        clone = SlideRecord.from_bytes(record.to_bytes())
        assert clone == record

    def test_bytes_are_deterministic(self):
        one = make_record(patterns=((("b",), 2), (("a",), 3)))
        two = make_record(patterns=((("a",), 3), (("b",), 2)))
        assert one.to_bytes() == two.to_bytes()
        assert one.to_bytes().startswith(RECORD_MAGIC)

    def test_corrupt_bytes_rejected(self):
        with pytest.raises(HistoryError):
            SlideRecord.from_bytes(b"NOPE" + b"\x00" * 16)
        truncated = make_record().to_bytes()[:-3]
        with pytest.raises(HistoryError):
            SlideRecord.from_bytes(truncated)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda header: [header],
            lambda header: {k: v for k, v in header.items() if k != "pattern_count"},
            lambda header: {**header, "slide_id": "3"},
            lambda header: {**header, "items": ["a", 1]},
            lambda header: {**header, "items": list(reversed(header["items"]))},
            lambda header: {**header, "items": [header["items"][0]] * len(header["items"])},
        ],
        ids=[
            "json-list",
            "missing-pattern-count",
            "string-slide-id",
            "non-string-item",
            "unsorted-table",
            "duplicate-table",
        ],
    )
    def test_malformed_header_rejected(self, corrupt):
        data = make_record().to_bytes()
        length = int.from_bytes(data[4:8], "little")
        header = json.loads(data[8 : 8 + length])
        encoded = json.dumps(corrupt(header)).encode("utf-8")
        bad = data[:4] + len(encoded).to_bytes(4, "little") + encoded + data[8 + length :]
        with pytest.raises(HistoryError):
            SlideRecord.from_bytes(bad)

    @pytest.mark.parametrize(
        "rows, items, message",
        [
            ([(0b11, 4), (0b01, 7)], ["a", "b"], "canonical"),
            ([(0b01, 7), (0b01, 7)], ["a", "b"], "duplicate"),
            ([(0b00, 7), (0b11, 4)], ["a", "b"], "empty"),
            ([(0b01, 7), (0b101, 4)], ["a", "b"], "outside"),
            ([(0b01, 7), (0b11, 4)], ["a", "b", "c"], "unused"),
        ],
        ids=["out-of-order", "duplicate-row", "empty-mask", "outside-table", "unused-symbol"],
    )
    def test_malformed_rows_rejected(self, rows, items, message):
        data = make_record().to_bytes()
        length = int.from_bytes(data[4:8], "little")
        header = json.loads(data[8 : 8 + length])
        encoded = json.dumps({**header, "items": items}).encode("utf-8")
        body = b"".join(
            mask.to_bytes(1, "little") + support.to_bytes(4, "little")
            for mask, support in rows
        )
        bad = data[:4] + len(encoded).to_bytes(4, "little") + encoded + body
        with pytest.raises(HistoryError, match=message):
            SlideRecord.from_bytes(bad)

    def test_timings_reattached_on_request(self):
        record = make_record()
        clone = SlideRecord.from_bytes(record.to_bytes(), timings={"mine_s": 0.25})
        assert clone.timings == {"mine_s": 0.25}
        assert clone == record


class TestMemoryJournal:
    def test_append_and_read(self):
        journal = MemoryJournal()
        journal.append(make_record(0))
        journal.append(make_record(1))
        assert len(journal) == 2
        assert journal.slide_ids() == [0, 1]
        assert journal.last_slide_id == 1
        assert journal.record(0).slide_id == 0
        assert journal.path is None
        assert journal.disk_size_bytes() == 0

    def test_append_only_ordering_enforced(self):
        journal = MemoryJournal()
        journal.append(make_record(3))
        with pytest.raises(HistoryError):
            journal.append(make_record(3))
        with pytest.raises(HistoryError):
            journal.append(make_record(1))

    def test_non_record_rejected(self):
        with pytest.raises(HistoryError):
            MemoryJournal().append({"slide_id": 0})

    def test_unknown_slide_lookup_raises(self):
        with pytest.raises(HistoryError):
            MemoryJournal().record(5)


class TestDiskJournal:
    def test_persist_and_reopen(self, tmp_path):
        journal = DiskJournal(tmp_path / "journal")
        records = [
            make_record(0, timings={"mine_s": 0.1}),
            make_record(1, patterns=((("x", "y"), 2),), timings={"mine_s": 0.2}),
        ]
        for record in records:
            journal.append(record)
        journal.close()
        # The data file is the records' deterministic bytes, concatenated.
        assert (tmp_path / "journal" / DATA_NAME).read_bytes() == b"".join(
            record.to_bytes() for record in records
        )
        reopened = open_journal(tmp_path / "journal")
        assert list(reopened.records()) == records
        # Timings travel via the log, not the record bytes.
        assert reopened.record(0).timings == {"mine_s": 0.1}
        assert reopened.timings()[1] == {"mine_s": 0.2}
        assert reopened.disk_size_bytes() > 0

    def test_appends_resume_an_existing_journal(self, tmp_path):
        path = tmp_path / "journal"
        DiskJournal(path).append(make_record(0))
        resumed = DiskJournal(path)
        resumed.append(make_record(1))
        assert open_journal(path).slide_ids() == [0, 1]
        with pytest.raises(HistoryError):
            resumed.append(make_record(0))

    def test_manifest_and_log_contents(self, tmp_path):
        journal = DiskJournal(tmp_path / "journal")
        journal.append(make_record(4, timings={"mine_s": 0.5}))
        manifest = json.loads(
            (tmp_path / "journal" / MANIFEST_NAME).read_text(encoding="utf-8")
        )
        assert manifest["format"] == JOURNAL_FORMAT
        lines = (
            (tmp_path / "journal" / LOG_NAME)
            .read_text(encoding="utf-8")
            .strip()
            .splitlines()
        )
        (entry,) = [json.loads(line) for line in lines]
        assert entry["slide_id"] == 4
        assert entry["offset"] == 0
        assert entry["length"] == (
            tmp_path / "journal" / DATA_NAME
        ).stat().st_size
        assert entry["pattern_count"] == 2
        assert entry["timings"] == {"mine_s": 0.5}

    def test_appends_never_rewrite_log_or_data(self, tmp_path):
        """The append-only contract on disk: data and log only ever grow."""
        journal = DiskJournal(tmp_path / "journal")
        journal.append(make_record(0))
        log = tmp_path / "journal" / LOG_NAME
        data = tmp_path / "journal" / DATA_NAME
        first_log = log.read_text(encoding="utf-8")
        first_data = data.read_bytes()
        journal.append(make_record(1))
        assert log.read_text(encoding="utf-8").startswith(first_log)
        assert data.read_bytes().startswith(first_data)
        assert len(log.read_text(encoding="utf-8").strip().splitlines()) == 2

    def test_corrupt_log_line_raises(self, tmp_path):
        path = tmp_path / "journal"
        DiskJournal(path).append(make_record(0))
        with open(path / LOG_NAME, "a", encoding="utf-8") as handle:
            handle.write("{not json\n")
        with pytest.raises(HistoryError):
            open_journal(path)

    def test_open_missing_journal_raises(self, tmp_path):
        with pytest.raises(HistoryError):
            open_journal(tmp_path / "missing")

    def test_path_collision_with_file_raises(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("x")
        with pytest.raises(HistoryError):
            DiskJournal(target)

    def test_corrupt_manifest_raises(self, tmp_path):
        path = tmp_path / "journal"
        path.mkdir()
        (path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(HistoryError):
            DiskJournal(path)

    def test_resume_drops_a_crash_orphan_tail(self, tmp_path):
        """A data tail with no log line (crash between the two writes) must
        not shift the offsets of post-resume appends."""
        path = tmp_path / "journal"
        journal = DiskJournal(path)
        journal.append(make_record(0, patterns=((("a",), 5),)))
        journal.close()
        # Simulate the crash: orphan record bytes flushed, log line lost.
        orphan = make_record(1, patterns=((("b",), 2),))
        with open(path / DATA_NAME, "ab") as handle:
            handle.write(orphan.to_bytes())
        resumed = DiskJournal(path)
        assert resumed.slide_ids() == [0]
        appended = make_record(1, patterns=((("c",), 7),))
        resumed.append(appended)
        resumed.close()
        reloaded = open_journal(path)
        assert reloaded.slide_ids() == [0, 1]
        # The appended record — not the orphan — is what resume returns.
        assert reloaded.record(1) == appended
        assert reloaded.record(1).patterns == ((("c",), 7),)

    def test_truncated_data_file_raises(self, tmp_path):
        path = tmp_path / "journal"
        journal = DiskJournal(path)
        journal.append(make_record(0))
        journal.close()
        data = (path / DATA_NAME).read_bytes()
        (path / DATA_NAME).write_bytes(data[:-4])
        with pytest.raises(HistoryError):
            open_journal(path)


class TestCanonicalPatterns:
    """Validation holds whether or not the input is already canonical."""

    CANONICAL = ((("a",), 6), (("b",), 5), (("a", "b"), 3), (("a", "c"), 2))

    def test_canonical_input_kept_as_is(self):
        assert make_record(patterns=self.CANONICAL).patterns == self.CANONICAL

    def test_unsorted_input_sorted(self):
        shuffled = tuple(reversed(self.CANONICAL))
        assert make_record(patterns=shuffled).patterns == self.CANONICAL
        # Item tuples out of order are sorted too, even in canonical position.
        assert make_record(patterns=((("b", "a"), 3),)).patterns == ((("a", "b"), 3),)

    @pytest.mark.parametrize("canonical", [True, False])
    def test_duplicates_rejected(self, canonical):
        patterns = ((("a",), 6), (("a", "b"), 3), (("a", "b"), 3))
        with pytest.raises(HistoryError, match="duplicate"):
            make_record(patterns=patterns if canonical else patterns[::-1])

    @pytest.mark.parametrize("canonical", [True, False])
    def test_empty_items_rejected(self, canonical):
        patterns = (((), 1), (("a",), 6), (("a", "b"), 3))
        with pytest.raises(HistoryError, match="at least one item"):
            make_record(patterns=patterns if canonical else patterns[::-1])

    @pytest.mark.parametrize("canonical", [True, False])
    def test_negative_support_rejected(self, canonical):
        patterns = ((("a",), 6), (("a", "b"), -3))
        with pytest.raises(HistoryError, match="non-negative"):
            make_record(patterns=patterns if canonical else patterns[::-1])

    def test_decoded_records_round_trip(self):
        record = make_record(patterns=self.CANONICAL)
        assert SlideRecord.from_bytes(record.to_bytes()) == record
