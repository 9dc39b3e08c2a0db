"""Unit tests for the pattern journal: records, serialisation, backends,
and the one reader's behaviour on hostile input."""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import EXIT_INPUT_ERROR, main
from repro.exceptions import HistoryError
from repro.history.journal import (
    COMPACT_FORMAT,
    COMPACT_MARKER_NAME,
    DATA_NAME,
    JOURNAL_FORMAT,
    LOG_NAME,
    MANIFEST_NAME,
    RECORD_MAGIC,
    DiskJournal,
    JournalTail,
    MemoryJournal,
    SlideRecord,
    open_journal,
    truncate_journal,
)
from repro.serve.app import ServeApp


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


# ---------------------------------------------------------------------- #
# one reader: hostile input and "a reader never writes"
# ---------------------------------------------------------------------- #
#: The records of the pristine journal the hostile inputs are cut from.
WRITTEN = [
    make_record(0, timings={"mine_s": 0.1}),
    make_record(1, patterns=((("x",), 9), (("x", "y"), 2))),
    make_record(2, patterns=((("a",), 4), (("b",), 3), (("a", "b"), 3))),
    make_record(5, patterns=((("q",), 1),)),
]
WRITTEN_BYTES = [record.to_bytes() for record in WRITTEN]


def write_journal(path, records=WRITTEN):
    journal = DiskJournal(path)
    for record in records:
        journal.append(record)
    journal.close()
    return path


def pristine_files():
    with tempfile.TemporaryDirectory() as scratch:
        path = write_journal(Path(scratch) / "journal")
        return {
            name: (path / name).read_bytes() for name in (MANIFEST_NAME, DATA_NAME, LOG_NAME)
        }


PRISTINE = pristine_files()


def sizes(path):
    return {child.name: child.stat().st_size for child in sorted(path.iterdir())}


def assert_prefix(records):
    """The records read back are a prefix of those written, byte for byte."""
    got = [record.to_bytes() for record in records]
    assert got == WRITTEN_BYTES[: len(got)]


def read_three_ways(files, truncate_to):
    """The follower, ``truncate_journal`` and the writer's open over
    ``files``: each returns a prefix of the records written or raises
    ``HistoryError``; the follower leaves every file as it found it."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "journal"
        path.mkdir()
        for name, payload in files.items():
            (path / name).write_bytes(payload)
        before = {child.name: child.read_bytes() for child in path.iterdir()}
        try:
            assert_prefix(JournalTail(path).poll())
        except HistoryError:
            pass
        assert {child.name: child.read_bytes() for child in path.iterdir()} == before
        writer_path = Path(scratch) / "writer"
        shutil.copytree(path, writer_path)
        try:
            assert_prefix(DiskJournal(writer_path).records())
        except HistoryError:
            pass
        try:
            kept, _ = truncate_journal(path, truncate_to)
        except HistoryError:
            return
        records = DiskJournal(path).records()
        assert len(records) == kept
        assert_prefix(records)


class TestHostileInput:
    """Any cut or single-byte change gives a prefix of the records written
    or a clean ``HistoryError`` — never a wrong answer, never a traceback."""

    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from([LOG_NAME, DATA_NAME]),
        fraction=st.floats(min_value=0.0, max_value=1.0),
        truncate_to=st.sampled_from([-1, 0, 1, 2, 5]),
    )
    def test_any_truncation(self, name, fraction, truncate_to):
        files = dict(PRISTINE)
        files[name] = files[name][: int(len(files[name]) * fraction)]
        read_three_ways(files, truncate_to)

    @settings(max_examples=300, deadline=None)
    @given(
        position=st.integers(min_value=0, max_value=len(PRISTINE[LOG_NAME]) - 1),
        value=st.integers(min_value=0, max_value=255),
        truncate_to=st.sampled_from([-1, 0, 1, 2, 5]),
    )
    def test_any_single_byte_change_in_the_log(self, position, value, truncate_to):
        log = bytearray(PRISTINE[LOG_NAME])
        log[position] = value
        read_three_ways(dict(PRISTINE, **{LOG_NAME: bytes(log)}), truncate_to)

    MALFORMED = [
        '{"slide_id": 99}',
        "[1,2]",
        '{"slide_id": 9, "offset": "x", "length": 10}',
        '{"slide_id": 9, "offset": -5, "length": 10}',
    ]

    @pytest.mark.parametrize("line", MALFORMED)
    def test_malformed_log_line_is_a_history_error(self, tmp_path, line, capsys):
        path = write_journal(tmp_path / "journal")
        tail = JournalTail(path)
        assert len(tail.poll()) == len(WRITTEN)
        with open(path / LOG_NAME, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        with pytest.raises(HistoryError):
            tail.poll()
        with pytest.raises(HistoryError):
            JournalTail(path).poll()
        with pytest.raises(HistoryError):
            DiskJournal(path)
        with pytest.raises(HistoryError):
            truncate_journal(path, 1)
        capsys.readouterr()
        assert main(["query", str(path)]) == EXIT_INPUT_ERROR
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["exit_code"] == EXIT_INPUT_ERROR
        assert "cannot open journal" in error["error"]

    def test_entry_pointing_at_another_record_is_caught(self, tmp_path):
        path = write_journal(tmp_path / "journal")
        lines = (path / LOG_NAME).read_text(encoding="utf-8").splitlines()
        first, second = json.loads(lines[0]), json.loads(lines[1])
        second.update(offset=first["offset"], length=first["length"])
        lines[1] = json.dumps(second, sort_keys=True)
        (path / LOG_NAME).write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(HistoryError, match="points at the record of slide 0"):
            JournalTail(path).poll()


class TestReadersNeverWrite:
    def test_reader_open_between_data_flush_and_log_line(self, tmp_path):
        """A writer flushed a payload but not yet its log line when a
        reader opened: the reader must leave the payload where it is."""
        path = tmp_path / "journal"
        journal = DiskJournal(path)
        for record in WRITTEN[:2]:
            journal.append(record)
        seen = []

        class PausingLog:
            """The writer's log handle, opening a reader before each line."""

            def __init__(self, handle):
                self.handle = handle

            def write(self, text):
                app = ServeApp.from_directory(path)
                seen.append(app.index.current.slide_ids())
                return self.handle.write(text)

            def flush(self):
                self.handle.flush()

            def close(self):
                self.handle.close()

        journal._log_handle = PausingLog(journal._log_handle)
        journal.append(WRITTEN[2])
        journal.close()
        assert seen == [[0, 1]]
        reopened = DiskJournal(path)
        assert [record.to_bytes() for record in reopened.records()] == WRITTEN_BYTES[:3]
        reopened.append(WRITTEN[3])
        reopened.close()
        assert_prefix(DiskJournal(path).records())
        assert len(DiskJournal(path)) == len(WRITTEN)

    def test_reader_open_leaves_an_orphan_tail_and_a_torn_line(self, tmp_path):
        path = write_journal(tmp_path / "journal", WRITTEN[:2])
        with open(path / DATA_NAME, "ab") as handle:
            handle.write(WRITTEN[2].to_bytes())
        with open(path / LOG_NAME, "a", encoding="utf-8") as handle:
            handle.write('{"slide_id": 2, "off')
        before = sizes(path)
        app = ServeApp.from_directory(path)
        assert app.index.current.slide_ids() == [0, 1]
        assert app.refresh() == 0
        assert sizes(path) == before
        # The writer's open is the one that drops both.
        assert DiskJournal(path).slide_ids() == [0, 1]
        assert sizes(path)[DATA_NAME] == sum(map(len, WRITTEN_BYTES[:2]))

    def test_reader_open_resolves_a_compaction_marker_in_memory(self, tmp_path):
        path = write_journal(tmp_path / "journal")
        entries = [
            json.loads(line)
            for line in (path / LOG_NAME).read_text(encoding="utf-8").splitlines()
        ]
        base = entries[2]["offset"]
        data = (path / DATA_NAME).read_bytes()
        # The crash window between the data swap and the log swap.
        (path / DATA_NAME).write_bytes(data[base:])
        marker = {
            "format": COMPACT_FORMAT,
            "data_size_before": len(data),
            "base_offset": base,
            "keep_first_slide_id": 2,
        }
        (path / COMPACT_MARKER_NAME).write_text(json.dumps(marker))
        before = sizes(path)
        app = ServeApp.from_directory(path)
        assert app.index.current.slide_ids() == [2, 5]
        assert [r.slide_id for r in JournalTail(path).poll()] == [2, 5]
        assert sizes(path) == before
        assert (path / COMPACT_MARKER_NAME).exists()
        # The writer settles it on disk, to the same records.
        assert DiskJournal(path).slide_ids() == [2, 5]
        assert not (path / COMPACT_MARKER_NAME).exists()

    def test_failed_poll_is_retried_from_the_same_cursor(self, tmp_path):
        path = write_journal(tmp_path / "journal", WRITTEN[:2])
        tail = JournalTail(path)
        assert len(tail.poll()) == 2
        size = (path / DATA_NAME).stat().st_size
        payload = WRITTEN[2].to_bytes()
        entry = {"slide_id": 2, "offset": size, "length": len(payload), "timings": {}}
        # A log line whose payload is not (yet) in journal.dat ...
        with open(path / LOG_NAME, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
        with pytest.raises(HistoryError, match="beyond"):
            tail.poll()
        # ... is read again, not skipped, once the bytes are there.
        with open(path / DATA_NAME, "ab") as handle:
            handle.write(payload)
        assert [record.to_bytes() for record in tail.poll()] == [payload]

    def test_follower_cursor_starts_at_the_log_end(self, tmp_path):
        path = write_journal(tmp_path / "journal", WRITTEN[:3])
        app = ServeApp.from_directory(path)
        assert app.pending_records() == []
        writer = open_journal(path)
        writer.append(WRITTEN[3])
        writer.close()
        assert [r.slide_id for r in app.pending_records()] == [5]
