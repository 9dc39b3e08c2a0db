"""Tiered retention of a DiskJournal: hot trim, warm compaction, cold archive,
crash recovery."""

import json

import pytest

from repro.exceptions import HistoryError
from repro.history.journal import (
    ARCHIVE_NAME,
    COMPACT_FORMAT,
    COMPACT_MARKER_NAME,
    DATA_NAME,
    LOG_NAME,
    DiskJournal,
    JournalTail,
    RetentionPolicy,
    SlideRecord,
    summarise_record,
    truncate_journal,
)


def make_record(slide_id=0, patterns=None, **overrides):
    fields = {
        "slide_id": slide_id,
        "first_batch": max(0, slide_id - 2),
        "last_batch": slide_id,
        "num_columns": 30,
        "minsup": 3,
        "patterns": patterns
        if patterns is not None
        else ((("a",), 7 + slide_id), (("a", "b"), 4)),
        "timings": {},
    }
    fields.update(overrides)
    return SlideRecord(**fields)


class TestRetentionPolicy:
    def test_validation(self):
        with pytest.raises(HistoryError):
            RetentionPolicy(hot_slides=0)
        with pytest.raises(HistoryError):
            RetentionPolicy(warm_slides=0)
        with pytest.raises(HistoryError):
            RetentionPolicy(cold_sample_every=0)

    def test_defaults_disable_the_bounds(self):
        policy = RetentionPolicy()
        assert policy.hot_slides is None
        assert policy.warm_slides is None


def hot(slides):
    return RetentionPolicy(hot_slides=slides)


class TestHotTier:
    """``hot_slides`` is the max-resident bound on in-memory records."""

    def test_max_resident_bounds_the_in_memory_records(self, tmp_path):
        journal = DiskJournal(tmp_path / "j", hot(3))
        for slide in range(8):
            journal.append(make_record(slide))
        assert [r.slide_id for r in journal.records()] == [5, 6, 7]
        assert len(journal) == 8  # len() counts every slide, not the resident ones
        journal.close()
        # The trimmed records are still on disk — an unbounded reopen
        # serves all of them.
        reopened = DiskJournal(tmp_path / "j")
        assert [r.slide_id for r in reopened.records()] == list(range(8))
        reopened.close()

    def test_max_resident_applies_on_reopen(self, tmp_path):
        journal = DiskJournal(tmp_path / "j")
        for slide in range(6):
            journal.append(make_record(slide))
        journal.close()
        reopened = DiskJournal(tmp_path / "j", hot(2))
        assert [r.slide_id for r in reopened.records()] == [4, 5]
        reopened.close()

    def test_max_resident_must_be_positive(self, tmp_path):
        with pytest.raises(HistoryError):
            DiskJournal(tmp_path / "j", hot(0))


class TestCompaction:
    def test_compact_retires_the_oldest_and_rebases(self, tmp_path):
        journal = DiskJournal(tmp_path / "j")
        for slide in range(7):
            journal.append(make_record(slide))
        aged_ids = []
        retired = journal.compact(
            3, on_aged=lambda aged: aged_ids.extend(r.slide_id for r, _ in aged)
        )
        assert retired == 4
        assert aged_ids == [0, 1, 2, 3]
        journal.close()
        reopened = DiskJournal(tmp_path / "j")
        assert [r.slide_id for r in reopened.records()] == [4, 5, 6]
        # Offsets were rebased: the kept bytes start at 0 again.
        first = json.loads((tmp_path / "j" / LOG_NAME).read_text().splitlines()[0])
        assert first["offset"] == 0
        # Appends continue after a compaction.
        reopened.append(make_record(7))
        assert reopened.last_slide_id == 7
        reopened.close()

    def test_compact_below_threshold_is_a_no_op(self, tmp_path):
        journal = DiskJournal(tmp_path / "j")
        for slide in range(3):
            journal.append(make_record(slide))
        assert journal.compact(5) == 0
        journal.close()

    def test_marker_crash_before_data_swap_abandons(self, tmp_path):
        journal = DiskJournal(tmp_path / "j")
        for slide in range(5):
            journal.append(make_record(slide))
        journal.close()
        size = (tmp_path / "j" / DATA_NAME).stat().st_size
        marker = {
            "format": COMPACT_FORMAT,
            "data_size_before": size,
            "base_offset": 100,
            "keep_first_slide_id": 3,
        }
        (tmp_path / "j" / COMPACT_MARKER_NAME).write_text(json.dumps(marker))
        reopened = DiskJournal(tmp_path / "j")
        # Nothing was swapped yet, so the attempt is abandoned whole.
        assert [r.slide_id for r in reopened.records()] == list(range(5))
        assert not (tmp_path / "j" / COMPACT_MARKER_NAME).exists()
        reopened.close()

    def test_marker_crash_between_swaps_completes_the_log(self, tmp_path):
        journal = DiskJournal(tmp_path / "j")
        for slide in range(5):
            journal.append(make_record(slide))
        journal.close()
        directory = tmp_path / "j"
        entries = [
            json.loads(line)
            for line in (directory / LOG_NAME).read_text().splitlines()
        ]
        base = entries[3]["offset"]
        data = (directory / DATA_NAME).read_bytes()
        # Simulate the crash window: data already swapped, log still old.
        (directory / DATA_NAME).write_bytes(data[base:])
        marker = {
            "format": COMPACT_FORMAT,
            "data_size_before": len(data),
            "base_offset": base,
            "keep_first_slide_id": 3,
        }
        (directory / COMPACT_MARKER_NAME).write_text(json.dumps(marker))
        reopened = DiskJournal(directory)
        assert [r.slide_id for r in reopened.records()] == [3, 4]
        assert not (directory / COMPACT_MARKER_NAME).exists()
        reopened.close()

    def test_unrecoverable_marker_state_raises(self, tmp_path):
        journal = DiskJournal(tmp_path / "j")
        for slide in range(5):
            journal.append(make_record(slide))
        journal.close()
        directory = tmp_path / "j"
        marker = {
            "format": COMPACT_FORMAT,
            "data_size_before": 10_000_000,
            "base_offset": 100,
            "keep_first_slide_id": 3,
        }
        (directory / COMPACT_MARKER_NAME).write_text(json.dumps(marker))
        with pytest.raises(HistoryError, match="unrecoverable"):
            DiskJournal(directory)


class TestTieredJournal:
    """A DiskJournal with a retention policy: bounded hot/warm tiers plus the
    cold archive."""

    def tiered(self, tmp_path, **policy):
        return DiskJournal(tmp_path / "j", RetentionPolicy(**policy))

    def test_warm_overflow_archives_then_compacts(self, tmp_path):
        journal = self.tiered(tmp_path, warm_slides=4, cold_sample_every=3)
        for slide in range(10):
            journal.append(make_record(slide))
        assert journal.warm_count == 4
        assert journal.cold_count == 6
        assert len(journal) == 10
        assert [r.slide_id for r in journal.records()][-4:] == [6, 7, 8, 9]
        cold = journal.cold_records()
        assert [entry["slide_id"] for entry in cold] == list(range(6))
        # Aggregates on every line; full pattern maps only on sampled ids.
        assert all(entry["pattern_count"] == 2 for entry in cold)
        assert [e["slide_id"] for e in cold if "patterns" in e] == [0, 3]
        assert cold[3]["max_support"] == 10  # slide 3's top support
        journal.close()

    def test_sampled_lines_keep_the_full_pattern_map(self):
        line = summarise_record(make_record(0), sample_every=1)
        assert line["patterns"] == {"a": 7, "a b": 4}
        sparse = summarise_record(make_record(1), sample_every=2)
        assert "patterns" not in sparse

    def test_reopen_restores_both_tiers(self, tmp_path):
        journal = self.tiered(tmp_path, warm_slides=3)
        for slide in range(8):
            journal.append(make_record(slide))
        journal.close()
        reopened = self.tiered(tmp_path, warm_slides=3)
        assert reopened.warm_count == 3
        assert reopened.cold_count == 5
        assert len(reopened) == 8
        # Appending continues the slide sequence and keeps compacting.
        reopened.append(make_record(8))
        assert reopened.warm_count == 3
        assert reopened.cold_count == 6
        reopened.close()

    def test_archive_deduplicates_on_re_aged_records(self, tmp_path):
        # A journal holding slides 0-3, not yet compacted ...
        plain = DiskJournal(tmp_path / "j")
        for slide in range(4):
            plain.append(make_record(slide))
        plain.close()
        # ... whose previous compaction attempt archived slides 0-1 but
        # crashed before the file swap (the attempt was abandoned, the
        # archive lines stayed — the §12 archive-then-swap crash window).
        archive = tmp_path / "j" / ARCHIVE_NAME
        with open(archive, "w", encoding="utf-8") as handle:
            for slide in range(2):
                handle.write(
                    json.dumps(
                        summarise_record(make_record(slide), 10), sort_keys=True
                    )
                    + "\n"
                )
        journal = self.tiered(tmp_path, warm_slides=2)
        assert journal.cold_count == 2
        # The next overflow re-ages slides 0-2; 0-1 must not re-archive.
        journal.append(make_record(4))
        lines = archive.read_text().splitlines()
        assert [json.loads(line)["slide_id"] for line in lines] == [0, 1, 2]
        assert journal.cold_count == 3
        journal.close()

    def test_hot_bound_flows_through_to_the_disk_journal(self, tmp_path):
        journal = self.tiered(tmp_path, hot_slides=2)
        for slide in range(6):
            journal.append(make_record(slide))
        assert [r.slide_id for r in journal.records()] == [4, 5]
        assert len(journal) == 6  # every slide still counted
        journal.close()

    def test_disk_size_includes_the_archive(self, tmp_path):
        journal = self.tiered(tmp_path, warm_slides=2)
        for slide in range(6):
            journal.append(make_record(slide))
        with_archive = journal.disk_size_bytes()
        archive_size = (tmp_path / "j" / ARCHIVE_NAME).stat().st_size
        assert archive_size > 0
        assert with_archive > archive_size
        journal.close()

    def test_corrupt_archive_line_is_a_clean_error(self, tmp_path):
        journal = self.tiered(tmp_path, warm_slides=2)
        for slide in range(4):
            journal.append(make_record(slide))
        journal.close()
        archive = tmp_path / "j" / ARCHIVE_NAME
        archive.write_text(archive.read_text() + "{not json\n")
        with pytest.raises(HistoryError, match="corrupt archive"):
            self.tiered(tmp_path, warm_slides=2)

    def test_follower_sees_every_slide_once_across_compactions(self, tmp_path):
        journal = self.tiered(tmp_path, warm_slides=2)
        tail = JournalTail(tmp_path / "j")
        seen = []
        for slide in range(8):
            journal.append(make_record(slide))
            seen.extend(record.slide_id for record in tail.poll())
        assert seen == list(range(8))
        assert [r.slide_id for r in JournalTail(tmp_path / "j").poll()] == [6, 7]
        journal.close()

    def test_follower_detects_a_log_rewritten_under_its_cursor(self, tmp_path):
        # A compacted-and-appended log may reuse the old file's inode and be
        # longer than the follower's cursor: the follower must notice that
        # the line before its cursor changed, not read on from the cursor.
        followed = DiskJournal(tmp_path / "followed")
        for slide in range(4):
            followed.append(make_record(slide))
        followed.close()
        tail = JournalTail(tmp_path / "followed")
        assert [r.slide_id for r in tail.poll()] == [0, 1, 2, 3]
        rewritten = DiskJournal(tmp_path / "rewritten")
        for slide in range(4):
            rewritten.append(make_record(slide))
        rewritten.compact(2)
        for slide in range(4, 8):
            rewritten.append(make_record(slide))
        rewritten.close()
        for name in (DATA_NAME, LOG_NAME):
            payload = (tmp_path / "rewritten" / name).read_bytes()
            with open(tmp_path / "followed" / name, "r+b") as handle:  # same inode
                handle.truncate(0)
                handle.write(payload)
        assert [r.slide_id for r in tail.poll()] == [4, 5, 6, 7]
        assert tail.poll() == []

    def test_truncate_after_compaction_uses_slide_ids(self, tmp_path):
        journal = self.tiered(tmp_path, warm_slides=4)
        for slide in range(10):
            journal.append(make_record(slide))
        journal.close()
        # Offsets were rebased by compaction; rollback is keyed by slide
        # id, so it still lands exactly on the requested record.
        kept, size = truncate_journal(tmp_path / "j", 7)
        assert kept == 2  # slides 6 and 7 remain of the warm tier
        reopened = DiskJournal(tmp_path / "j")
        assert [r.slide_id for r in reopened.records()] == [6, 7]
        assert reopened.data_size == size
        reopened.close()
