"""Tiered journal retention: hot in-memory, warm disk, cold archive.

A long-running ``watch`` seals one record per slide forever; without
retention the journal's resident records and its on-disk data file grow
without bound.  :class:`TieredJournal` wraps a
:class:`~repro.history.journal.DiskJournal` with three tiers
(DESIGN.md §12):

* **hot** — the newest ``hot_slides`` records stay resident in memory
  (the :class:`DiskJournal` ``max_resident`` bound); older ones are
  served from disk on the next reopen, not from RAM;
* **warm** — the newest ``warm_slides`` records stay in the journal's
  data/log files with full pattern maps, byte-compatible with every
  journal consumer (query, serve, resume);
* **cold** — records aged out of the warm tier are summarised into an
  append-only ``archive.jsonl`` *before* the journal files are compacted:
  every line keeps the slide's aggregates (pattern count, max support),
  and every ``cold_sample_every``-th slide keeps its full pattern map —
  a downsampled support history whose resolution degrades with age
  instead of its cost growing without bound.

Archiving runs strictly before the compaction swap and deduplicates by
slide id, so a crash anywhere leaves either the record in the warm tier,
or in both tiers (reconciled on the next compaction) — never in neither.

Resume interplay: a checkpoint can only be resumed against a journal that
still holds its slide in the warm tier — keep ``warm_slides`` comfortably
above the checkpoint cadence.  The byte-identical-continuation guarantee
applies to the un-compacted journal contents (compaction rewrites history
by design).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.exceptions import HistoryError
from repro.history.journal import (
    LOG_NAME,
    DiskJournal,
    SlideRecord,
    _parse_log_entries,
)

#: File name of the cold-tier archive inside a journal directory.
ARCHIVE_NAME = "archive.jsonl"


@dataclass(frozen=True)
class RetentionPolicy:
    """How many slides each tier retains.

    ``None`` disables a bound: ``hot_slides=None`` keeps every record
    resident (the plain journal behaviour), ``warm_slides=None`` never
    compacts.  ``cold_sample_every`` controls the cold tier's downsampling
    — every ``k``-th slide id keeps its full pattern map.
    """

    hot_slides: Optional[int] = None
    warm_slides: Optional[int] = None
    cold_sample_every: int = 10

    def __post_init__(self) -> None:
        for name, value in (
            ("hot_slides", self.hot_slides),
            ("warm_slides", self.warm_slides),
        ):
            if value is not None and value < 1:
                raise HistoryError(f"{name} must be at least 1, got {value}")
        if self.cold_sample_every < 1:
            raise HistoryError(
                f"cold_sample_every must be at least 1, got {self.cold_sample_every}"
            )


def summarise_record(
    record: SlideRecord, sample_every: int
) -> Dict[str, object]:
    """One cold-archive line for a record (full patterns on sampled slides)."""
    summary: Dict[str, object] = {
        "slide_id": record.slide_id,
        "first_batch": record.first_batch,
        "last_batch": record.last_batch,
        "num_columns": record.num_columns,
        "minsup": record.minsup,
        "pattern_count": record.pattern_count,
        "max_support": max((support for _, support in record.patterns), default=0),
    }
    if record.slide_id % sample_every == 0:
        summary["patterns"] = {
            " ".join(items): support for items, support in record.patterns
        }
    return summary


class TieredJournal:
    """A :class:`DiskJournal` with bounded hot/warm tiers and a cold archive.

    Duck-type compatible with the journal everywhere the miner and the CLI
    need it (``append``/``records``/``record``/``last_slide_id``/``path``/
    ``data_size``/``close``); ``len()`` counts **every** slide ever
    appended (warm + cold), matching the unbounded journal's count.
    """

    kind = "tiered"

    def __init__(
        self, path: Union[str, Path], policy: Optional[RetentionPolicy] = None
    ) -> None:
        self._policy = policy if policy is not None else RetentionPolicy()
        self._journal = DiskJournal(path, max_resident=self._policy.hot_slides)
        self._path = Path(path)
        # Journal open already ran compaction-marker + orphan recovery, so
        # the log now counts exactly the warm records.
        self._warm_count = len(_parse_log_entries(self._path / LOG_NAME))
        self._cold_count, self._last_archived = self._scan_archive()

    def _scan_archive(self) -> Tuple[int, Optional[int]]:
        archive = self._path / ARCHIVE_NAME
        if not archive.exists():
            return 0, None
        count, last = 0, None
        with open(archive, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise HistoryError(
                        f"corrupt archive entry at {archive}:{line_number}"
                    ) from exc
                count += 1
                last = int(entry["slide_id"])
        return count, last

    # ------------------------------------------------------------------ #
    # appending
    # ------------------------------------------------------------------ #
    def append(self, record: SlideRecord) -> None:
        """Append one record, compacting the warm tier when it overflows."""
        self._journal.append(record)
        self._warm_count += 1
        warm = self._policy.warm_slides
        if warm is not None and self._warm_count > warm:
            self._compact(warm)

    def _compact(self, keep_last: int) -> None:
        def archive(aged: List[Tuple[SlideRecord, Dict[str, object]]]) -> None:
            # Archive-then-swap: records are summarised into the cold tier
            # before the warm files are rewritten.  A crash in between
            # re-ages the same records next time — skip already-archived
            # slide ids so the archive stays append-only and duplicate-free.
            fresh = [
                record
                for record, _ in aged
                if self._last_archived is None
                or record.slide_id > self._last_archived
            ]
            if not fresh:
                return
            with open(self._path / ARCHIVE_NAME, "a", encoding="utf-8") as handle:
                for record in fresh:
                    line = summarise_record(
                        record, self._policy.cold_sample_every
                    )
                    handle.write(json.dumps(line, sort_keys=True) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            self._cold_count += len(fresh)
            self._last_archived = fresh[-1].slide_id

        retired = self._journal.compact(keep_last, on_aged=archive)
        self._warm_count -= retired

    # ------------------------------------------------------------------ #
    # reading (delegation + cold tier)
    # ------------------------------------------------------------------ #
    @property
    def path(self) -> Path:
        """The journal directory."""
        return self._path

    @property
    def policy(self) -> RetentionPolicy:
        """The retention bounds this journal enforces."""
        return self._policy

    @property
    def archive_path(self) -> Path:
        """The cold-tier archive file (may not exist yet)."""
        return self._path / ARCHIVE_NAME

    @property
    def data_size(self) -> int:
        """Bytes currently referenced in the warm tier's ``journal.dat``."""
        return self._journal.data_size

    @property
    def failure_policy(self):  # noqa: ANN201 - mirrors PatternJournal
        """The warm tier's write-retry policy (delegated, DESIGN.md §14)."""
        return self._journal.failure_policy

    @failure_policy.setter
    def failure_policy(self, policy) -> None:  # noqa: ANN001
        self._journal.failure_policy = policy

    @property
    def resilience_events(self):  # noqa: ANN201 - mirrors PatternJournal
        """The warm tier's resilience event log (delegated)."""
        return self._journal.resilience_events

    @resilience_events.setter
    def resilience_events(self, events) -> None:  # noqa: ANN001
        self._journal.resilience_events = events

    @property
    def warm_count(self) -> int:
        """Records currently in the warm (full-fidelity, on-disk) tier."""
        return self._warm_count

    @property
    def cold_count(self) -> int:
        """Records summarised into the cold archive."""
        return self._cold_count

    @property
    def last_slide_id(self) -> Optional[int]:
        """The newest slide id, or ``None`` for an empty journal."""
        return self._journal.last_slide_id

    def records(self) -> Tuple[SlideRecord, ...]:
        """The resident (hot-tier) records, oldest first."""
        return self._journal.records()

    def records_after(self, slide_id: Optional[int]) -> List[SlideRecord]:
        """The resident records newer than ``slide_id`` (all for ``None``)."""
        return self._journal.records_after(slide_id)

    def record(self, slide_id: int) -> SlideRecord:
        """One resident record by slide id (archived slides raise)."""
        return self._journal.record(slide_id)

    def cold_records(self) -> List[Dict[str, object]]:
        """Every cold-archive summary line, oldest first."""
        archive = self._path / ARCHIVE_NAME
        if not archive.exists():
            return []
        entries: List[Dict[str, object]] = []
        with open(archive, "r", encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    entries.append(json.loads(line))
        return entries

    def disk_size_bytes(self) -> int:
        """Warm-tier files plus the cold archive."""
        total = self._journal.disk_size_bytes()
        archive = self._path / ARCHIVE_NAME
        if archive.exists():
            total += os.path.getsize(archive)
        return total

    def close(self) -> None:
        """Release the underlying journal's append handles."""
        self._journal.close()

    def __enter__(self) -> "TieredJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __len__(self) -> int:
        return self._cold_count + self._warm_count

    def __iter__(self) -> Iterator[SlideRecord]:
        return iter(self._journal.records())

    def __repr__(self) -> str:
        return (
            f"TieredJournal(warm={self._warm_count}, cold={self._cold_count}, "
            f"hot_bound={self._policy.hot_slides}, "
            f"warm_bound={self._policy.warm_slides})"
        )
