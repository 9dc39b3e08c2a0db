"""Pattern-history subsystem (DESIGN.md §10).

The miner answers "what is frequent in the *current* window"; this package
retains those answers.  A :class:`~repro.history.journal.PatternJournal`
holds one sealed :class:`~repro.history.journal.SlideRecord` per window
slide (memory or disk backend, mirroring the §3 segment design);
:class:`~repro.history.journal.DiskJournal` is the one journal writer and
:class:`~repro.history.journal.JournalTail` the one reader.  Queries
over the journal are expressions of the composable algebra of
:mod:`repro.history.algebra` (DESIGN.md §13): predicates over journalled
rows compiled to posting-list plans under a cost-based planner.  The
index they run against is the snapshot-swapped
:class:`~repro.serve.index.JournalIndex`;
``JournalIndex(records).current`` is the plain index, and :class:`~repro.serve.app.ServeApp` is the library facade.
"""

from repro.history import algebra
from repro.history.journal import (
    DiskJournal,
    JournalTail,
    MemoryJournal,
    PatternJournal,
    RetentionPolicy,
    SlideRecord,
    SlideSealer,
    open_journal,
)

__all__ = [
    "SlideRecord",
    "SlideSealer",
    "PatternJournal",
    "MemoryJournal",
    "DiskJournal",
    "JournalTail",
    "RetentionPolicy",
    "open_journal",
    "algebra",
]
