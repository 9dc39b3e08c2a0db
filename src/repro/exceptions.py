"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by the library derive from :class:`ReproError`, so callers
can catch a single base class.  More specific subclasses communicate the failing
subsystem (storage, stream, mining, datasets, linked data).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class GraphError(ReproError):
    """Raised for malformed graphs, edges, or vertex identifiers."""


class EdgeRegistryError(GraphError):
    """Raised when an edge label cannot be resolved or registered."""


class StreamError(ReproError):
    """Raised for invalid stream, batch, or sliding-window operations."""


class WindowError(StreamError):
    """Raised when a sliding window is used inconsistently (e.g. empty slide)."""


class IngestError(StreamError):
    """Raised when the parallel ingestion pipeline is misused or inconsistent."""


class StorageError(ReproError):
    """Raised for errors in on-disk structures (DSMatrix, DSTable, DSTree files)."""


class DSMatrixError(StorageError):
    """Raised for DSMatrix-specific failures (bad boundaries, corrupt files)."""


class DSTableError(StorageError):
    """Raised for DSTable-specific failures (broken pointer chains)."""


class DSTreeError(StorageError):
    """Raised for DSTree-specific failures (inconsistent per-batch counts)."""


class MiningError(ReproError):
    """Raised when a mining algorithm is configured or invoked incorrectly."""


class InvalidSupportError(MiningError):
    """Raised when a minimum-support threshold is not a positive value."""


class ParallelMiningError(MiningError):
    """Raised when sharded mining produces inconsistent or unmergeable results."""


class HistoryError(ReproError):
    """Raised by the pattern-history journal and its query engine."""


class AlgebraError(HistoryError):
    """Raised for a malformed pattern-history algebra expression.

    Carries the dotted ``path`` of the offending node (``"$"`` is the
    expression root, e.g. ``"$.select.where.and[1].contains"``) so the
    service front ends can point a client at exactly what to fix, and a
    stable machine-readable ``code`` for structured JSON errors.
    """

    code = "malformed-expression"

    def __init__(self, message: str, path: str = "$") -> None:
        super().__init__(message)
        self.path = path


class ResilienceError(ReproError):
    """Raised when a failure policy is configured incorrectly."""


class FaultSpecError(ResilienceError):
    """Raised when a fault-injection plan string cannot be parsed."""


class InjectedWorkerCrash(ResilienceError):
    """Raised by a ``crash`` fault firing in the coordinating process.

    In a real worker process the crash action hard-kills the process
    (``os._exit``), which surfaces to the coordinator as
    ``BrokenProcessPool``.  The in-process execution mode cannot kill the
    interpreter the caller lives in, so the same fault raises this
    exception instead; the execution engine treats it exactly like broken
    pool infrastructure — retry under the failure policy — so the two
    modes exercise the same recovery ladder.
    """


class CheckpointError(ReproError):
    """Raised when a miner checkpoint cannot be sealed, loaded or resumed."""


class ServiceError(ReproError):
    """Raised when the history serving front end is configured incorrectly."""


class ServeError(ServiceError):
    """Raised when the async serving subsystem (repro.serve) is misused."""


class DatasetError(ReproError):
    """Raised by dataset generators and file readers."""


class LinkedDataError(ReproError):
    """Raised by the linked-data (RDF triple) subsystem."""


class ParseError(LinkedDataError):
    """Raised when an N-Triples document cannot be parsed."""
