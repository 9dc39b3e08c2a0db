"""Async multi-client serving: snapshot-swapped reads + standing-query push.

The production serving subsystem (DESIGN.md §15, bench E15).  Every
slide commit publishes a new immutable
:class:`~repro.serve.index.IndexSnapshot` of the one posting-list index,
swapped in atomically, so readers never block on the writer and never
observe a half-applied slide.  Standing queries (algebra ASTs, DESIGN.md §13) are
re-evaluated incrementally per commit and pushed to subscribers over
Server-Sent-Events.  :class:`~repro.serve.app.ServeApp` is the one read
path: ``repro serve``, ``repro query``, the bench drivers and library
callers all evaluate through it.
"""

from repro.serve.app import ServeApp, Sink
from repro.serve.http import (
    ENDPOINTS,
    AsyncHistoryServer,
    BackgroundServer,
    serve_async,
)
from repro.serve.index import IndexSnapshot, JournalIndex
from repro.serve.loadgen import LoadReport, run_load, sse_collect
from repro.serve.standing import (
    EVENT_KINDS,
    Notification,
    StandingQuery,
    diff_rows,
    poll_oracle,
)

__all__ = [
    "AsyncHistoryServer",
    "BackgroundServer",
    "ENDPOINTS",
    "EVENT_KINDS",
    "IndexSnapshot",
    "JournalIndex",
    "LoadReport",
    "Notification",
    "ServeApp",
    "Sink",
    "StandingQuery",
    "diff_rows",
    "poll_oracle",
    "run_load",
    "serve_async",
    "sse_collect",
]
