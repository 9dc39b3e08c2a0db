"""Async multi-client serving: sharded snapshot reads + standing-query push.

The production serving subsystem (DESIGN.md §15, bench E15).  The
posting-list index is partitioned by item hash into shards; every slide
commit publishes a new immutable :class:`~repro.serve.shards.IndexSnapshot`
swapped in atomically, so readers never block on the writer and never
observe a half-applied slide.  Standing queries (PR-8 algebra ASTs) are
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
from repro.serve.loadgen import LoadReport, run_load, sse_collect
from repro.serve.shards import (
    DEFAULT_SHARDS,
    IndexShard,
    IndexSnapshot,
    ShardedJournalIndex,
    shard_of,
)
from repro.serve.standing import (
    EVENT_KINDS,
    Notification,
    StandingQuery,
    diff_rows,
    poll_oracle,
)
from repro.serve.warm import JournalTail, read_journal_suffix

__all__ = [
    "AsyncHistoryServer",
    "BackgroundServer",
    "DEFAULT_SHARDS",
    "ENDPOINTS",
    "EVENT_KINDS",
    "IndexShard",
    "IndexSnapshot",
    "JournalTail",
    "LoadReport",
    "Notification",
    "ServeApp",
    "ShardedJournalIndex",
    "Sink",
    "StandingQuery",
    "diff_rows",
    "poll_oracle",
    "read_journal_suffix",
    "run_load",
    "serve_async",
    "shard_of",
    "sse_collect",
]
