"""``repro serve --follow`` with spans around the app's public calls.

Usage::

    python3 perfbench/traced_server.py JOURNAL_DIR --follow 0.02 --spans OUT.json

Serves exactly like the CLI (``repro.serve.http.serve_async``: the journal
opened with ``ServeApp.from_directory``, an ``AsyncHistoryServer`` with the
given follow interval, SIGTERM drains) and, once bound, wraps ``query``,
``refresh``, ``pending_records`` and ``index.extend`` on that app.  The
spans are written to ``--spans`` after the drain.  Index-extend spans carry
the slide id as their trace id; query spans carry the query's sequence
number.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import ensure_source  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("journal")
    parser.add_argument("--follow", type=float, required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()
    ensure_source()
    from repro.serve.http import serve_async

    tracer = Tracer()

    def instrument(server) -> None:
        app = server.app
        query = app.query
        extend = app.index.extend

        def traced_query(*call_args, **kwargs):
            index = tracer.open("serve.query")
            try:
                return query(*call_args, **kwargs)
            finally:
                tracer.close(index)
                tracer.trace_id += 1

        def traced_extend(records):
            records = list(records)
            saved = tracer.trace_id
            tracer.trace_id = records[-1].slide_id if records else saved
            index = tracer.open("serve.index_extend")
            try:
                return extend(records)
            finally:
                tracer.close(index)
                tracer.trace_id = saved

        app.query = traced_query
        app.index.extend = traced_extend
        tracer.wrap(app, "refresh", "serve.refresh")
        tracer.wrap(app, "pending_records", "history.tail_poll")
        print(f"serving {args.journal} on http://{server.host}:{server.port}", flush=True)

    serve_async(args.journal, port=0, follow_interval=args.follow, on_bound=instrument)
    tracer.dump(Path(args.spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
