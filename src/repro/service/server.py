"""HTTP front end: the pattern journal behind a ``ThreadingHTTPServer``.

Endpoints (all JSON):

* ``POST /query`` — the composable query algebra (DESIGN.md §13): the
  request body is one JSON-serialised expression (``select`` / ``top_k``
  / ``history`` over containment, support, slide-range and provenance
  predicates), the response carries the result plus the planner's
  ``explain`` payload;
* ``GET /patterns?items=a,b[&mode=super|sub|exact][&slide=N]`` —
  *deprecated* pattern match (a canned ``select`` plan);
* ``GET /history?items=a,b`` — *deprecated* support-over-time +
  first/last-frequent (a canned ``history`` plan);
* ``GET /topk[?k=10][&slide=N]`` — *deprecated* highest-support patterns
  of one slide (a canned ``top_k`` plan);
* ``GET /stats`` — journal shape summary.

The deprecated GET endpoints answer exactly as before (their canned
plans are byte-identical) but carry a ``Deprecation: true`` header plus
a ``Sunset-Hint`` pointing at the ``POST /query`` replacement, and emit
a :class:`DeprecationWarning` server-side.

Threading model: ``ThreadingHTTPServer`` spawns one daemon thread per
connection; every handler only *reads* the shared
:class:`~repro.service.api.HistoryService`, whose index is immutable
between refreshes, so concurrent readers need no locking.  Errors never
leak a traceback to a client — they come back as structured JSON
``{"error", "code"}`` objects (plus the offending node ``path`` for
malformed algebra expressions), 400 for bad queries, 404 for unknown
paths.

Failure behaviour (DESIGN.md §14): a client that hangs up mid-response
(``ConnectionResetError``/``BrokenPipeError``) must never take a handler
thread down with a traceback or affect any other connection — the drop is
counted on :attr:`HistoryHTTPServer.dropped_connections` (surfaced under
``resilience`` in ``GET /stats``) and the connection is closed.  The
``http.response`` fault site injects exactly that drop for chaos runs.
"""

from __future__ import annotations

import json
import signal
import threading
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from repro import faults
from repro.exceptions import AlgebraError, HistoryError, ServiceError
from repro.history.journal import open_journal
from repro.service.api import HistoryService
from repro.service.render import render_json

#: Endpoint paths served by the front end.
ENDPOINTS = ("/query", "/patterns", "/history", "/topk", "/stats")

#: Deprecated GET endpoints -> the algebra shape that replaces each.
DEPRECATED_ENDPOINTS = {
    "/patterns": 'POST /query {"select": {"where": ...}}',
    "/history": 'POST /query {"history": {"items": [...]}}',
    "/topk": 'POST /query {"top_k": {"k": ...}}',
}

#: Sunset hint stamped on *every* response when the whole threaded front
#: end runs as the compatibility fallback (``repro serve --legacy``).
LEGACY_SUNSET_HINT = "repro serve (async sharded front end, repro.serve)"


class HistoryHTTPServer(ThreadingHTTPServer):
    """One thread per request over a shared read-only :class:`HistoryService`."""

    daemon_threads = True  # readers never block shutdown
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], service: HistoryService) -> None:
        super().__init__(address, HistoryRequestHandler)
        self.service = service
        #: Responses abandoned because the client hung up mid-write.
        self.dropped_connections = 0
        #: When True (``repro serve --legacy``) every response carries a
        #: ``Deprecation`` header pointing at the async replacement.
        self.legacy_mode = False

    def handle_error(self, request: object, client_address: object) -> None:
        """Connection drops are counted, not dumped as tracebacks.

        Anything else keeps the default stderr report — a genuine handler
        bug should stay loud — but never propagates past the handler
        thread (``ThreadingHTTPServer`` already guarantees that).
        """
        import sys

        exc = sys.exc_info()[1]
        if isinstance(exc, (ConnectionError, BrokenPipeError, TimeoutError)):
            self.dropped_connections += 1
            return
        super().handle_error(request, client_address)


class HistoryRequestHandler(BaseHTTPRequestHandler):
    """Route requests onto the shared :class:`HistoryService`."""

    server_version = "repro-history/2.0"

    # ------------------------------------------------------------------ #
    # request plumbing
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - stdlib handler naming
        parts = urlsplit(self.path)
        params = parse_qs(parts.query)
        try:
            payload = self._dispatch(parts.path, params)
        except AlgebraError as exc:
            self._send_json(
                {"error": str(exc), "code": exc.code, "path": exc.path}, status=400
            )
            return
        except (HistoryError, ServiceError, ValueError) as exc:
            self._send_json({"error": str(exc), "code": "bad-query"}, status=400)
            return
        if payload is None:
            self._send_json(
                {
                    "error": f"unknown endpoint {parts.path!r}",
                    "code": "unknown-endpoint",
                    "endpoints": ENDPOINTS,
                },
                status=404,
            )
            return
        replacement = DEPRECATED_ENDPOINTS.get(parts.path)
        if replacement is not None:
            warnings.warn(
                f"GET {parts.path} is deprecated; use {replacement}",
                DeprecationWarning,
                stacklevel=2,
            )
            self._send_json(
                payload,
                headers={"Deprecation": "true", "Sunset-Hint": replacement},
            )
            return
        self._send_json(payload)

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler naming
        parts = urlsplit(self.path)
        if parts.path != "/query":
            self._send_json(
                {
                    "error": f"unknown endpoint {parts.path!r} (POST serves /query)",
                    "code": "unknown-endpoint",
                    "endpoints": ENDPOINTS,
                },
                status=404,
            )
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        body = self.rfile.read(length) if length > 0 else b""
        try:
            expression = json.loads(body.decode("utf-8")) if body else None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_json(
                {"error": f"request body is not valid JSON: {exc}", "code": "invalid-json"},
                status=400,
            )
            return
        if expression is None:
            self._send_json(
                {
                    "error": "empty request body; POST one JSON algebra expression",
                    "code": "invalid-json",
                },
                status=400,
            )
            return
        service: HistoryService = self.server.service  # type: ignore[attr-defined]
        try:
            payload = service.query(expression)
        except AlgebraError as exc:
            self._send_json(
                {"error": str(exc), "code": exc.code, "path": exc.path}, status=400
            )
            return
        except (HistoryError, ServiceError) as exc:
            self._send_json({"error": str(exc), "code": "bad-query"}, status=400)
            return
        self._send_json(payload)

    def _dispatch(
        self, path: str, params: Dict[str, List[str]]
    ) -> Optional[Dict[str, object]]:
        service: HistoryService = self.server.service  # type: ignore[attr-defined]
        if path == "/patterns":
            return service.patterns(
                self._items(params),
                slide=self._int(params, "slide"),
                mode=self._str(params, "mode", "super"),
            )
        if path == "/history":
            return service.history(self._items(params))
        if path == "/topk":
            k = self._int(params, "k", 10)
            return service.topk(
                k=10 if k is None else k,
                slide=self._int(params, "slide"),
            )
        if path == "/stats":
            payload = service.stats()
            server: HistoryHTTPServer = self.server  # type: ignore[assignment]
            payload["resilience"] = {
                "dropped_connections": server.dropped_connections
            }
            return payload
        return None

    # ------------------------------------------------------------------ #
    # parameter parsing
    # ------------------------------------------------------------------ #
    @staticmethod
    def _items(params: Dict[str, List[str]]) -> List[str]:
        raw = params.get("items", [])
        items = [item for value in raw for item in value.split(",") if item]
        if not items:
            raise ServiceError("missing required parameter 'items' (e.g. items=a,b)")
        return items

    @staticmethod
    def _int(
        params: Dict[str, List[str]], name: str, default: Optional[int] = None
    ) -> Optional[int]:
        values = params.get(name)
        if not values:
            return default
        try:
            return int(values[0])
        except ValueError:
            raise ServiceError(f"parameter {name!r} must be an integer") from None

    @staticmethod
    def _str(params: Dict[str, List[str]], name: str, default: str) -> str:
        values = params.get(name)
        return values[0] if values else default

    # ------------------------------------------------------------------ #
    # response plumbing
    # ------------------------------------------------------------------ #
    def _send_json(
        self,
        payload: Dict[str, object],
        status: int = 200,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = render_json(payload)
        server: HistoryHTTPServer = self.server  # type: ignore[assignment]
        merged: Dict[str, str] = {}
        if server.legacy_mode:
            # The whole front end is the fallback: stamp every response,
            # but let a per-endpoint Sunset-Hint (the deprecated GETs)
            # keep its more specific replacement text.
            merged["Deprecation"] = "true"
            merged["Sunset-Hint"] = LEGACY_SUNSET_HINT
        merged.update(headers or {})
        try:
            faults.trip("http.response", ConnectionResetError)
            self.send_response(status)
            self.send_header("Content-Type", "application/json; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            for name, value in merged.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except (ConnectionError, BrokenPipeError, TimeoutError):
            # The client hung up mid-response.  There is nobody left to
            # answer; count the drop and close this connection without
            # touching any other handler thread.
            server.dropped_connections += 1
            self.close_connection = True

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        """Silence the default per-request stderr logging."""


def build_server(
    service: HistoryService, host: str = "127.0.0.1", port: int = 0
) -> HistoryHTTPServer:
    """Bind a threaded history server (``port=0`` picks a free port).

    The caller owns the lifecycle: ``serve_forever()`` to run,
    ``shutdown()``/``server_close()`` to stop — which is what the tests do
    to exercise concurrent readers against an ephemeral port.
    """
    return HistoryHTTPServer((host, port), service)


def serve_journal(
    path: Union[str, Path],
    host: str = "127.0.0.1",
    port: int = 8765,
    on_bound: Optional[Callable[[HistoryHTTPServer], None]] = None,
    legacy: bool = False,
) -> None:
    """Open a journal directory and serve it until interrupted (the CLI path).

    ``on_bound`` is invoked once with the bound server before the loop
    starts — the hook the CLI uses to announce the actual address (which
    matters with ``port=0``).  Ctrl-C and SIGTERM both stop the loop
    *gracefully*: the listener closes first, then in-flight handler
    threads are joined so no client is dropped mid-response.  The opened
    journal is closed on every exit path (including a failed bind), so a
    dying serve process never leaks the journal's append handles.

    ``legacy=True`` marks this threaded front end as the compatibility
    fallback behind ``repro serve --legacy``: a server-side
    ``DeprecationWarning`` at startup and ``Deprecation``/``Sunset-Hint``
    headers on every response (matching the per-endpoint shim discipline
    of the deprecated GET routes).
    """
    if legacy:
        warnings.warn(
            "the threaded front end is a compatibility fallback; "
            f"use {LEGACY_SUNSET_HINT}",
            DeprecationWarning,
            stacklevel=2,
        )
    journal = open_journal(path)
    try:
        service = HistoryService(journal)
        server = build_server(service, host=host, port=port)
        server.legacy_mode = legacy
        # Graceful drain: handler threads are joined on server_close()
        # instead of being abandoned as daemons.
        server.daemon_threads = False
        server.block_on_close = True

        def _drain(signum: int, frame: object) -> None:
            # shutdown() blocks until serve_forever() exits, so it must
            # run off the signal-handling (main) thread.
            threading.Thread(target=server.shutdown, daemon=True).start()

        try:
            previous = signal.signal(signal.SIGTERM, _drain)
        except ValueError:  # pragma: no cover - non-main thread (tests)
            previous = None
        try:
            if on_bound is not None:
                on_bound(server)
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
            if previous is not None:
                signal.signal(signal.SIGTERM, previous)
    finally:
        journal.close()
