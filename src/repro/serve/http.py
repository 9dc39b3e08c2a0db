"""Asyncio HTTP/1.1 + SSE front end over a :class:`~repro.serve.app.ServeApp`.

The production serving path (DESIGN.md §15): one event loop, one
``asyncio.start_server`` listener, no framework — stdlib only.  Three
endpoints:

* ``POST /query`` — one JSON algebra expression in, the evaluation
  payload out, through :meth:`~repro.serve.app.ServeApp.query` and
  rendered by :func:`~repro.serve.render.render_json` (the bytes of
  ``json.dumps(..., indent=2, default=str)``, which is also what
  ``repro query --expr`` prints);
* ``GET /stats`` — index shape + journal + serve counters + resilience;
* ``GET /subscribe?expr=<urlencoded JSON>[&events=enter,exit,update]``
  — Server-Sent-Events: a ``hello`` frame naming the subscription, one
  ``notification`` frame per standing-query transition, and a final
  ``shutdown`` frame when the server drains.

Concurrency model: queries evaluate against a pinned immutable snapshot
on the event loop; commits (the follow task or an embedding caller via
:meth:`BackgroundServer.refresh`) also run on the loop, so the app's
write path is serialised without any lock while readers scale with
connections, not threads.

Graceful shutdown (SIGTERM/SIGINT): stop accepting, answer new requests
on kept-alive connections with 503, let in-flight requests finish,
close every SSE stream with an ``event: shutdown`` frame, then close
the remaining idle connections — a ``repro supervise`` restart never
drops a client mid-response.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional, Set, Union

from repro import faults
from repro.exceptions import AlgebraError, HistoryError, ServiceError
from repro.serve.app import ServeApp
from repro.serve.render import render_json
from repro.serve.standing import Notification

#: Endpoint paths served by the async front end.
ENDPOINTS = ("/query", "/stats", "/subscribe")

#: Reason phrases for the status codes this server emits.
_STATUS_PHRASES = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    503: "Service Unavailable",
}

#: Sentinel pushed into subscriber queues when the server drains.
_SHUTDOWN = object()

#: Upper bound on request body size (same spirit as the 64 KiB line cap).
_MAX_BODY = 8 * 1024 * 1024


@dataclass
class Request:
    """One parsed HTTP/1.1 request."""

    method: str
    path: str
    query: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


def _sse_frame(event: str, payload: Dict[str, object]) -> bytes:
    data = json.dumps(payload, sort_keys=True)
    return f"event: {event}\ndata: {data}\n\n".encode("utf-8")


class AsyncHistoryServer:
    """The asyncio listener: request parsing, routing, SSE, shutdown."""

    def __init__(
        self,
        app: ServeApp,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        follow_interval: Optional[float] = None,
    ) -> None:
        self._app = app
        self._host = host
        self._port = port
        self._follow_interval = follow_interval
        self._server: Optional[asyncio.AbstractServer] = None
        self._follow_task: Optional[asyncio.Task] = None
        self._terminated = asyncio.Event()
        self._draining = False
        self._inflight = 0
        self._sse_queues: Dict[str, "asyncio.Queue[object]"] = {}
        self._connections: Set[asyncio.StreamWriter] = set()
        #: Responses abandoned because the client hung up mid-write.
        self.dropped_connections = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def app(self) -> ServeApp:
        return self._app

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        return self._port

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> None:
        """Bind the listener (``port=0`` picks a free port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port, backlog=4096
        )
        sockets = self._server.sockets or []
        if sockets:
            self._port = sockets[0].getsockname()[1]
        if self._follow_interval is not None:
            self._follow_task = asyncio.create_task(self._follow())

    async def wait_terminated(self) -> None:
        """Block until a shutdown has fully drained."""
        await self._terminated.wait()

    async def _follow(self) -> None:
        """Poll the journal for cross-process appends (``--follow``)."""
        assert self._follow_interval is not None
        while not self._draining:
            await asyncio.sleep(self._follow_interval)
            if self._draining:
                break
            try:
                self._app.refresh()
            except HistoryError:
                # Malformed or mid-compaction journal input: keep serving
                # the snapshot we have.  A failed poll leaves the tail's
                # cursor where it was, so the next tick reads it again.
                continue

    async def shutdown(
        self, reason: str = "shutdown", drain_timeout: float = 5.0
    ) -> None:
        """Drain and stop: the SIGTERM path (idempotent)."""
        if self._draining:
            return
        self._draining = True
        if self._follow_task is not None:
            self._follow_task.cancel()
            try:
                await self._follow_task
            except (asyncio.CancelledError, Exception):
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Every SSE stream gets a final shutdown frame before its
        # connection closes — subscribers learn the stream ended cleanly.
        for queue in list(self._sse_queues.values()):
            queue.put_nowait((_SHUTDOWN, reason))
        deadline = asyncio.get_running_loop().time() + drain_timeout
        while (self._inflight > 0 or self._sse_queues) and (
            asyncio.get_running_loop().time() < deadline
        ):
            await asyncio.sleep(0.01)
        for writer in list(self._connections):
            writer.close()
        self._terminated.set()

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                if request.method == "GET" and request.path == "/subscribe":
                    await self._handle_subscribe(request, writer)
                    break
                self._inflight += 1
                try:
                    keep_alive = await self._respond(request, writer)
                finally:
                    self._inflight -= 1
                if not keep_alive:
                    break
        except (
            ConnectionError,
            BrokenPipeError,
            TimeoutError,
            asyncio.IncompleteReadError,
        ):
            self.dropped_connections += 1
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError, OSError):
                pass

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader) -> Optional[Request]:
        """Parse one request; ``None`` ends the connection unanswered.

        Anything that leaves the request's end in doubt — a malformed
        start line, a line over the stream limit, a ``Content-Length``
        that is not a plain decimal or is sent twice, any
        ``Transfer-Encoding`` — ends the connection: reading on would
        take body bytes for the next request.
        """
        try:
            start_line = await reader.readline()
        except (ValueError, ConnectionError):
            return None
        try:
            method, target, _version = start_line.decode("latin-1").split()
        except ValueError:  # also the empty read of a closed connection
            return None
        headers: Dict[str, str] = {}
        while True:
            try:
                raw = await reader.readline()
            except ValueError:  # a header line over the stream limit
                return None
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length" and name in headers:
                return None
            headers[name] = value.strip()
            if len(headers) > 256:
                return None
        if "transfer-encoding" in headers:
            return None
        raw_length = headers.get("content-length", "0")
        if not (raw_length.isascii() and raw_length.isdigit()):
            return None
        length = int(raw_length)
        if length > _MAX_BODY:
            return None
        path, _, query = target.partition("?")
        body = await reader.readexactly(length) if length else b""
        return Request(method, path, query, headers, body)

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        payload: Dict[str, object],
        status: int = 200,
        keep_alive: bool = True,
    ) -> None:
        body = render_json(payload)
        faults.trip("http.response", ConnectionResetError)
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {status} {_STATUS_PHRASES.get(status, 'OK')}\r\n"
            f"Content-Type: application/json; charset=utf-8\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    async def _respond(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> bool:
        if self._draining:
            await self._send_json(
                writer,
                {
                    "error": "server is draining; retry against the restarted instance",
                    "code": "draining",
                },
                status=503,
                keep_alive=False,
            )
            return False
        keep_alive = request.keep_alive
        if request.method == "POST" and request.path == "/query":
            await self._handle_query(request, writer, keep_alive)
            return keep_alive
        if request.method == "GET" and request.path == "/stats":
            await self._send_json(
                writer, self._stats_payload(), keep_alive=keep_alive
            )
            return keep_alive
        if request.path in ENDPOINTS:
            await self._send_json(
                writer,
                {
                    "error": (
                        f"method {request.method} is not supported on "
                        f"{request.path!r}"
                    ),
                    "code": "method-not-allowed",
                    "endpoints": ENDPOINTS,
                },
                status=405,
                keep_alive=keep_alive,
            )
            return keep_alive
        await self._send_json(
            writer,
            {
                "error": f"unknown endpoint {request.path!r}",
                "code": "unknown-endpoint",
                "endpoints": ENDPOINTS,
            },
            status=404,
            keep_alive=keep_alive,
        )
        return keep_alive

    def _stats_payload(self) -> Dict[str, object]:
        payload = self._app.stats()
        payload["resilience"] = {"dropped_connections": self.dropped_connections}
        serve = payload.get("serve")
        if isinstance(serve, dict):
            serve["draining"] = self._draining
        return payload

    async def _handle_query(
        self, request: Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> None:
        try:
            expression = (
                json.loads(request.body.decode("utf-8")) if request.body else None
            )
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            await self._send_json(
                writer,
                {
                    "error": f"request body is not valid JSON: {exc}",
                    "code": "invalid-json",
                },
                status=400,
                keep_alive=keep_alive,
            )
            return
        if expression is None:
            await self._send_json(
                writer,
                {
                    "error": "empty request body; POST one JSON algebra expression",
                    "code": "invalid-json",
                },
                status=400,
                keep_alive=keep_alive,
            )
            return
        try:
            payload = self._app.query(expression)
        except AlgebraError as exc:
            await self._send_json(
                writer,
                {"error": str(exc), "code": exc.code, "path": exc.path},
                status=400,
                keep_alive=keep_alive,
            )
            return
        except (HistoryError, ServiceError) as exc:
            await self._send_json(
                writer,
                {"error": str(exc), "code": "bad-query"},
                status=400,
                keep_alive=keep_alive,
            )
            return
        await self._send_json(writer, payload, keep_alive=keep_alive)

    # ------------------------------------------------------------------ #
    # SSE subscriptions
    # ------------------------------------------------------------------ #
    async def _handle_subscribe(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> None:
        from urllib.parse import parse_qs

        if self._draining:
            await self._send_json(
                writer,
                {
                    "error": "server is draining; retry against the restarted instance",
                    "code": "draining",
                },
                status=503,
                keep_alive=False,
            )
            return
        params = parse_qs(request.query)
        raw_expr = params.get("expr", [None])[0]
        if raw_expr is None:
            await self._send_json(
                writer,
                {
                    "error": (
                        "missing required parameter 'expr' "
                        "(a urlencoded JSON algebra expression)"
                    ),
                    "code": "bad-query",
                },
                status=400,
                keep_alive=False,
            )
            return
        try:
            expression = json.loads(raw_expr)
        except json.JSONDecodeError as exc:
            await self._send_json(
                writer,
                {
                    "error": f"parameter 'expr' is not valid JSON: {exc}",
                    "code": "invalid-json",
                },
                status=400,
                keep_alive=False,
            )
            return
        events = tuple(
            part
            for value in params.get("events", ["enter,exit"])
            for part in value.split(",")
            if part
        )
        queue: "asyncio.Queue[object]" = asyncio.Queue()
        try:
            subscription = self._app.subscribe(
                expression, events=events, sink=queue.put_nowait
            )
        except (AlgebraError, ServiceError, HistoryError) as exc:
            code = exc.code if isinstance(exc, AlgebraError) else "bad-query"
            await self._send_json(
                writer,
                {"error": str(exc), "code": code},
                status=400,
                keep_alive=False,
            )
            return
        self._sse_queues[subscription] = queue
        snapshot = self._app.index.current
        try:
            head = (
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: text/event-stream\r\n"
                "Cache-Control: no-cache\r\n"
                "Connection: close\r\n"
                "\r\n"
            ).encode("latin-1")
            writer.write(head)
            writer.write(
                _sse_frame(
                    "hello",
                    {
                        "subscription": subscription,
                        "events": list(events),
                        "last_slide": snapshot.last_slide_id,
                        "generation": snapshot.generation,
                    },
                )
            )
            await writer.drain()
            while True:
                item = await queue.get()
                if isinstance(item, tuple) and item and item[0] is _SHUTDOWN:
                    writer.write(_sse_frame("shutdown", {"reason": item[1]}))
                    await writer.drain()
                    break
                assert isinstance(item, Notification)
                writer.write(_sse_frame("notification", item.as_dict()))
                await writer.drain()
        finally:
            self._app.unsubscribe(subscription)
            self._sse_queues.pop(subscription, None)


# ---------------------------------------------------------------------- #
# runners
# ---------------------------------------------------------------------- #
def serve_async(
    path: Union[str, Path],
    host: str = "127.0.0.1",
    port: int = 8765,
    *,
    follow_interval: Optional[float] = 1.0,
    warm_dir: Optional[Union[str, Path]] = None,
    on_bound: Optional[Callable[[AsyncHistoryServer], None]] = None,
) -> None:
    """Open a journal directory and serve it until SIGTERM/SIGINT (CLI path).

    On graceful shutdown the current index snapshot is sealed under
    ``warm_dir`` (when given), so the *next* start hydrates warm.
    """
    asyncio.run(
        _serve_async(
            Path(path),
            host,
            port,
            follow_interval=follow_interval,
            warm_dir=warm_dir,
            on_bound=on_bound,
        )
    )


async def _serve_async(
    path: Path,
    host: str,
    port: int,
    *,
    follow_interval: Optional[float],
    warm_dir: Optional[Union[str, Path]],
    on_bound: Optional[Callable[[AsyncHistoryServer], None]],
) -> None:
    app = ServeApp.from_directory(path, warm_dir=warm_dir)
    server = AsyncHistoryServer(app, host, port, follow_interval=follow_interval)
    await server.start()
    loop = asyncio.get_running_loop()
    for signum, name in ((signal.SIGTERM, "sigterm"), (signal.SIGINT, "sigint")):
        try:
            loop.add_signal_handler(
                signum,
                lambda reason=name: asyncio.ensure_future(
                    server.shutdown(reason=reason)
                ),
            )
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-main thread / platform without signal support
    if on_bound is not None:
        on_bound(server)
    await server.wait_terminated()
    if warm_dir is not None:
        app.seal_warm(warm_dir)


class BackgroundServer:
    """An :class:`AsyncHistoryServer` on a daemon thread (tests and bench).

    Runs the event loop in a background thread and exposes thread-safe
    entry points: :meth:`refresh` submits a commit pass to the loop (so
    the app's write path stays loop-serialised) and :meth:`stop` drains
    exactly like SIGTERM would.
    """

    def __init__(
        self,
        app: ServeApp,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        follow_interval: Optional[float] = None,
    ) -> None:
        self._app = app
        self._host = host
        self._port = port
        self._follow_interval = follow_interval
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self.server: Optional[AsyncHistoryServer] = None

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        assert self.server is not None, "BackgroundServer not started"
        return self.server.port

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10):
            raise RuntimeError("BackgroundServer failed to start within 10s")
        return self

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.server = AsyncHistoryServer(
            self._app,
            self._host,
            self._port,
            follow_interval=self._follow_interval,
        )
        await self.server.start()
        self._started.set()
        await self.server.wait_terminated()

    def _submit(self, coro: "asyncio.Future[object]") -> object:
        assert self._loop is not None, "BackgroundServer not started"
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout=30)  # type: ignore[arg-type]

    def refresh(self) -> int:
        """Commit the journal suffix on the server's loop; records indexed."""

        async def _refresh() -> int:
            return self._app.refresh()

        return self._submit(_refresh())  # type: ignore[return-value]

    def stop(self, reason: str = "shutdown") -> None:
        if (
            self.server is not None
            and self._loop is not None
            and not self._loop.is_closed()
        ):
            coro = self.server.shutdown(reason=reason)
            try:
                self._submit(coro)
            except RuntimeError:  # pragma: no cover - loop already gone
                coro.close()
        if self._thread is not None:
            self._thread.join(timeout=10)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


__all__ = [
    "ENDPOINTS",
    "AsyncHistoryServer",
    "BackgroundServer",
    "Request",
    "serve_async",
]
