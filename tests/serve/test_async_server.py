"""The asyncio front end: byte parity, SSE push, graceful shutdown."""

import asyncio
import json
import logging
import socket
from http.client import HTTPConnection

import pytest

from repro.history.journal import MemoryJournal
from repro.serve.app import ServeApp, evaluate_expression
from repro.serve.http import BackgroundServer
from repro.serve.loadgen import sse_collect
from repro.serve.index import JournalIndex
from repro.serve.render import render_json

from serve_helpers import mined_journal


def post(port, body, path="/query"):
    connection = HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request("POST", path, body, {"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.read(), dict(response.getheaders())
    finally:
        connection.close()


def get(port, path):
    connection = HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def raw_exchange(port, payload):
    """Send raw bytes on one connection; every byte the server answers."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(payload)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


@pytest.fixture()
def server():
    """One server over the first three slides; the rest are live."""
    source = mined_journal()
    prefix = list(source.records()[:3])
    live = list(source.records()[3:])
    journal = MemoryJournal()
    for record in prefix:
        journal.append(record)
    app = ServeApp.from_journal(journal)
    background = BackgroundServer(app).start()
    yield {
        "async_port": background.port,
        "app": app,
        "background": background,
        "committed": prefix,
        "live": live,
    }
    background.stop()


QUERIES = [
    {"select": {"where": {"contains": ["a"]}}},
    {"select": {"where": {"or": [{"contains": ["a"]}, {"contains": ["c"]}]}}},
    {"top_k": {"k": 5}},
    {"history": {"items": ["a"]}},
]


class TestByteParity:
    def test_answers_byte_identical_including_mid_stream(self, server):
        rounds = 0
        while True:
            # The reference: a cold build over the committed prefix.
            cold = JournalIndex(server["committed"]).current
            for expression in QUERIES:
                status, body, _ = post(server["async_port"], json.dumps(expression))
                assert status == 200
                assert body == render_json(evaluate_expression(expression, cold))
            if not server["live"]:
                break
            # Commit one live slide and re-check — queries interleaved
            # with slide commits must answer like a cold build.
            record = server["live"].pop(0)
            server["app"].journal.append(record)
            server["background"].refresh()
            server["committed"].append(record)
            rounds += 1
        assert rounds >= 2, "fixture had no live slides; mid-stream leg skipped"

    def test_error_payloads_byte_identical(self, server):
        bad_bodies = [
            (b"", "invalid-json"),
            (b"not json", "invalid-json"),
            (json.dumps({"select": {}}).encode("utf-8"), "malformed-expression"),
            (json.dumps({"nope": {}}).encode("utf-8"), "malformed-expression"),
        ]
        for body, code in bad_bodies:
            status, answer, _ = post(server["async_port"], body)
            assert status == 400
            assert answer == render_json(json.loads(answer))
            assert json.loads(answer)["code"] == code


class TestRequestFraming:
    """A request whose end is in doubt ends the connection unanswered."""

    SMUGGLED = b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n"

    @pytest.mark.parametrize(
        "framing",
        [
            b"Content-Length: abc\r\n",
            b"Content-Length: +5\r\n",
            b"Transfer-Encoding: chunked\r\n",
            b"Content-Length: 32\r\nContent-Length: 0\r\n",
        ],
        ids=["non-numeric-length", "signed-length", "transfer-encoding", "repeated-length"],
    )
    def test_ambiguous_body_framing_is_not_read_as_a_second_request(
        self, server, framing
    ):
        port = server["async_port"]
        request = b"POST /query HTTP/1.1\r\nHost: x\r\n" + framing + b"\r\n"
        answered = raw_exchange(port, request + self.SMUGGLED)
        # No response at all: in particular, no 200 for the body bytes
        # parsed as a smuggled ``GET /stats``.
        assert answered == b""
        status, _ = get(port, "/stats")
        assert status == 200

    def test_oversized_header_line_ends_the_connection_cleanly(
        self, server, caplog
    ):
        port = server["async_port"]
        request = (
            b"GET /stats HTTP/1.1\r\nX-Padding: "
            + b"a" * (70 * 1024)
            + b"\r\n\r\n"
        )
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            assert raw_exchange(port, request) == b""
            # The next connection is served — and by the time it is, the
            # loop has run any callback the first handler's exit queued.
            status, body = get(port, "/stats")
            assert status == 200
            assert json.loads(body)["slides"] == 3
        assert [record.getMessage() for record in caplog.records] == []


class TestEndpoints:
    def test_stats_carries_serve_section(self, server):
        status, body = get(server["async_port"], "/stats")
        assert status == 200
        payload = json.loads(body)
        assert payload["resilience"] == {"dropped_connections": 0}
        serve = payload["serve"]
        assert serve["snapshot_swaps"] >= 1
        assert serve["draining"] is False
        assert serve["warm_start"] == {
            "hydrated_slide": None,
            "cold_records_indexed": 3,
        }

    def test_unknown_endpoint_404(self, server):
        status, body = get(server["async_port"], "/nope")
        assert status == 404
        payload = json.loads(body)
        assert payload["code"] == "unknown-endpoint"
        assert payload["endpoints"] == ["/query", "/stats", "/subscribe"]

    def test_method_not_allowed_405(self, server):
        status, body, _ = post(server["async_port"], b"{}", path="/stats")
        assert status == 405
        assert json.loads(body)["code"] == "method-not-allowed"

    def test_subscribe_requires_expr(self, server):
        status, body = get(server["async_port"], "/subscribe")
        assert status == 400
        assert json.loads(body)["code"] == "bad-query"

    def test_subscribe_rejects_history_shape(self, server):
        from urllib.parse import quote

        expr = quote(json.dumps({"history": {"items": ["a"]}}))
        status, body = get(
            server["async_port"], f"/subscribe?expr={expr}"
        )
        assert status == 400
        assert b"history is a curve" in body


class TestSSE:
    def test_hello_notification_shutdown_stream(self):
        # An evolving stream: the item mix shifts mid-way so standing
        # queries actually observe enter/exit/update transitions.
        evolving = (
            [("a",), ("b",), ("a", "b")] * 12
            + [("a",), ("c",), ("a", "c")] * 12
            + [("c",), ("d",), ("c", "d")] * 12
        )
        source = mined_journal(transactions=evolving)
        records = list(source.records())
        journal = MemoryJournal()
        for record in records[:3]:
            journal.append(record)
        app = ServeApp.from_journal(journal)
        background = BackgroundServer(app).start()
        try:
            expression = {"top_k": {"k": 10}}

            async def drive():
                collector = asyncio.create_task(
                    sse_collect(
                        "127.0.0.1",
                        background.port,
                        expression,
                        events="enter,exit,update",
                        timeout=15.0,
                    )
                )
                loop = asyncio.get_running_loop()

                def wait_subscribed():
                    import time

                    for _ in range(1000):
                        if app.subscriptions():
                            return
                        time.sleep(0.005)
                    raise AssertionError("subscription never registered")

                await loop.run_in_executor(None, wait_subscribed)

                def commit_then_stop():
                    for record in records[3:]:
                        journal.append(record)
                        background.refresh()
                    background.stop(reason="test-shutdown")

                await loop.run_in_executor(None, commit_then_stop)
                return await collector

            frames = asyncio.run(drive())
        finally:
            background.stop()
        kinds = [event for event, _ in frames]
        assert kinds[0] == "hello"
        assert kinds[-1] == "shutdown"
        assert frames[-1][1] == {"reason": "test-shutdown"}
        hello = frames[0][1]
        assert hello["subscription"].startswith("sub-")
        assert hello["last_slide"] == records[2].slide_id
        notifications = [data for event, data in frames if event == "notification"]
        assert notifications, "no standing-query pushes observed"
        # Pushed notifications carry the full transition shape.
        for data in notifications:
            assert set(data) == {
                "subscription",
                "slide",
                "event",
                "items",
                "support",
                "previous_support",
            }
        # The subscriber is dropped once its stream closes.
        assert app.subscriptions() == {}

    def test_stats_counts_notifications(self):
        journal = mined_journal()
        app = ServeApp.from_journal(journal)
        received = []
        app.subscribe({"top_k": {"k": 5}}, events=("enter", "exit"), sink=received.append)
        stats = app.stats()["serve"]
        assert stats["subscribers"] == 1
        assert stats["subscribers_total"] == 1


class TestGracefulShutdown:
    def test_shutdown_is_idempotent_and_drains(self):
        journal = mined_journal()
        app = ServeApp.from_journal(journal)
        background = BackgroundServer(app).start()
        port = background.port
        status, body, _ = post(port, json.dumps({"top_k": {"k": 3}}))
        assert status == 200
        background.stop()
        background.stop()  # second stop is a no-op
        with pytest.raises(OSError):
            post(port, json.dumps({"top_k": {"k": 3}}))
