"""Serving tests: ServeApp's library calls and the HTTP front end over them.

``TestHistoryService`` asks, through :meth:`ServeApp.query`, every question
the removed named queries asked — each as the algebra expression README's
migration table gives for it.  ``TestHTTPServer`` drives the same app
behind the asyncio front end.
"""

import json
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.miner import StreamSubgraphMiner
from repro.exceptions import AlgebraError
from repro.history import algebra
from repro.history.journal import MemoryJournal
from repro.serve.app import ServeApp
from repro.serve.http import BackgroundServer
from repro.serve.index import JournalIndex
from repro.serve.render import render_json
from repro.stream.stream import TransactionStream

from tests.helpers import (
    brute_force_sub_patterns,
    brute_force_super_patterns,
    brute_force_support_history,
)

TRANSACTIONS = [("a",), ("b",), ("a", "b"), ("c",), ("a", "c")] * 12

#: README's migration table: each removed ``repro query --query`` kind and
#: the algebra expression that answers it (``a``/``b``/``c`` items, newest
#: slide 11 for the slide-scoped ones).
MIGRATION = {
    "topk": {"top_k": {"k": 3, "where": {"slides": [11, 11]}}},
    "super": {"select": {"where": {"contains": ["a"]}}},
    "sub": {"select": {"where": {"contained_in": ["a", "b"]}}},
    "exact": {
        "select": {"where": {"and": [{"contains": ["a", "b"]}, {"contained_in": ["a", "b"]}]}}
    },
    "support-history": {"history": {"items": ["a"]}},
    "first-frequent": {"history": {"items": ["a"]}},
    "last-frequent": {"history": {"items": ["a"]}},
}


def mined(transactions):
    journal = MemoryJournal()
    miner = StreamSubgraphMiner(
        window_size=3, batch_size=5, algorithm="vertical", on_slide=journal.append
    )
    miner.watch(
        TransactionStream(transactions, batch_size=5), minsup=2, connected_only=False
    )
    return journal


@pytest.fixture(scope="module")
def journal():
    return mined(TRANSACTIONS)


@pytest.fixture(scope="module")
def service(journal):
    return ServeApp.from_journal(journal)


def at_slide(where, slide):
    return {"and": [where, {"slides": [slide, slide]}]}


def legacy_answers(records):
    """(migration-table expression, result key, what the removed endpoint
    answered) — the removed answers recomputed by plain record scans."""

    def rows(matches):
        return [
            {"slide": slide, "items": list(items), "support": support}
            for slide, items, support in matches
        ]

    last = records[-1]
    ranked = sorted(last.patterns, key=lambda row: (-row[1], len(row[0]), row[0]))
    curve = brute_force_support_history(records, ["a", "b"])
    return [
        (
            {"select": {"where": at_slide({"contains": ["a"]}, 11)}},
            "matches",
            rows(brute_force_super_patterns(records, ["a"], slide_id=11)),
        ),
        (
            {"select": {"where": at_slide({"contained_in": ["a", "b", "c"]}, 11)}},
            "matches",
            rows(brute_force_sub_patterns(records, ["a", "b", "c"], slide_id=11)),
        ),
        (
            MIGRATION["topk"],
            "matches",
            rows((last.slide_id, items, support) for items, support in ranked[:3]),
        ),
        (
            {"history": {"items": ["a", "b"]}},
            "history",
            [{"slide": slide, "support": support} for slide, support in curve],
        ),
    ]


class TestHistoryService:
    def test_patterns_super(self, service):
        payload = service.query({"select": {"where": at_slide({"contains": ["a"]}, 11)}})
        items = {tuple(match["items"]) for match in payload["matches"]}
        assert ("a",) in items and ("a", "b") in items
        assert {match["slide"] for match in payload["matches"]} == {11}
        assert payload["count"] == len(payload["matches"])

    def test_patterns_sub_and_exact(self, service):
        sub = service.query(
            {"select": {"where": at_slide({"contained_in": ["a", "b", "c"]}, 11)}}
        )
        assert sub["matches"]
        assert all(
            set(match["items"]) <= {"a", "b", "c"} for match in sub["matches"]
        )
        exact_where = MIGRATION["exact"]["select"]["where"]
        exact = service.query({"select": {"where": at_slide(exact_where, 11)}})
        assert [match["items"] for match in exact["matches"]] == [["a", "b"]]

    def test_patterns_invalid_mode_or_empty_items(self, service):
        with pytest.raises(AlgebraError):
            service.query({"select": {"where": {"bogus": ["a"]}}})
        with pytest.raises(AlgebraError):
            service.query({"select": {"where": {"contains": []}}})

    def test_history_endpoint(self, service, journal):
        payload = service.query({"history": {"items": ["a", "b"]}})
        assert len(payload["history"]) == len(journal)
        assert payload["first_frequent"] == 1
        assert payload["last_frequent"] == journal.last_slide_id
        assert payload["peak_support"] >= 2

    def test_topk_endpoint(self, service):
        payload = service.query({"top_k": {"k": 2, "where": {"slides": [11, 11]}}})
        assert payload["count"] == 2
        supports = [match["support"] for match in payload["matches"]]
        assert supports == sorted(supports, reverse=True)
        with pytest.raises(AlgebraError):
            service.query({"top_k": {"k": 0}})

    def test_stats_endpoint(self, service, journal):
        payload = service.stats()
        assert payload["slides"] == len(journal)
        assert payload["journal"]["backend"] == "memory"

    def test_run_query_dispatch(self, service):
        assert service.stats()["slides"] > 0
        assert service.query(MIGRATION["topk"])["count"] == 3
        assert service.query(MIGRATION["support-history"])["history"]
        assert service.query(MIGRATION["first-frequent"])["first_frequent"] == 0
        assert service.query(MIGRATION["last-frequent"])["last_frequent"] == 11
        assert service.query(MIGRATION["super"])["count"] > 0
        curve = service.query({"history": {"items": ["a", "b"]}})["history"]
        frequent = [point for point in curve if point["support"] > 0]
        assert service.query(MIGRATION["exact"])["count"] == len(frequent)

    def test_query_kinds_all_dispatchable(self, service):
        for expression in MIGRATION.values():
            assert service.query(expression)["explain"]["q_error"] >= 1.0

    def test_payloads_are_json_serialisable(self, service):
        for payload in [service.stats()] + [
            service.query(expression) for expression in MIGRATION.values()
        ]:
            rendered = json.dumps(payload, indent=2, default=str)
            assert render_json(payload) == rendered.encode("utf-8")


class TestAlgebraQuery:
    """POST-/query semantics exercised through the in-process API."""

    def test_select_payload_carries_explain(self, service):
        payload = service.query({"select": {"where": {"contains": ["a"]}}})
        assert payload["count"] == len(payload["matches"])
        assert payload["count"] > 0
        explain = payload["explain"]
        assert explain["shape"] == "select"
        assert explain["q_error"] >= 1.0
        assert explain["plan"][0].startswith("contains(a)")
        json.dumps(payload)

    def test_legacy_endpoints_are_canned_plans(self, service, journal):
        """Each removed endpoint's answer is its migration expression's."""
        for expression, key, expected in legacy_answers(journal.records()):
            assert service.query(expression)[key] == expected, expression

    def test_ast_input_accepted(self, service):
        from_ast = service.query(algebra.select(algebra.contains("a")))
        from_json = service.query({"select": {"where": {"contains": ["a"]}}})
        assert from_ast == from_json

    def test_malformed_expression_raises_with_path(self, service):
        with pytest.raises(AlgebraError) as excinfo:
            service.query({"select": {"where": {"bogus": []}}})
        assert excinfo.value.path == "$.select.where.bogus"
        assert excinfo.value.code == "malformed-expression"
        with pytest.raises(AlgebraError):
            service.query(["not", "an", "object"])


class TestIncrementalRefresh:
    def make_service(self, transactions):
        return ServeApp.from_journal(mined(transactions))

    def append_unseen(self, service):
        last = service.index.current.last_slide_id
        for record in mined(TRANSACTIONS).records():
            if record.slide_id > last:
                service.journal.append(record)

    def test_refresh_swaps_in_an_extended_snapshot(self):
        service = self.make_service(TRANSACTIONS[:30])
        snapshot = service.index.current
        before = len(snapshot)
        before_slides = snapshot.slide_ids()
        self.append_unseen(service)
        assert service.refresh() > 0
        # A *new* snapshot, extended with only the unseen suffix; the old
        # one is untouched so pinned readers keep a consistent view
        # (DESIGN.md §15.1).
        assert service.index.current is not snapshot
        assert len(service.index.current) > before
        assert len(snapshot) == before
        assert snapshot.slide_ids() == before_slides

    def test_refresh_matches_full_rebuild(self):
        service = self.make_service(TRANSACTIONS[:30])
        self.append_unseen(service)
        service.refresh()
        current = service.index.current
        rebuilt = JournalIndex(service.journal.records()).current
        assert current.stats() == rebuilt.stats()
        assert current.slide_ids() == rebuilt.slide_ids()
        for slide in rebuilt.slide_ids():
            assert current.patterns_at(slide) == rebuilt.patterns_at(slide)
        expr = {"select": {"where": {"contains": ["a"]}}}
        assert service.query(expr) == ServeApp.from_journal(service.journal).query(expr)

    def test_refresh_indexes_only_the_unindexed_suffix(self, monkeypatch):
        service = self.make_service(TRANSACTIONS[:30])
        self.append_unseen(service)
        last = service.index.current.last_slide_id
        # What the whole-journal filter used to return.
        expected = [r for r in service.journal.records() if r.slide_id > last]
        assert expected

        def whole_journal():
            raise AssertionError("refresh copied the whole journal")

        monkeypatch.setattr(service.journal, "records", whole_journal)
        assert service.pending_records() == expected
        indexed = []
        extend = service.index.extend

        def recording_extend(records):
            indexed.extend(records)
            return extend(records)

        monkeypatch.setattr(service.index, "extend", recording_extend)
        assert service.refresh() == len(expected)
        assert indexed == expected
        assert service.pending_records() == []

    def test_refresh_without_new_records_is_noop(self):
        service = self.make_service(TRANSACTIONS)
        snapshot = service.index.current
        assert service.refresh() == 0
        assert service.index.current is snapshot


class TestHTTPServer:
    @pytest.fixture()
    def server(self, journal):
        with BackgroundServer(ServeApp.from_journal(journal)) as server:
            yield server

    @staticmethod
    def get(server, path):
        url = f"http://127.0.0.1:{server.port}{path}"
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))

    @staticmethod
    def post(server, path, body):
        data = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}{path}",
            data=data,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))

    @staticmethod
    def error(excinfo):
        """(status, JSON body) of an HTTP error response, closing it."""
        with excinfo.value as response:
            return response.code, json.loads(response.read().decode("utf-8"))

    def test_endpoints_respond(self, server, journal):
        status, stats = self.get(server, "/stats")
        assert status == 200 and stats["slides"] == len(journal)
        status, topk = self.post(server, "/query", MIGRATION["topk"])
        assert status == 200 and topk["count"] == 3
        status, history = self.post(server, "/query", {"history": {"items": ["a", "b"]}})
        assert status == 200 and history["first_frequent"] == 1
        status, patterns = self.post(
            server, "/query", {"select": {"where": at_slide({"contains": ["a"]}, 11)}}
        )
        assert status == 200 and patterns["count"] >= 2

    def test_concurrent_readers(self, server, service):
        """>= 4 parallel clients, consistent answers equal to the library's."""
        bodies = list(MIGRATION.values()) * 4
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda body: self.post(server, "/query", body), bodies))
        assert all(status == 200 for status, _ in results)
        for body, (_, payload) in zip(bodies, results):
            assert payload == json.loads(json.dumps(service.query(body)))
        # The served stats equal the in-process API's, plus the
        # server-level resilience summary (DESIGN.md §14).
        _, served_stats = self.get(server, "/stats")
        assert served_stats.pop("resilience") == {"dropped_connections": 0}
        assert served_stats.pop("serve")["queries"] == len(bodies)
        expected = service.stats()
        expected.pop("serve")
        assert served_stats == json.loads(json.dumps(expected))

    def test_unknown_endpoint_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.get(server, "/nope")
        status, payload = self.error(excinfo)
        assert status == 404
        assert "/query" in payload["endpoints"]

    def test_bad_parameters_400(self, server):
        for body in (
            {"top_k": {"k": 0}},
            {"top_k": {"k": "x"}},
            {"select": {"where": {"contains": []}}},
            {"history": {}},
        ):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self.post(server, "/query", body)
            status, payload = self.error(excinfo)
            assert status == 400
            assert "error" in payload and "code" in payload

    def test_post_query_select(self, server, service):
        status, payload = self.post(
            server, "/query", {"select": {"where": {"contains": ["a"]}}}
        )
        assert status == 200
        assert payload["count"] == len(payload["matches"]) > 0
        assert payload["explain"]["q_error"] >= 1.0
        assert payload == service.query({"select": {"where": {"contains": ["a"]}}})

    def test_post_query_matches_legacy_get(self, server, journal):
        """The migration map holds over the wire too."""
        for expression, key, expected in legacy_answers(journal.records()):
            status, payload = self.post(server, "/query", expression)
            assert status == 200
            assert payload[key] == expected, expression

    def test_post_invalid_json_400(self, server):
        for body in (b"{not json", b""):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self.post(server, "/query", body)
            status, payload = self.error(excinfo)
            assert status == 400
            assert payload["code"] == "invalid-json"

    def test_post_malformed_expression_400_with_path(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.post(
                server,
                "/query",
                {"select": {"where": {"and": [{"contains": ["a"]}, {"bogus": 1}]}}},
            )
        status, payload = self.error(excinfo)
        assert status == 400
        assert payload["code"] == "malformed-expression"
        assert payload["path"] == "$.select.where.and[1].bogus"

    def test_post_unknown_endpoint_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.post(server, "/nope", {"select": {"where": {"contains": ["a"]}}})
        assert self.error(excinfo)[0] == 404
