"""Standing queries: transition semantics, exactly-once, the poll oracle."""

import pytest

from repro.core.miner import StreamSubgraphMiner
from repro.datasets.paper_example import paper_example_batches, paper_example_registry
from repro.exceptions import ServeError
from repro.graph.edge import Edge
from repro.graph.edge_registry import EdgeRegistry
from repro.history import algebra
from repro.history.journal import MemoryJournal
from repro.serve.index import JournalIndex
from repro.stream.batch import Batch
from repro.serve.standing import (
    Notification,
    StandingQuery,
    parse_standing_expression,
    poll_oracle,
)


def common_item(records):
    counts = {}
    for record in records:
        for items, _ in record.patterns:
            for item in items:
                counts[item] = counts.get(item, 0) + 1
    return max(sorted(counts), key=lambda item: counts[item])


class TestStandingSemantics:
    def test_incremental_stream_equals_poll_oracle(self, records):
        item = common_item(records)
        expression = algebra.to_json(algebra.select(algebra.contains(item)))
        events = ("enter", "exit", "update")
        split = 2
        index = JournalIndex(records[:split])
        standing = StandingQuery("sub-0", expression, events)
        standing.prime(index.current)
        pushed = []
        for record in records[split:]:
            snapshot = index.extend([record])
            pushed.extend(
                notification.as_dict()
                for notification in standing.advance(snapshot, record.slide_id)
            )
        oracle = [
            notification.as_dict()
            for notification in poll_oracle(
                records,
                expression,
                events=events,
                subscription="sub-0",
                after_slide=records[split - 1].slide_id,
            )
        ]
        assert pushed == oracle
        assert len(pushed) > 0, "fixture produced no transitions; weak test"

    def test_exactly_once_per_slide(self, records):
        expression = algebra.to_json(algebra.top_k(3))
        index = JournalIndex(records[:-1])
        standing = StandingQuery("s", expression, ("enter", "exit", "update"))
        standing.prime(index.current)
        snapshot = index.extend([records[-1]])
        first = standing.advance(snapshot, records[-1].slide_id)
        # Re-advancing the same slide (or an older one) is a no-op: a
        # subscriber is notified about each transition exactly once.
        assert standing.advance(snapshot, records[-1].slide_id) == []
        assert standing.advance(snapshot, records[0].slide_id) == []
        assert standing.notified == len(first)

    def test_event_filtering(self, records):
        item = common_item(records)
        expression = algebra.to_json(algebra.select(algebra.contains(item)))
        all_events = [
            notification.event
            for notification in poll_oracle(
                records, expression, events=("enter", "exit", "update")
            )
        ]
        enters_only = [
            notification.event
            for notification in poll_oracle(records, expression, events=("enter",))
        ]
        assert set(enters_only) <= {"enter"}
        assert len(enters_only) == all_events.count("enter")

    def test_fire_order_is_deterministic(self, records):
        expression = algebra.to_json(algebra.top_k(10))
        stream = poll_oracle(records, expression, events=("enter", "exit", "update"))
        for earlier, later in zip(stream, stream[1:]):
            assert earlier.slide <= later.slide
            if earlier.slide == later.slide:
                order = {"enter": 0, "exit": 1, "update": 2}
                key = lambda n: (  # noqa: E731
                    order[n.event],
                    len(n.items),
                    n.items,
                )
                assert key(earlier) <= key(later)


    def test_each_subscription_is_planned_once(self, records, monkeypatch):
        """A standing query is planned at subscribe; a commit only binds the
        slide — no per-slide planning and no Explain-building evaluation."""
        from repro.serve.app import ServeApp

        planned = []

        class CountedPlan(algebra.SlidePlan):
            def __init__(self, query):
                planned.append(query)
                super().__init__(query)

        monkeypatch.setattr(algebra, "SlidePlan", CountedPlan)
        evaluated = []
        evaluate = algebra.evaluate
        monkeypatch.setattr(
            algebra, "evaluate", lambda *a, **k: evaluated.append(a) or evaluate(*a, **k)
        )
        journal = MemoryJournal()
        app = ServeApp.from_journal(journal)
        item = common_item(records)
        expressions = [
            algebra.to_json(algebra.top_k(3)),
            algebra.to_json(algebra.top_k(2, where=algebra.contains(item))),
            algebra.to_json(algebra.select(algebra.contains(item))),
        ]
        delivered = []
        for expression in expressions:
            app.subscribe(expression, ALL_EVENTS, sink=delivered.append)
        for record in records:
            journal.append(record)
            app.refresh()
        assert len(planned) == len(expressions)
        assert evaluated == []
        assert len(delivered) > 0, "no transitions fired; weak test"


#: Every pattern of a slide, so its transitions are everything that changed.
EVERY_PATTERN = algebra.to_json(algebra.select(algebra.support_gte(1)))
ALL_EVENTS = ("enter", "exit", "update")


def watched_records(batches, registry, window_size=2):
    """One sealed record per slide of a ``watch`` over ``batches`` (minsup 2)."""
    journal = MemoryJournal()
    miner = StreamSubgraphMiner(
        window_size=window_size,
        algorithm="vertical",
        registry=registry,
        on_slide=journal.append,
    )
    miner.watch(batches, 2)
    return journal.records()


def transitions_at(records, slide):
    return [
        notification
        for notification in poll_oracle(records, EVERY_PATTERN, events=ALL_EVENTS)
        if notification.slide == slide
    ]


class TestWatchTransitions:
    """What changed between slides of the paper's running example."""

    @pytest.fixture(scope="class")
    def paper_records(self):
        return watched_records(paper_example_batches(), paper_example_registry())

    def test_first_slide_reports_everything_as_entered(self, paper_records):
        first = transitions_at(paper_records, paper_records[0].slide_id)
        assert {notification.event for notification in first} == {"enter"}
        assert len(first) == len(paper_records[0].patterns)

    def test_final_window_matches_direct_mining(self, paper_records):
        # The final window (B2-B3) is the paper's 15-connected-subgraph window.
        assert len(paper_records) == 3
        assert len(paper_records[-1].patterns) == 15

    def test_enters_and_exits_track_window_slides(self, paper_records):
        second, third = paper_records[1], paper_records[2]
        # Edge e is frequent in the B1-B2 window but not in B2-B3.
        assert ("e",) in dict(second.patterns)
        changes = transitions_at(paper_records, third.slide_id)
        assert ("e",) in {n.items for n in changes if n.event == "exit"}
        # Everything reported as entered is indeed in the new window's answer.
        for notification in changes:
            if notification.event == "enter":
                assert notification.items in dict(third.patterns)

    def test_updates_carry_old_and_new_support(self, paper_records):
        supports = {record.slide_id: dict(record.patterns) for record in paper_records}
        updates = poll_oracle(paper_records, EVERY_PATTERN, events=("update",))
        assert updates, "fixture produced no support changes; weak test"
        for notification in updates:
            assert notification.previous_support != notification.support
            assert supports[notification.slide][notification.items] == notification.support

    def test_stable_window_reports_no_changes(self):
        registry = EdgeRegistry()
        pair = [Edge("x", "y"), Edge("y", "z")]
        for edge in pair:
            registry.register(edge)
        transaction = tuple(registry.item_for(edge) for edge in pair)
        batch = Batch([transaction] * 2)
        records = watched_records([batch] * 3, registry)
        # The second slide fills the window (supports double); the third
        # replaces a batch with an identical one.
        assert transitions_at(records, records[1].slide_id)
        assert transitions_at(records, records[2].slide_id) == []


class TestValidation:
    def test_history_expression_rejected(self):
        with pytest.raises(ServeError, match="history is a curve"):
            parse_standing_expression(algebra.history("a"))

    def test_unknown_event_rejected(self, records):
        expression = algebra.to_json(algebra.top_k(3))
        with pytest.raises(ServeError, match="unknown standing-query events"):
            StandingQuery("s", expression, ("enter", "flicker"))

    def test_empty_events_rejected(self):
        expression = algebra.to_json(algebra.top_k(3))
        with pytest.raises(ServeError):
            StandingQuery("s", expression, ())

    def test_notification_as_dict_shape(self):
        notification = Notification(
            subscription="sub-9",
            slide=4,
            event="enter",
            items=("a", "b"),
            support=3,
            previous_support=None,
        )
        assert notification.as_dict() == {
            "subscription": "sub-9",
            "slide": 4,
            "event": "enter",
            "items": ["a", "b"],
            "support": 3,
            "previous_support": None,
        }
