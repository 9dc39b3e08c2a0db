#!/usr/bin/env python
"""Pattern history: journal every window slide, then ask "since when?".

A drifting transaction stream is watched with :meth:`StreamSubgraphMiner.watch`:
after every batch commit the fresh window is mined and the per-slide answer is
sealed into an append-only pattern journal (DESIGN.md §10).  A
:class:`~repro.serve.app.ServeApp` over the journal then answers the questions
the one-shot miner cannot — how a pattern's support evolved over the stream,
when it first became frequent, and what was on top at any past slide.  Queries
are composable algebra expressions (DESIGN.md §13) evaluated under the
cost-based planner; the app answers them exactly as ``repro query --expr`` and
``POST /query`` do.

Run with::

    python examples/pattern_history.py
"""

from repro import StreamSubgraphMiner, TransactionStream
from repro.history import MemoryJournal
from repro.serve import ServeApp


def drifting_stream():
    """A stream whose hot pattern changes halfway through.

    The first half is dominated by the pair (login, search); the second
    half shifts to (login, checkout) — the shape of a traffic drift a
    production deployment would want to detect from history.
    """
    early = [
        ("login", "search"),
        ("login", "search", "browse"),
        ("browse",),
        ("login", "search"),
    ] * 5
    late = [
        ("login", "checkout"),
        ("login", "checkout", "pay"),
        ("pay",),
        ("login", "checkout"),
    ] * 5
    return early + late


def main() -> None:
    journal = MemoryJournal()
    miner = StreamSubgraphMiner(
        window_size=3, batch_size=5, algorithm="vertical", on_slide=journal.append
    )
    report = miner.watch(
        TransactionStream(drifting_stream(), batch_size=5),
        minsup=3,
        connected_only=False,
    )
    print(
        f"watched the stream: {report.slides} window slides journalled, "
        f"{report.last_record.pattern_count} patterns frequent at the end"
    )

    app = ServeApp.from_journal(journal)

    # Support over time: the old hot pair fades, the new one takes over.
    # Each history answer also carries the pair's provenance.
    histories = {}
    for pair in (("login", "search"), ("login", "checkout")):
        histories[pair] = app.query({"history": {"items": list(pair)}})
        curve = histories[pair]["history"]
        rendered = " ".join(f"{point['support']:2d}" for point in curve)
        print(f"support of {pair}: {rendered}")

    # Provenance: when did the new pattern become frequent, and until when
    # did the old one last appear?
    drift_in = histories[("login", "checkout")]["first_frequent"]
    drift_out = histories[("login", "search")]["last_frequent"]
    print(f"(login, checkout) first became frequent at slide {drift_in}")
    print(f"(login, search) was last frequent at slide {drift_out}")

    # Top of the final window vs the top while the window was still early.
    last = app.stats()["last_slide"]
    for label, slide in (("slide 1", 1), ("the last slide", last)):
        top = app.query({"top_k": {"k": 1, "where": {"slides": [slide, slide]}}})
        match = top["matches"][0]
        print(
            f"top pattern at {label}: {tuple(match['items'])} "
            f"(support {match['support']})"
        )


if __name__ == "__main__":
    main()
