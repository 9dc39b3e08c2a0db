"""In-memory spans recorded around the public calls the benchmark makes.

A span has a name, a start and an end (``time.perf_counter``, which is
``CLOCK_MONOTONIC`` and therefore comparable across processes on one host),
the index of the span that was open when it started (its parent) and a
trace id; all spans of one window slide share the slide's trace id.  The
program is never modified: :meth:`Tracer.wrap` shadows a bound method with
an instance attribute on an object the benchmark built itself.

Self time of a span is its duration minus the time its children cover;
when no two spans overlap, self times summed over a pass partition the root
span exactly, which is what the closure check in :mod:`perfbench.pipeline`
verifies.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional

#: One span: [name, start, end, parent index (-1 = none), trace id].
Span = list


class Tracer:
    """Spans of one process, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.trace_id = 0
        self._stack: List[int] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.trace_id])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")

    def add(self, name: str, start: float, end: float, parent: int, trace_id: int) -> int:
        """Record an interval measured elsewhere as a child of ``parent``."""
        self.spans.append([name, start, end, parent, trace_id])
        return len(self.spans) - 1

    def wrap(self, obj: object, attribute: str, name: str) -> None:
        """Record a span around every call of ``obj.attribute``."""
        function: Callable = getattr(obj, attribute)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                return function(*args, **kwargs)
            finally:
                tracer.close(index)

        setattr(obj, attribute, traced)

    def iterate(self, iterable: Iterable, name: str) -> Iterator:
        """Yield from ``iterable``, recording a span around every pull."""
        iterator = iter(iterable)
        while True:
            index = self.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                self.close(index)
                return
            self.close(index)
            yield item

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #
    def self_times(self, first: int = 0) -> Dict[str, float]:
        """Seconds of self time per span name, over spans from ``first`` on.

        A span's self time is clipped at zero: children that overlap each
        other or outlast their parent make the totals exceed the root's
        duration rather than silently cancel.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans[first:]:
            parent = span[3]
            if parent >= first:
                covered[parent] += span[2] - span[1]
        totals: Dict[str, float] = {}
        for index in range(first, len(self.spans)):
            name, start, end = self.spans[index][:3]
            totals[name] = totals.get(name, 0.0) + max(0.0, (end - start) - covered[index])
        return totals

    def durations(self, name: str, first: int = 0) -> List[float]:
        """Durations (seconds) of every span called ``name``."""
        return [span[2] - span[1] for span in self.spans[first:] if span[0] == name]

    def reparent(self, child: int, parent: int) -> None:
        self.spans[child][3] = parent

    def dump(self, path: Path, meta: Optional[dict] = None) -> None:
        """Write the spans (and ``meta``) as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "fields": ["name", "start", "end", "parent", "trace_id"],
            "meta": meta or {},
            "spans": self.spans,
        }
        path.write_text(json.dumps(document), encoding="utf-8")
