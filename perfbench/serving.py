"""The ``serve-follow`` workload: reads beside writes over HTTP and SSE.

Set-up mines a ``zipf-transactions[medium]``-shaped stream into slide
records, writes the first ``initial_slides`` of them to a journal
directory, and starts the real ``repro serve DIR --follow <interval>`` as a
child process (ready at its first ``200`` on ``/stats``).  During the leg,
from this process alone:

* a closed-loop query client on one keep-alive connection sends a seeded
  mix of lookups (slide-range-restricted ``select``/``top_k``, ``history``
  curves) and scans (full-history ``or`` and provenance ``select``,
  unrestricted ``top_k``);
* an SSE subscriber on a second connection holds a standing ``top_k``
  whose answer changes on (almost) every slide;
* a writer thread appends the remaining pre-mined records to the journal
  at a fixed open-loop rate; notification latency is timed from each
  slide's *scheduled* append time, so writer lateness counts.

The traced variant runs the same leg twice on copies of the journal:
once against the CLI server (the untraced base) and once against
``perfbench/traced_server.py``, which serves through the same
``serve_async`` path with spans around the app's public calls.
"""

from __future__ import annotations

import gc
import http.client
import json
import math
import random
import select
import shutil
import signal
import socket
import subprocess
import sys
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter, sleep
from typing import Dict, List, Optional, Tuple
from urllib.parse import quote

from perfbench.common import (
    BenchError,
    beyond,
    child_env,
    file_digest,
    median,
    peak_rss_mb,
    percentile,
    zipf_units,
)
from perfbench.metrics import RunOutcome
from perfbench.trace import Tracer

HERE = Path(__file__).resolve().parent
STANDING = {"top_k": {"k": 10}}
STANDING_EVENTS = ("enter", "exit", "update")
LOOKUP_FAMILIES = ("select-range", "topk-range", "history")
SCAN_FAMILIES = ("select-or", "select-provenance", "topk-all")


@dataclass(frozen=True)
class ServeConfig:
    name: str = "serve-follow"
    #: Canonical zipf transactions the stream's shuffles draw from.
    pool_units: int = 25_000
    batch_size: int = 500
    window_size: int = 10
    #: The spec's own minsup (~230 patterns per slide).
    minsup: float = 0.2
    #: Slides in the journal when the server starts.
    initial_slides: int = 20
    #: Open-loop append rate (slides per second) during the leg.
    append_rate: float = 20.0
    #: ``repro serve --follow`` interval in seconds.
    follow: float = 0.02
    #: The leg runs on until these many have completed.
    min_lookups: int = 1000
    min_scans: int = 100
    #: Answers re-checked against the brute-force oracle after the leg.
    check_lookups: int = 10
    check_scans: int = 3


CONFIG = ServeConfig()


def scaled(config: ServeConfig, scale: float) -> ServeConfig:
    """A smaller copy of ``config`` (the benchmark's own tests use it)."""
    if scale >= 1:
        return config
    return replace(
        config,
        pool_units=max(5_000, int(config.pool_units * scale)),
        initial_slides=max(12, int(config.initial_slides * scale)),
        min_lookups=max(20, int(config.min_lookups * scale)),
        min_scans=max(3, int(config.min_scans * scale)),
        check_lookups=3,
        check_scans=1,
    )


# ---------------------------------------------------------------------- #
# set-up: input, pre-mining, the query mix, the server
# ---------------------------------------------------------------------- #
@dataclass
class Prepared:
    records: list  # every pre-mined SlideRecord, in slide order
    initial: list
    appended: list
    journal_dir: Path
    items: List[str]


def prepare(config: ServeConfig, seed: int, seconds: float, workdir: Path) -> Prepared:
    from repro.core.miner import StreamSubgraphMiner
    from repro.history.journal import DiskJournal
    from repro.stream.stream import TransactionStream

    appended = max(1, math.ceil(config.append_rate * seconds))
    slides = config.initial_slides + appended
    units = zipf_units(seed, config.pool_units, slides * config.batch_size)
    records: list = []
    with StreamSubgraphMiner(
        window_size=config.window_size,
        batch_size=config.batch_size,
        algorithm="vertical",
        on_slide=records.append,
    ) as miner:
        miner.watch(
            TransactionStream(iter(units), batch_size=config.batch_size),
            config.minsup,
            connected_only=False,
        )
    journal_dir = workdir / f"journal-{len(list(workdir.iterdir()))}"
    with DiskJournal(journal_dir) as journal:
        for record in records[: config.initial_slides]:
            journal.append(record)
    counts: Dict[str, int] = {}
    for record in records[: config.initial_slides]:
        for pattern, _support in record.patterns:
            for item in pattern:
                counts[item] = counts.get(item, 0) + 1
    # The hot items: every pattern family the mix touches is large, so
    # answer sizes do not hinge on drawing a rare item.
    ranked = sorted(counts, key=lambda item: (-counts[item], item))
    items = [item for item in ranked if counts[item] * 2 >= counts[ranked[0]]]
    return Prepared(
        records=records,
        initial=records[: config.initial_slides],
        appended=records[config.initial_slides :],
        journal_dir=journal_dir,
        items=items,
    )


class QueryMix:
    """The seeded stream of (class, family, expression) the client sends.

    Every cycle of 30 queries holds the same number of each family (nine
    lookups of each lookup family, one scan of each scan family: a 90/10
    lookup/scan split), in a seeded order with seeded items and slide
    ranges.  A fixed composition keeps the cost of a run comparable across
    seeds; a scan costs up to 100x a lookup.
    """

    def __init__(self, config: ServeConfig, items: List[str], seed: int) -> None:
        self._last = config.initial_slides - 1
        self._items = items
        self._rng = random.Random(seed * 1_000_003 + 17)
        self._pending: List[Tuple[str, str]] = []

    def next(self) -> Tuple[str, str, dict]:
        rng = self._rng
        if not self._pending:
            self._pending = [("lookup", f) for f in LOOKUP_FAMILIES for _ in range(9)]
            self._pending += [("scan", f) for f in SCAN_FAMILIES]
            rng.shuffle(self._pending)
        kind, family = self._pending.pop()
        last = self._last
        if family == "select-range":
            low = rng.randrange(0, max(1, last - 4))
            where = {"and": [{"contains": [rng.choice(self._items)]}, {"slides": [low, low + 4]}]}
            return kind, family, {"select": {"where": where}}
        if family == "topk-range":
            low = rng.randrange(0, max(1, last - 9))
            where = {"and": [{"contains": [rng.choice(self._items)]}, {"slides": [low, low + 9]}]}
            return kind, family, {"top_k": {"k": 10, "where": where}}
        if family == "history":
            return kind, family, {"history": {"items": sorted(rng.sample(self._items, 2))}}
        if family == "select-or":
            # Two item triples: one hot item alone matches most rows of
            # the journal (a ~3 MB answer); triples answer well under 1 MB.
            size = min(3, len(self._items) // 2)
            drawn = rng.sample(self._items, 2 * size)
            where = {"or": [{"contains": drawn[:size]}, {"contains": drawn[size:]}]}
            return kind, family, {"select": {"where": where}}
        if family == "select-provenance":
            # Never from slide 0: every pattern is first frequent there.
            low = rng.randrange(1, max(2, last // 2))
            return kind, family, {
                "select": {"where": {"first_frequent_in": [low, low + last // 2]}}
            }
        return kind, family, {"top_k": {"k": 20}}


class Server:
    """One ``repro serve`` (or traced) child process on an ephemeral port."""

    def __init__(self, command: List[str]) -> None:
        self.started = perf_counter()
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            env=child_env(),
            text=True,
        )
        try:
            self.host, self.port = self._read_address()
            self.ready_s = self._wait_ready()
        except BaseException:
            self.process.kill()
            self.process.wait()
            raise

    def _read_address(self) -> Tuple[str, int]:
        """Parse ``... on http://HOST:PORT ...`` from the announce line."""
        stdout = self.process.stdout
        announce = ""
        if stdout is not None and select.select([stdout], [], [], 60)[0]:
            announce = stdout.readline()
        marker = "http://"
        if marker not in announce:
            raise BenchError(f"server did not announce its address: {announce!r}")
        host, port = announce.split(marker, 1)[1].split()[0].rsplit(":", 1)
        return host, int(port)

    def _wait_ready(self) -> float:
        deadline = perf_counter() + 60
        while perf_counter() < deadline:
            try:
                status, _ = self.get("/stats")
            except OSError:
                sleep(0.005)
                continue
            if status == 200:
                return perf_counter() - self.started
        raise BenchError("server never answered /stats with 200")

    def get(self, path: str) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def stats(self) -> dict:
        status, body = self.get("/stats")
        if status != 200:
            raise BenchError(f"/stats answered {status}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def stop(self) -> int:
        """SIGTERM (graceful drain); returns the exit code."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            return self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            return -9
        finally:
            if self.process.stdout is not None:
                self.process.stdout.close()


def cli_command(config: ServeConfig, journal_dir: Path) -> List[str]:
    return [
        sys.executable, "-m", "repro", "serve", str(journal_dir),
        "--port", "0", "--follow", str(config.follow),
    ]


def traced_command(config: ServeConfig, journal_dir: Path, spans: Path) -> List[str]:
    return [
        sys.executable, str(HERE / "traced_server.py"), str(journal_dir),
        "--follow", str(config.follow), "--spans", str(spans),
    ]


# ---------------------------------------------------------------------- #
# the leg
# ---------------------------------------------------------------------- #
class SseSubscriber(threading.Thread):
    """Reads one ``/subscribe`` stream, stamping every frame on arrival."""

    def __init__(self, host: str, port: int) -> None:
        super().__init__(daemon=True)
        self.frames: List[Tuple[float, str, str]] = []
        self.hello = threading.Event()
        self.error: Optional[str] = None
        self._sock = socket.create_connection((host, port), timeout=60)
        query = f"expr={quote(json.dumps(STANDING))}&events={','.join(STANDING_EVENTS)}"
        request = f"GET /subscribe?{query} HTTP/1.1\r\nHost: {host}\r\n\r\n"
        self._sock.sendall(request.encode("latin-1"))

    def run(self) -> None:
        try:
            with self._sock, self._sock.makefile("rb") as stream:
                status = stream.readline()
                if b" 200 " not in status:
                    self.error = f"subscribe answered {status!r}"
                    return
                while stream.readline() not in (b"\r\n", b"\n", b""):
                    pass
                event = None
                while True:
                    line = stream.readline()
                    if not line:
                        return
                    if line.startswith(b"event: "):
                        event = line[7:].strip().decode()
                        arrived = perf_counter()
                    elif line.startswith(b"data: ") and event is not None:
                        self.frames.append((arrived, event, line[6:].strip().decode()))
                        if event == "hello":
                            self.hello.set()
                        if event == "shutdown":
                            return
                        event = None
        except OSError as exc:
            self.error = f"SSE stream failed: {exc}"
        finally:
            self.hello.set()


#: Golden-ratio step of the writer's phase sequence (see :class:`Writer`).
PHASE_STEP = (math.sqrt(5) - 1) / 2


class Writer(threading.Thread):
    """Appends pre-mined records at a fixed rate (open loop).

    Record ``n`` is due at ``(n + 1) / rate`` plus a phase of
    ``frac(n * PHASE_STEP) * follow`` seconds.  The server polls the
    journal every ``follow`` seconds, so a slide waits for the next poll;
    with a period that is a multiple of ``follow``, every slide of a run
    would land at the same point of the poll cycle and the notification
    latency would hinge on where that point fell.  The phases spread the
    slides evenly over the cycle instead, the same way in every run.
    """

    def __init__(self, journal_dir: Path, records: list, rate: float, follow: float) -> None:
        super().__init__(daemon=True)
        self._journal_dir = journal_dir
        self._records = records
        self._rate = rate
        self._follow = follow
        self.due: Dict[int, float] = {}
        self.late_ms: List[float] = []
        self.error: Optional[str] = None
        self.start_at = 0.0

    def run(self) -> None:
        from repro.history.journal import open_journal

        try:
            with open_journal(self._journal_dir) as journal:
                for position, record in enumerate(self._records):
                    phase = (position * PHASE_STEP) % 1.0 * self._follow
                    due = self.start_at + (position + 1) / self._rate + phase
                    wait = due - perf_counter()
                    if wait > 0:
                        sleep(wait)
                    self.late_ms.append((perf_counter() - due) * 1000)
                    self.due[record.slide_id] = due
                    journal.append(record)
        except Exception as exc:  # noqa: BLE001 - reported as a failed op
            self.error = f"writer failed: {exc!r}"


@dataclass
class LegResult:
    queries: List[Tuple[str, str, float, int, int]]  # class, family, ms, status, bytes
    bodies: List[bytes]
    leg_s: float
    frames: List[Tuple[float, str, str]]
    due: Dict[int, float]
    late_ms: List[float]
    stats_before: dict
    stats_after: dict
    peak_rss_mb: float
    drain_exit_code: int
    final_digest: str
    check_answers: List[Tuple[dict, bytes]]
    errors: List[str]


def run_leg(
    config: ServeConfig,
    prepared: Prepared,
    server: Server,
    journal_dir: Path,
    seed: int,
    seconds: float,
    keep_bodies: bool,
) -> LegResult:
    from repro.history.journal import DATA_NAME

    errors: List[str] = []
    stats_before = server.stats()
    subscriber = SseSubscriber(server.host, server.port)
    subscriber.start()
    if not subscriber.hello.wait(30) or subscriber.error:
        raise BenchError(subscriber.error or "no SSE hello frame")
    writer = Writer(journal_dir, prepared.appended, config.append_rate, config.follow)
    mix = QueryMix(config, prepared.items, seed)
    connection = http.client.HTTPConnection(server.host, server.port, timeout=120)
    headers = {"Content-Type": "application/json"}
    queries: List[Tuple[str, str, float, int, int]] = []
    bodies: List[bytes] = []
    lookups = scans = 0
    started = perf_counter()
    writer.start_at = started
    writer.start()
    hard_stop = started + 4 * seconds + 30
    try:
        while True:
            now = perf_counter()
            enough = lookups >= config.min_lookups and scans >= config.min_scans
            if (now - started >= seconds and not writer.is_alive() and enough) or now > hard_stop:
                break
            kind, family, expression = mix.next()
            body = json.dumps(expression).encode("utf-8")
            sent = perf_counter()
            connection.request("POST", "/query", body, headers)
            response = connection.getresponse()
            payload = response.read()
            elapsed = perf_counter() - sent
            queries.append((kind, family, elapsed * 1000, response.status, len(payload)))
            if keep_bodies:
                bodies.append(payload)
            if kind == "lookup":
                lookups += 1
            else:
                scans += 1
        leg_s = perf_counter() - started
    finally:
        connection.close()
    writer.join(60)
    if writer.error:
        errors.append(writer.error)
    if not (lookups >= config.min_lookups and scans >= config.min_scans):
        errors.append(f"only {lookups} lookups and {scans} scans completed")

    # ---- quiesce: the server has indexed the final slide --------------- #
    final_slide = prepared.records[-1].slide_id
    probe = {"history": {"items": [prepared.items[0]]}}
    deadline = perf_counter() + 60
    while True:
        status, answer = _post(server, probe)
        curve = json.loads(answer).get("history", []) if status == 200 else []
        if curve and curve[-1]["slide"] == final_slide:
            break
        if perf_counter() > deadline:
            errors.append("server never indexed the final slide")
            break
        sleep(0.01)
    stats_after = server.stats()
    check_answers = _ask_sample(config, prepared, server, seed)
    peak = server.peak_rss_mb()
    drain_exit_code = server.stop()
    subscriber.join(30)
    if subscriber.error:
        errors.append(subscriber.error)
    if not any(event == "shutdown" for _, event, _ in subscriber.frames):
        errors.append("SSE stream ended without a shutdown frame")
    if drain_exit_code != 0:
        errors.append(f"server exited with {drain_exit_code} after SIGTERM")
    return LegResult(
        queries=queries,
        bodies=bodies,
        leg_s=leg_s,
        frames=subscriber.frames,
        due=writer.due,
        late_ms=writer.late_ms,
        stats_before=stats_before,
        stats_after=stats_after,
        peak_rss_mb=peak,
        drain_exit_code=drain_exit_code,
        final_digest=file_digest(journal_dir / DATA_NAME),
        check_answers=check_answers,
        errors=errors,
    )


def _post(server: Server, expression: dict) -> Tuple[int, bytes]:
    connection = http.client.HTTPConnection(server.host, server.port, timeout=120)
    try:
        connection.request(
            "POST", "/query", json.dumps(expression).encode("utf-8"),
            {"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _ask_sample(config, prepared, server, seed) -> List[Tuple[dict, bytes]]:
    """Send a seeded sample of the mix to the quiesced server."""
    mix = QueryMix(config, prepared.items, seed + 1)
    wanted = {"lookup": config.check_lookups, "scan": config.check_scans}
    sample: List[Tuple[dict, bytes]] = []
    while any(wanted.values()):
        kind, _family, expression = mix.next()
        if wanted[kind] == 0:
            continue
        wanted[kind] -= 1
        status, body = _post(server, expression)
        sample.append((expression, body if status == 200 else b""))
    return sample


# ---------------------------------------------------------------------- #
# the correctness gate
# ---------------------------------------------------------------------- #
def rendered_oracle(expression: dict, records) -> str:
    """The brute-force answer, rendered the way ``POST /query`` renders it."""
    from repro.history.algebra import brute_force_query, parse_query

    query = parse_query(expression)
    result = brute_force_query(query, records)
    if "history" in expression:
        rows = [{"slide": slide, "support": support} for slide, support in result]
    else:
        rows = [
            {"slide": slide, "items": list(items), "support": support}
            for slide, items, support in result
        ]
    return json.dumps(rows, indent=2)


def rendered_answer(body: bytes, expression: dict) -> str:
    payload = json.loads(body)
    rows = payload["history"] if "history" in expression else payload["matches"]
    return json.dumps(rows, indent=2)


def check_answers(sample: List[Tuple[dict, bytes]], records) -> List[str]:
    failures = []
    for expression, body in sample:
        if not body:
            failures.append(f"no answer for {json.dumps(expression)}")
        elif rendered_answer(body, expression) != rendered_oracle(expression, records):
            failures.append(f"answer differs from brute_force_query: {json.dumps(expression)}")
    return failures


def check_notifications(frames, records, initial_last: int) -> Tuple[List[str], Dict[int, float]]:
    """SSE notifications against ``poll_oracle``; first-frame time per slide.

    The standing ``top_k`` has no provenance predicate, so its transitions
    at slide ``s`` depend only on slides ``s-1`` and ``s``: the oracle runs
    on each adjacent pair, which keeps it linear in the journal length.
    """
    from repro.serve.standing import poll_oracle

    hello = next((json.loads(data) for _, event, data in frames if event == "hello"), None)
    if hello is None:
        return ["no SSE hello frame"], {}
    failures: List[str] = []
    if hello["last_slide"] != initial_last:
        failures.append(f"subscribed at slide {hello['last_slide']}, expected {initial_last}")
    by_id = {record.slide_id: record for record in records}
    expected = []
    for slide in sorted(by_id):
        if slide <= initial_last:
            continue
        pair = [by_id[slide - 1], by_id[slide]]
        expected.extend(
            notification.as_dict()
            for notification in poll_oracle(
                pair, STANDING, STANDING_EVENTS, hello["subscription"], after_slide=slide - 1
            )
        )
    received = [
        (arrived, json.loads(data)) for arrived, event, data in frames if event == "notification"
    ]
    if [payload for _, payload in received] != expected:
        failures.append(
            f"SSE delivered {len(received)} notifications, poll_oracle expects {len(expected)} "
            "(or they differ)"
        )
    first: Dict[int, float] = {}
    for arrived, payload in received:
        first.setdefault(payload["slide"], arrived)
    return failures, first


# ---------------------------------------------------------------------- #
# a run
# ---------------------------------------------------------------------- #
def run(
    config: ServeConfig,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    setups: int,
    trace_path: Optional[Path] = None,
):
    setup_times: List[float] = []
    start_times: List[float] = []
    server: Optional[Server] = None
    prepared: Optional[Prepared] = None
    try:
        for _ in range(setups):
            if server is not None:
                server.stop()
                server = None
            prepared = None
            gc.collect()
            started = perf_counter()
            prepared = prepare(config, seed, seconds, workdir)
            base_dir = prepared.journal_dir
            if trace:
                # The legs append to copies; the pristine journal seeds both.
                leg_dir = workdir / "leg-untraced"
                shutil.copytree(base_dir, leg_dir)
            else:
                leg_dir = base_dir
            server = Server(cli_command(config, leg_dir))
            setup_times.append(perf_counter() - started)
            start_times.append(server.ready_s)
        assert prepared is not None and server is not None
        legs = [run_leg(config, prepared, server, leg_dir, seed, seconds, keep_bodies=False)]
        server = None
        spans_file = workdir / "server-spans.json"
        if trace:
            traced_dir = workdir / "leg-traced"
            shutil.copytree(prepared.journal_dir, traced_dir)
            server = Server(traced_command(config, traced_dir, spans_file))
            legs.append(run_leg(config, prepared, server, traced_dir, seed, seconds, keep_bodies=True))
            server = None
    finally:
        if server is not None:
            server.stop()

    # ---- correctness gate (outside every timed region) ---------------- #
    failures: List[str] = []
    records = tuple(prepared.records)
    initial_last = prepared.initial[-1].slide_id
    first_frames: List[Dict[int, float]] = []
    digests = set()
    for leg in legs:
        failures.extend(leg.errors)
        bad = sum(1 for query in leg.queries if query[3] != 200)
        if bad:
            failures.append(f"{bad} queries answered with a non-200 status")
        failures.extend(check_answers(leg.check_answers, records))
        notification_failures, first = check_notifications(leg.frames, records, initial_last)
        failures.extend(notification_failures)
        first_frames.append(first)
        digests.add(leg.final_digest)
    if len(digests) != 1:
        failures.append("the legs' journals differ after the same appends")

    leg = legs[0]
    lookups = [q[2] for q in leg.queries if q[0] == "lookup" and q[3] == 200]
    scans = [q[2] for q in leg.queries if q[0] == "scan" and q[3] == 200]
    notify = [
        (arrived - leg.due[slide]) * 1000
        for slide, arrived in first_frames[0].items()
        if slide in leg.due
    ]
    if len(notify) < 10:
        failures.append(f"only {len(notify)} slides fired a notification")
        notify = notify or [float("nan")]
    attempted = (
        sum(len(l.queries) for l in legs)
        + sum(len(l.due) for l in legs)
        + sum(len(l.check_answers) for l in legs)
    )
    failed = len(failures)
    details: Dict[str, object] = {
        "workload": config.name,
        "seed": seed,
        "initial_slides": config.initial_slides,
        "appended_slides": len(prepared.appended),
        "append_rate_per_s": config.append_rate,
        "follow_interval_s": config.follow,
        "journal_digest": leg.final_digest,
        "queries_per_s": (len(lookups) + len(scans)) / leg.leg_s,
        "lookups": len(lookups),
        "scans": len(scans),
        "lookup_p50_ms": percentile(lookups, 0.5),
        "lookup_p99_ms": percentile(lookups, 0.99),
        "lookup_p99_beyond": beyond(len(lookups), 0.99),
        "scan_p50_ms": percentile(scans, 0.5),
        "scan_p90_ms": percentile(scans, 0.9),
        "scan_p90_beyond": beyond(len(scans), 0.9),
        "notify_p50_ms": percentile(notify, 0.5),
        "notify_p90_ms": percentile(notify, 0.9),
        "notified_slides": len(notify),
        "notify_p90_beyond": beyond(len(notify), 0.9),
        "server_start_s": median(start_times),
        "writer_late_p90_ms": percentile(leg.late_ms, 0.9),
        "setup_runs_s": setup_times,
        "error_ratio": failed / max(1, attempted),
    }
    if not trace:
        metrics = {
            "setup_s": (median(setup_times), "s"),
            "throughput_per_s": ((len(lookups) + len(scans)) / leg.leg_s, "1/s"),
            "slide_p50_ms": (percentile(notify, 0.5), "ms"),
            "slide_p90_ms": (percentile(notify, 0.9), "ms"),
            "peak_rss_mb": (leg.peak_rss_mb, "MB"),
        }
    else:
        metrics = _layer_metrics(legs, spans_file, trace_path, seed)
    return RunOutcome(metrics, details, attempted, failed, failures)


def _layer_metrics(legs, spans_file: Path, trace_path, seed):
    """Per-layer metrics of the traced leg, with the untraced leg as base."""
    base, traced = legs
    document = json.loads(spans_file.read_text(encoding="utf-8"))
    if trace_path is not None:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        document["meta"] = {"workload": "serve-follow", "seed": seed}
        trace_path.write_text(json.dumps(document), encoding="utf-8")
    spans = document["spans"]
    queries = [span for span in spans if span[0] == "serve.query"]
    lookup_eval, scan_eval, wire = [], [], []
    for client, span in zip(traced.queries, queries):
        server_ms = (span[2] - span[1]) * 1000
        if client[0] == "lookup":
            lookup_eval.append(server_ms)
            wire.append(client[2] - server_ms)
        else:
            scan_eval.append(server_ms)
    scanned = actual = 0
    for body in traced.bodies:
        explain = json.loads(body).get("explain", {})
        scanned += explain.get("scanned", 0)
        actual += explain.get("actual_rows", 0)
    tracer = Tracer()
    tracer.spans = spans
    polls = tracer.durations("history.tail_poll")
    follow_wait = []
    for span in spans:
        if span[0] == "serve.index_extend" and span[4] in traced.due and span[3] >= 0:
            follow_wait.append((spans[span[3]][1] - traced.due[span[4]]) * 1000)

    def lookups_p50(leg) -> float:
        return percentile([q[2] for q in leg.queries if q[0] == "lookup"], 0.5)

    def bytes_of(kind: str) -> float:
        sizes = [q[4] for q in traced.queries if q[0] == kind]
        return sum(sizes) / len(sizes)

    base_lookup = lookups_p50(base)
    serve_before = traced.stats_before["serve"]
    serve_after = traced.stats_after["serve"]
    return {
        "history.tail_poll_ms": (sum(polls) * 1000 / len(polls), "ms"),
        "serve.refresh_s": (sum(tracer.durations("serve.refresh")), "s"),
        "serve.index_extend_s": (sum(tracer.durations("serve.index_extend")), "s"),
        # A refresh's own time: advancing and delivering standing queries.
        "serve.standing_s": (tracer.self_times().get("serve.refresh", 0.0), "s"),
        "serve.snapshot_swaps": (
            float(serve_after["snapshot_swaps"] - serve_before["snapshot_swaps"]), "count"),
        "serve.standing_notifications": (
            float(serve_after["standing_notifications"] - serve_before["standing_notifications"]),
            "count",
        ),
        "serve.lookup_wire_p50_ms": (percentile(wire, 0.5), "ms"),
        "serve.lookup_bytes": (bytes_of("lookup"), "bytes"),
        "serve.scan_bytes": (bytes_of("scan"), "bytes"),
        "serve.follow_wait_p50_ms": (percentile(follow_wait, 0.5), "ms"),
        "serve.drain_exit_code": (float(max(base.drain_exit_code, traced.drain_exit_code)), "code"),
        "algebra.lookup_eval_p50_ms": (percentile(lookup_eval, 0.5), "ms"),
        "algebra.scan_eval_p50_ms": (percentile(scan_eval, 0.5), "ms"),
        "algebra.scanned_per_row": (scanned / max(1, actual), "ratio"),
        "loadgen.writer_late_p90_ms": (percentile(traced.late_ms, 0.9), "ms"),
        "trace.lookup_base_ms": (base_lookup, "ms"),
        "trace.lookup_overhead_ratio": ((lookups_p50(traced) - base_lookup) / base_lookup, "ratio"),
    }
