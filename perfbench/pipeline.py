"""The three pipeline workloads: ``watch`` a stream into a journal and an index.

One *pass* is what a user of ``repro watch`` plus a live dashboard does:
a fresh :class:`~repro.core.miner.StreamSubgraphMiner` watches the whole
generated stream; its slide sink appends every sealed record to a
:class:`~repro.history.journal.DiskJournal` and refreshes a
:class:`~repro.serve.app.ServeApp` over that journal, which advances five
standing queries and delivers their transitions.  A run repeats passes
over the same input until ``--seconds`` have been measured.

Slide latency runs from the pull of a slide's last raw input unit to the
return of its sink chain.  Under ``ingest_workers`` the ingestion planner
pulls the whole input before the first commit, so there the latency also
counts the slide's wait in the ingestion pipeline.
"""

from __future__ import annotations

import gc
import multiprocessing
import random
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from perfbench.common import (
    beyond,
    file_digest,
    graph_units,
    median,
    percentile,
    replay,
    rss_mb,
    shm_blocks,
    zipf_units,
)
from perfbench.metrics import RunOutcome
from perfbench.trace import Tracer

#: The traced per-layer self times must add up to the traced ``watch``
#: time within this share of it (see :func:`closure_error`).
CLOSURE_TOLERANCE = 0.02
#: Sample every n-th slide's resident set size inside the sink chain.
RSS_EVERY = 4


@dataclass(frozen=True)
class PipelineConfig:
    name: str
    kind: str  # "transactions" | "graph"
    algorithm: str
    minsup: float
    batch_size: int
    window_size: int
    #: Units generated in set-up, and how often the stream replays them.
    prefix_units: int
    replays: int
    #: Transaction streams: the canonical pool the seeded shuffles draw from.
    pool_units: int = 25_000
    workers: int = 0
    ingest_workers: Optional[int] = None
    #: Slides re-mined by the second algorithm in the correctness gate.
    check_slides: int = 2

    @property
    def units(self) -> int:
        return self.prefix_units * self.replays

    @property
    def connected_only(self) -> bool:
        return self.kind == "graph"

    @property
    def reference_algorithm(self) -> str:
        # E1's equivalences: fptree_multi reproduces vertical on itemsets;
        # vertical plus the exact connectivity post-filter reproduces the
        # direct algorithm on graph streams.
        return "vertical" if self.kind == "graph" else "fptree_multi"


CONFIGS: Dict[str, PipelineConfig] = {
    "ingest-graph": PipelineConfig(
        name="ingest-graph",
        kind="graph",
        algorithm="vertical_direct",
        minsup=0.15,
        batch_size=200,
        window_size=10,
        prefix_units=10_000,
        replays=20,
        check_slides=3,
    ),
    "parallel-zipf": PipelineConfig(
        name="parallel-zipf",
        kind="transactions",
        algorithm="vertical",
        minsup=0.05,
        batch_size=500,
        window_size=10,
        prefix_units=50_000,
        replays=1,
        workers=2,
        ingest_workers=1,
    ),
}


@dataclass
class PipelineInput:
    """Everything set-up produces: the raw units and the standing queries."""

    prefix: list
    replays: int
    standing: List[dict]

    def units(self):
        return replay(self.prefix, self.replays)


def sequential(config: PipelineConfig) -> PipelineConfig:
    """The same workload watched in one process (no workers, no ingestion)."""
    return replace(config, name=f"{config.name}/sequential", workers=0, ingest_workers=None)


def scaled(config: PipelineConfig, scale: float) -> PipelineConfig:
    """A smaller copy of ``config`` (the benchmark's own tests use it)."""
    if scale >= 1:
        return config
    prefix = max(config.batch_size * config.window_size * 2, int(config.prefix_units * scale))
    prefix -= prefix % config.batch_size
    return replace(
        config,
        prefix_units=prefix,
        replays=max(1, int(config.replays * scale)),
        pool_units=min(config.pool_units, prefix),
    )


def setup(config: PipelineConfig, seed: int) -> PipelineInput:
    """Generate the input and pick the standing queries (timed as set-up)."""
    if config.kind == "graph":
        prefix = graph_units(seed, config.prefix_units)
        # Edge symbols are assigned in first-seen order, so the low ones
        # are the early, central edges.
        candidates = [f"e{index}" for index in range(20)]
    else:
        prefix = zipf_units(seed, config.pool_units, config.prefix_units)
        counts = Counter(item for unit in prefix[:5_000] for item in unit)
        candidates = sorted(counts, key=lambda item: (-counts[item], item))[:20]
    rng = random.Random(seed)
    standing: List[dict] = [{"top_k": {"k": 10}}, {"top_k": {"k": 25}}]
    for item in rng.sample(candidates, 3):
        standing.append({"top_k": {"k": 5, "where": {"contains": [item]}}})
    return PipelineInput(prefix=prefix, replays=config.replays, standing=standing)


# ---------------------------------------------------------------------- #
# one pass
# ---------------------------------------------------------------------- #
@dataclass
class PassResult:
    units: int
    watch_s: float
    latencies_ms: List[float]
    digest: str
    rss_peak_mb: float
    slides: int
    patterns: int
    journal_bytes: int
    notifications: int
    snapshot_swaps: int
    row_hit_ratio: float
    pool_spawns: int
    degradations: int
    retries: int
    peak_inflight: int
    shm_leaked: int
    orphan_procs: int
    records: tuple = ()
    #: Traced passes only: seconds per layer, and the intersection count.
    layers: Dict[str, float] = field(default_factory=dict)
    intersections: int = 0
    tail_polls: int = 0
    closure_error: float = 0.0


def _stamped(units, batch_size: int, stamps: List[float]):
    """Yield the units, stamping the pull of every batch's last unit."""
    filled = 0
    for unit in units:
        filled += 1
        if filled == batch_size:
            stamps.append(perf_counter())
            filled = 0
        yield unit
    if filled:
        stamps.append(perf_counter())


def run_pass(
    config: PipelineConfig,
    data: PipelineInput,
    workdir: Path,
    tracer: Optional[Tracer] = None,
    keep_records: bool = False,
    with_app: bool = True,
) -> PassResult:
    """One full ``watch`` of the input; ``tracer`` records its spans."""
    from repro.core.miner import StreamSubgraphMiner
    from repro.history.journal import DATA_NAME, DiskJournal
    from repro.serve.app import ServeApp
    from repro.stream.stream import GraphStream, TransactionStream

    journal_dir = Path(tempfile.mkdtemp(prefix="journal-", dir=workdir))
    journal = DiskJournal(journal_dir)
    app = ServeApp.from_journal(journal) if with_app else None
    delivered: List[object] = []
    if app is not None:
        for expression in data.standing:
            app.subscribe(expression, sink=delivered.append)
    stamps: List[float] = []
    done: List[float] = []
    rss_samples: List[float] = []

    def sink(record) -> None:
        journal.append(record)
        if app is not None:
            app.refresh()
        done.append(perf_counter())
        if len(done) % RSS_EVERY == 0:
            rss_samples.append(rss_mb())
        if tracer is not None:
            tracer.trace_id += 1

    miner = StreamSubgraphMiner(
        window_size=config.window_size,
        batch_size=config.batch_size,
        algorithm=config.algorithm,
        on_slide=sink,
    )
    raw = _stamped(data.units(), config.batch_size, stamps)
    if config.kind == "graph":
        stream = GraphStream(raw, registry=miner.registry, batch_size=config.batch_size)
    else:
        stream = TransactionStream(raw, batch_size=config.batch_size)

    first_span = 0
    mine_stats: List[int] = []
    if tracer is not None:
        first_span = len(tracer.spans)
        _instrument(tracer, miner, journal, app, stream, mine_stats)
        root = tracer.open("watch")
    shm_before = shm_blocks()
    started = perf_counter()
    try:
        report = miner.watch(
            stream,
            config.minsup,
            connected_only=config.connected_only,
            workers=config.workers,
            ingest_workers=config.ingest_workers,
        )
    finally:
        finished = perf_counter()
        if tracer is not None:
            tracer.close(root)
        pool = miner.mining_pool
        pool_spawns = pool.spawn_count if pool is not None else 0
        miner.close()
    rss_samples.append(rss_mb())
    orphan_procs = len(multiprocessing.active_children())
    shm_leaked = len(shm_blocks() - shm_before)
    events = miner.resilience_events
    ingest_report = miner.last_ingest_report
    cache = miner.matrix.cache_stats
    lookups = cache.row_hits + cache.row_misses
    journal.close()
    records = journal.records()
    result = PassResult(
        units=config.units,
        watch_s=finished - started,
        latencies_ms=[(end - begin) * 1000 for begin, end in zip(stamps, done)],
        digest=file_digest(journal_dir / DATA_NAME),
        rss_peak_mb=max(rss_samples),
        slides=report.slides,
        patterns=sum(record.pattern_count for record in records),
        journal_bytes=(journal_dir / DATA_NAME).stat().st_size,
        notifications=len(delivered),
        snapshot_swaps=app.index.swaps if app is not None else 0,
        row_hit_ratio=cache.row_hits / lookups if lookups else 0.0,
        pool_spawns=pool_spawns,
        degradations=sum(1 for event in events if event.kind == "degrade"),
        retries=sum(1 for event in events if event.kind == "retry"),
        peak_inflight=ingest_report.peak_inflight if ingest_report else 0,
        shm_leaked=shm_leaked,
        orphan_procs=orphan_procs,
        records=records if keep_records else (),
    )
    if len(done) != report.slides or len(stamps) != report.slides:
        raise RuntimeError(
            f"{report.slides} slides but {len(stamps)} input stamps and "
            f"{len(done)} sink returns"
        )
    if tracer is not None:
        _attribute(tracer, first_span, config, result, mine_stats)
    if app is not None:
        app.close()
    shutil.rmtree(journal_dir, ignore_errors=True)
    return result


def _instrument(tracer, miner, journal, app, stream, mine_stats: List[int]) -> None:
    """Wrap the public calls on this pass's own objects."""
    original_batches = stream.batches
    stream.batches = lambda: tracer.iterate(original_batches(), "stream.encode")
    tracer.wrap(miner, "add_batch", "storage.commit")
    # The ingestion coordinator commits straight into the window store.
    tracer.wrap(miner.matrix.store, "append_segment", "storage.commit")
    mine = miner.mine

    def traced_mine(*args, **kwargs):
        index = tracer.open("core.mine")
        try:
            return mine(*args, **kwargs)
        finally:
            tracer.close(index)
            mine_stats.append(miner.algorithm.stats.bitvector_intersections)

    miner.mine = traced_mine
    tracer.wrap(journal, "append", "history.journal_append")
    if app is not None:
        tracer.wrap(app, "refresh", "serve.refresh")
        tracer.wrap(app, "pending_records", "history.tail_poll")
        tracer.wrap(app.index, "extend", "serve.index_extend")


#: Span name -> the per-layer metric its self time is reported under.
LAYER_OF_SPAN = {
    "stream.encode": "stream.encode_s",
    "storage.commit": "storage.commit_s",
    "core.mine": "core.mine_s",
    "history.journal_append": "history.journal_append_s",
    "history.tail_poll": "history.tail_poll_s",
    "serve.refresh": "serve.standing_s",
    "serve.index_extend": "serve.index_extend_s",
    "ingest.wait": "ingest.wait_s",
    # The root's self time is the named residual: SlideRecord sealing
    # plus the watch loop itself.
    "watch": "history.seal_s",
}


def _attribute(tracer: Tracer, first: int, config, result: PassResult, mine_stats) -> None:
    """Self times per layer and the closure check for one traced pass."""
    spans = tracer.spans
    root = first
    if config.ingest_workers is not None:
        # Between two slide hooks the main process waits on the ingestion
        # pipeline (and commits the next chunk): carve those gaps out of
        # the root as ingest.wait spans, with the commits inside them.
        top = [i for i in range(first + 1, len(spans)) if spans[i][3] == root]
        previous_end = spans[root][1]
        commits: List[int] = []
        for index in top:
            name, start, end, _parent, trace_id = spans[index]
            if name == "storage.commit":
                commits.append(index)
            elif name == "core.mine":
                wait = tracer.add("ingest.wait", previous_end, start, root, trace_id)
                for commit in commits:
                    tracer.reparent(commit, wait)
                commits = []
            elif name in ("serve.refresh", "history.journal_append"):
                previous_end = end
    selfs = tracer.self_times(first)
    layers: Dict[str, float] = {}
    for name, seconds in selfs.items():
        metric = LAYER_OF_SPAN[name]
        layers[metric] = layers.get(metric, 0.0) + seconds
    refresh = tracer.durations("serve.refresh", first)
    layers["serve.refresh_s"] = sum(refresh)
    result.tail_polls = len(tracer.durations("history.tail_poll", first))
    result.layers = layers
    result.intersections = sum(mine_stats)
    result.closure_error = closure_error(layers, result.watch_s)


def closure_error(layers: Dict[str, float], watch_s: float) -> float:
    """|sum of layer self times + residual - traced watch time| / watch time.

    Self times are clipped at zero (:meth:`Tracer.self_times`), so spans
    that overlap their siblings or outlast their parent — time counted
    twice — show up here instead of cancelling out.
    """
    parts = sum(seconds for metric, seconds in layers.items() if metric in LAYER_OF_SPAN.values())
    return abs(parts - watch_s) / watch_s


# ---------------------------------------------------------------------- #
# the correctness gate
# ---------------------------------------------------------------------- #
def sample_slides(config: PipelineConfig, slides: int, seed: int) -> List[int]:
    """Seeded slide ids (full windows only) the second algorithm re-mines."""
    rng = random.Random(seed * 7919 + 1)
    full = range(config.window_size - 1, slides)
    return sorted(rng.sample(full, min(config.check_slides, len(full))))


def check_slides(
    config: PipelineConfig,
    data: PipelineInput,
    records: Sequence,
    slide_ids: Sequence[int],
) -> List[str]:
    """Re-mine sampled slides with the reference algorithm; list mismatches.

    The window of each sampled slide is rebuilt from the input prefix in a
    fresh miner (fresh registry: symbols are assigned in stream order, so
    they match the pass), mined with the journalled absolute minsup, and
    compared pattern for pattern with the journalled record.
    """
    from repro.core.miner import StreamSubgraphMiner
    from repro.stream.stream import GraphStream, TransactionStream

    by_id = {record.slide_id: record for record in records}
    wanted = sorted(slide_ids)
    failures: List[str] = []
    miner = StreamSubgraphMiner(
        window_size=config.window_size,
        batch_size=config.batch_size,
        algorithm=config.reference_algorithm,
    )
    if config.kind == "graph":
        batches = GraphStream(
            data.units(), registry=miner.registry, batch_size=config.batch_size
        ).batches()
    else:
        batches = TransactionStream(data.units(), batch_size=config.batch_size).batches()
    with miner:
        for slide, batch in enumerate(batches):
            if slide > wanted[-1]:
                break
            miner.add_batch(batch)
            if slide not in wanted:
                continue
            record = by_id.get(slide)
            if record is None:
                failures.append(f"slide {slide} missing from the journal")
                continue
            result = miner.mine(record.minsup, connected_only=config.connected_only)
            found = sorted(
                ((pattern.sorted_items(), pattern.support) for pattern in result),
                key=lambda entry: (len(entry[0]), entry[0]),
            )
            if tuple(found) != record.patterns:
                failures.append(
                    f"slide {slide}: {config.reference_algorithm} found {len(found)} "
                    f"patterns, the journal holds {record.pattern_count} "
                    "(or supports differ)"
                )
    return failures


# ---------------------------------------------------------------------- #
# a run
# ---------------------------------------------------------------------- #
def run(
    config: PipelineConfig,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    setups: int,
    trace_path: Optional[Path] = None,
) -> RunOutcome:
    setup_times: List[float] = []
    data: Optional[PipelineInput] = None
    for _ in range(setups):
        data = None
        gc.collect()
        started = perf_counter()
        data = setup(config, seed)
        setup_times.append(perf_counter() - started)
    assert data is not None
    gc.collect()
    baseline_rss = rss_mb()

    tracer = Tracer() if trace else None
    passes: List[PassResult] = []
    traced: List[PassResult] = []
    measured = perf_counter()
    while True:
        # A traced run alternates untraced and traced passes: the pair
        # gives the tracing overhead.
        use_tracer = tracer if (len(passes) + len(traced)) % 2 == 1 else None
        result = run_pass(config, data, workdir, tracer=use_tracer, keep_records=not passes)
        (traced if use_tracer is not None else passes).append(result)
        elapsed = perf_counter() - measured
        per_pass = elapsed / (len(passes) + len(traced))
        # Stop at the pass count that lands nearest to ``seconds``.
        if elapsed + per_pass / 2 >= seconds and (not trace or traced):
            break

    # ---- correctness gate (outside every timed region) ---------------- #
    failures: List[str] = []
    digests = {result.digest for result in passes + traced}
    if len(digests) != 1:
        failures.append(f"journal.dat differs between passes of one run: {sorted(digests)}")
    slide_ids = sample_slides(config, passes[0].slides, seed)
    failures.extend(check_slides(config, data, passes[0].records, slide_ids))
    reference_digest = passes[0].digest
    if config.workers or config.ingest_workers is not None:
        # The parallel configuration must journal byte-identically to a
        # sequential watch of the same input.
        reference_digest = run_pass(sequential(config), data, workdir, with_app=False).digest
        if reference_digest != passes[0].digest:
            failures.append("parallel journal.dat differs from the sequential journal.dat")
    for result in passes + traced:
        if result.slides != passes[0].slides or result.notifications != passes[0].notifications:
            failures.append("slides or standing-query notifications differ between passes")
            break
    closure = max((result.closure_error for result in traced), default=0.0)
    if closure > CLOSURE_TOLERANCE:
        failures.append(f"per-layer times miss the traced watch time by {closure:.1%}")

    latencies = [value for result in passes for value in result.latencies_ms]
    watch_s = sum(result.watch_s for result in passes)
    units = sum(result.units for result in passes)
    slides = sum(result.slides for result in passes)
    attempted = slides + len(slide_ids) + 2
    failed = len(failures)
    first = passes[0]
    details: Dict[str, object] = {
        "workload": config.name,
        "seed": seed,
        "passes": len(passes),
        "traced_passes": len(traced),
        "slides_per_pass": first.slides,
        "units_per_pass": first.units,
        "units_per_s": units / watch_s,
        "slide_samples": len(latencies),
        "slide_p90_beyond": beyond(len(latencies), 0.9),
        "patterns_per_slide": first.patterns / first.slides,
        "journal_digest": first.digest,
        "sequential_digest": reference_digest,
        "checked_slides": slide_ids,
        "setup_runs_s": setup_times,
        "error_ratio": failed / attempted,
    }
    if not trace:
        metrics = {
            "setup_s": (median(setup_times), "s"),
            "throughput_per_s": (units / watch_s, "1/s"),
            "slide_p50_ms": (percentile(latencies, 0.5), "ms"),
            "slide_p90_ms": (percentile(latencies, 0.9), "ms"),
            "peak_rss_mb": (max(r.rss_peak_mb for r in passes) - baseline_rss, "MB"),
        }
    else:
        metrics = _layer_metrics(passes, traced)
        if tracer is not None and trace_path is not None:
            tracer.dump(trace_path, meta={"workload": config.name, "seed": seed})
        details["closure_errors"] = [r.closure_error for r in traced]
    return RunOutcome(metrics, details, attempted, failed, failures)


def _layer_metrics(passes: List[PassResult], traced: List[PassResult]):
    """Per-layer metrics of a traced run: medians over the traced passes."""
    first = traced[0]

    def layer(name: str) -> float:
        return median([result.layers.get(name, 0.0) for result in traced])

    untraced_rate = sum(r.units for r in passes) / sum(r.watch_s for r in passes)
    traced_rate = sum(r.units for r in traced) / sum(r.watch_s for r in traced)
    tail_s = layer("history.tail_poll_s")
    return {
        "stream.encode_s": (layer("stream.encode_s"), "s"),
        "storage.commit_s": (layer("storage.commit_s"), "s"),
        "storage.row_hit_ratio": (first.row_hit_ratio, "ratio"),
        "storage.shm_leaked": (float(sum(r.shm_leaked for r in passes + traced)), "count"),
        "core.mine_s": (layer("core.mine_s"), "s"),
        "core.bitvector_intersections": (float(first.intersections), "count"),
        "core.patterns": (float(first.patterns), "count"),
        "history.seal_s": (layer("history.seal_s"), "s"),
        "history.journal_append_s": (layer("history.journal_append_s"), "s"),
        "history.journal_bytes": (float(first.journal_bytes), "bytes"),
        "history.tail_poll_ms": (tail_s * 1000 / max(1, first.tail_polls), "ms"),
        "serve.refresh_s": (layer("serve.refresh_s"), "s"),
        "serve.index_extend_s": (layer("serve.index_extend_s"), "s"),
        "serve.standing_s": (layer("serve.standing_s"), "s"),
        "serve.snapshot_swaps": (float(first.snapshot_swaps), "count"),
        "serve.standing_notifications": (float(first.notifications), "count"),
        "ingest.wait_s": (layer("ingest.wait_s"), "s"),
        "ingest.peak_inflight": (float(first.peak_inflight), "count"),
        "ingest.retries": (float(sum(r.retries for r in passes + traced)), "count"),
        "parallel.pool_spawns": (float(first.pool_spawns), "count"),
        "parallel.degradations": (float(sum(r.degradations for r in passes + traced)), "count"),
        "parallel.orphan_procs": (float(max(r.orphan_procs for r in passes + traced)), "count"),
        "trace.closure_error": (max(r.closure_error for r in traced), "ratio"),
        "trace.units_base_per_s": (untraced_rate, "1/s"),
        "trace.units_overhead_ratio": ((untraced_rate - traced_rate) / untraced_rate, "ratio"),
    }
