"""Shared helpers: the source checkout, seeded inputs, statistics, resources.

Inputs are generated here, outside every timed region.  The program under
test only ever sees the generated units; nothing in ``repro`` is told which
workload or seed it is running.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import os
import random
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: journals (removed after each run)
#: and the span dumps of traced runs (kept).
WORK_ROOT = ROOT / ".perfbench"


class BenchError(RuntimeError):
    """The benchmark cannot run (e.g. the program's sources are missing)."""


def ensure_source() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}; nothing to benchmark")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for child processes that import ``repro`` from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------- #
# seeded inputs
# ---------------------------------------------------------------------- #
def zipf_units(seed: int, pool_units: int, total_units: int) -> List[tuple]:
    """``total_units`` transactions of the ``zipf-transactions[medium]`` shape.

    The transaction pool is the canonical spec's own stream (its pinned
    pattern pool and skew); the benchmark seed draws the stream as a
    sequence of seeded shuffles of that pool.  Reseeding the generator
    itself would also redraw the pattern pool, which moves the per-slide
    pattern count by 2x between seeds (523 to 1128 patterns per slide at
    minsup 0.05) and would make runs with different seeds incomparable.
    """
    from repro.datasets.workloads import get_workload, stream_transactions

    spec = get_workload("zipf-transactions[medium]")
    pool = list(stream_transactions(spec, limit=pool_units))
    rng = random.Random(seed)
    units: List[tuple] = []
    while len(units) < total_units:
        order = list(pool)
        rng.shuffle(order)
        units.extend(order)
    return units[:total_units]


def graph_units(seed: int, prefix_units: int) -> list:
    """A ``random-graph[medium]`` snapshot prefix sampled with ``seed``.

    The graph model (edge universe and centrality) is the spec's; the
    snapshot sampler, including its drift schedule, runs on the seed.
    """
    from repro.datasets.random_graphs import GraphStreamGenerator, RandomGraphModel
    from repro.datasets.workloads import get_workload

    spec = dataclasses.replace(get_workload("random-graph[medium]"), num_units=prefix_units)
    model = RandomGraphModel(
        num_vertices=spec.num_vertices,
        avg_fanout=spec.avg_fanout,
        topology=spec.topology,
        centrality_skew=spec.centrality_skew,
        seed=spec.seed,
    )
    generator = GraphStreamGenerator(
        model,
        avg_edges_per_snapshot=spec.avg_edges_per_snapshot,
        drift_interval=spec.drift_interval,
        seed=seed,
    )
    return list(generator.snapshots(spec.num_units))


def replay(prefix: Sequence, times: int):
    """The prefix ``times`` over, lazily."""
    return itertools.chain.from_iterable(itertools.repeat(prefix, times))


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    if not values:
        raise BenchError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile."""
    return count - max(1, math.ceil(q * count))


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def file_digest(path: Path) -> str:
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            hasher.update(block)
    return hasher.hexdigest()


# ---------------------------------------------------------------------- #
# resources
# ---------------------------------------------------------------------- #
_PAGE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def rss_mb(pid: Optional[int] = None) -> float:
    """Current resident set size of a process (this one by default)."""
    where = "self" if pid is None else str(pid)
    with open(f"/proc/{where}/statm", "r", encoding="ascii") as handle:
        resident = int(handle.read().split()[1])
    return resident * _PAGE / 2**20


def peak_rss_mb(pid: int) -> float:
    """High-water resident set size (``VmHWM``) of a live process."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise BenchError(f"no VmHWM for process {pid}")


def stop_helper_processes() -> None:
    """Stop and reap every process this run started, before it exits.

    The pool's workers are joined by the miner's ``close``; this catches
    any that are left, and then stops ``multiprocessing``'s resource
    tracker, which the shared-memory transport starts on first use and
    which would otherwise outlive this process for a moment.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def shm_blocks() -> frozenset:
    """Names of the program's shared-memory blocks currently linked."""
    try:
        return frozenset(name for name in os.listdir("/dev/shm") if name.startswith("psm_"))
    except FileNotFoundError:
        return frozenset()
