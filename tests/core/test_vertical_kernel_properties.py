"""Property tests for the raw-int vertical kernels and the item-shard plan.

``vertical`` and ``vertical_direct`` intersect plain ``int`` row bits.  The
``BitVector`` kernels below are oracles of their enumerations: on random
windows and thresholds both algorithms must return the identical patterns
(in the identical depth-first insertion order) and count the identical
number of intersections.  Independently of any order, ``vertical`` (and
``vertical_disk``) must equal a brute-force support count over every subset
of the frequent items.  The union of ``mine_shard`` over
``plan_items(frequent_items)`` must equal ``mine`` for 1-4 shards, and on a
``zipf-transactions[medium]`` window two shards must share the
intersections evenly.
"""

from itertools import combinations

from hypothesis import given, settings, strategies as st

from repro.core.algorithms import get_algorithm
from repro.core.algorithms.base import resolve_minsup
from repro.datasets.workloads import get_workload, stream_transactions
from repro.graph.edge_registry import EdgeRegistry
from repro.parallel.merge import merge_pattern_rows
from repro.parallel.planner import ShardPlanner
from repro.storage.backend import MemoryWindowStore
from repro.stream.batch import Batch

REGISTRY = EdgeRegistry.complete_graph(range(5))  # 10 edge items
ITEMS = REGISTRY.items()


def reference_vertical(store, minsup):
    """The ``BitVector`` Eclat enumeration of ``VerticalMiner.mine``.

    Items in ascending ``(support, item)`` order; the last start item first;
    each prefix tried only against its parent's frequent extensions, from
    the last in the order to the first.
    """
    patterns = {}
    intersections = 0
    rows = {item: store.row(item) for item in store.frequent_items(minsup)}
    order = sorted(rows, key=lambda item: (rows[item].count(), item))

    def extend(prefix, vector, candidates):
        nonlocal intersections
        found = []
        for item in candidates:
            intersection = vector.intersect(rows[item])
            intersections += 1
            support = intersection.count()
            if support < minsup:
                continue
            extended = prefix + (item,)
            patterns[frozenset(extended)] = support
            extend(extended, intersection, list(found))
            found.append(item)

    for index in reversed(range(len(order))):
        item = order[index]
        patterns[frozenset({item})] = rows[item].count()
        extend((item,), rows[item], order[:index:-1])
    return patterns, intersections


def reference_direct(store, minsup, registry):
    """The ``BitVector`` stack loop of ``VerticalDirectMiner.mine``."""
    patterns = {}
    intersections = 0
    frequent = store.frequent_items(minsup)
    frequent_set = set(frequent)
    rows = {item: store.row(item) for item in frequent}
    neighbors = {item: registry.neighbors_of(item) for item in frequent}
    for item in frequent:
        patterns[frozenset({item})] = rows[item].count()
    for start in frequent:
        seen = set()
        stack = [(frozenset({start}), rows[start], neighbors[start])]
        while stack:
            itemset, vector, neighborhood = stack.pop()
            for candidate in sorted(neighborhood):
                if candidate <= start or candidate not in frequent_set:
                    continue
                extended = itemset | {candidate}
                if extended in seen:
                    continue
                seen.add(extended)
                intersection = vector.intersect(rows[candidate])
                intersections += 1
                support = intersection.count()
                if support < minsup:
                    continue
                patterns[extended] = support
                grown = (neighborhood | neighbors.get(candidate, frozenset())) - extended
                stack.append((extended, intersection, frozenset(grown)))
    return patterns, intersections


transactions = st.lists(
    st.lists(st.sampled_from(ITEMS), min_size=1, max_size=6, unique=True).map(
        lambda items: tuple(sorted(items))
    ),
    min_size=1,
    max_size=8,
)


@st.composite
def windows_and_transactions(draw):
    """A store that has slid over 1-6 batches with a window of 1-3, and the
    transactions its window holds."""
    window_size = draw(st.integers(min_value=1, max_value=3))
    batches = draw(st.lists(transactions, min_size=1, max_size=6))
    store = MemoryWindowStore(window_size)
    for index, batch in enumerate(batches):
        store.append_batch(Batch(batch, batch_id=index))
    return store, [set(txn) for batch in batches[-window_size:] for txn in batch]


def windows():
    """The store of :func:`windows_and_transactions` alone."""
    return windows_and_transactions().map(lambda drawn: drawn[0])


minsups = st.integers(min_value=1, max_value=4)


@settings(max_examples=80, deadline=None)
@given(windows(), minsups)
def test_vertical_matches_the_bitvector_kernel(store, minsup):
    miner = get_algorithm("vertical")
    patterns = miner.mine(store, minsup)
    expected, intersections = reference_vertical(store, minsup)
    assert list(patterns.items()) == list(expected.items())
    assert miner.stats.bitvector_intersections == intersections
    assert miner.stats.patterns_found == len(expected)


@settings(max_examples=60, deadline=None)
@given(
    windows_and_transactions(),
    minsups,
    st.sampled_from(["vertical", "vertical_disk"]),
)
def test_vertical_equals_brute_force_support_counts(drawn, minsup, name):
    """Order-independent: a candidate list that dropped a frequent
    extension would lose every pattern below it."""
    store, window = drawn
    frequent = store.frequent_items(minsup)
    expected = {}
    for size in range(1, len(frequent) + 1):
        for subset in combinations(frequent, size):
            support = sum(1 for txn in window if txn.issuperset(subset))
            if support >= minsup:
                expected[frozenset(subset)] = support
    assert get_algorithm(name).mine(store, minsup) == expected


@settings(max_examples=80, deadline=None)
@given(windows(), minsups)
def test_vertical_direct_matches_the_bitvector_kernel(store, minsup):
    miner = get_algorithm("vertical_direct")
    patterns = miner.mine(store, minsup, registry=REGISTRY)
    expected, intersections = reference_direct(store, minsup, REGISTRY)
    assert list(patterns.items()) == list(expected.items())
    assert miner.stats.bitvector_intersections == intersections


@settings(max_examples=60, deadline=None)
@given(
    windows(),
    minsups,
    st.integers(min_value=1, max_value=4),
    st.sampled_from(["vertical", "vertical_direct"]),
)
def test_shards_over_frequent_items_partition_mine(store, minsup, shards, name):
    full = get_algorithm(name)
    expected = full.mine(store, minsup, registry=REGISTRY)
    plan = ShardPlanner(shards).plan_items(store.frequent_items(minsup))
    parts = []
    intersections = 0
    for shard in plan:
        miner = get_algorithm(name)
        parts.append(miner.mine_shard(store, minsup, shard.items, registry=REGISTRY))
        intersections += miner.stats.bitvector_intersections
    assert merge_pattern_rows(parts) == expected
    assert sum(len(part) for part in parts) == len(expected)  # disjoint
    assert intersections == full.stats.bitvector_intersections


def test_two_round_robin_shards_balance_the_intersections():
    """Ascending-support order spreads the search over round-robin stripes
    of the canonical item order: on the first ``zipf-transactions[medium]``
    window (10 x 500, minsup 0.05) the heavier of two shards does at most
    58 % of the intersections (canonical-order search: 72 %)."""
    units = list(
        stream_transactions(get_workload("zipf-transactions[medium]"), limit=5_000)
    )
    store = MemoryWindowStore(10)
    for index in range(10):
        store.append_batch(Batch(units[index * 500:(index + 1) * 500], batch_id=index))
    minsup = resolve_minsup(0.05, store.num_columns)
    full = get_algorithm("vertical")
    full.mine(store, minsup)
    counts = []
    for shard in ShardPlanner(2).plan_items(store.frequent_items(minsup)):
        miner = get_algorithm("vertical")
        miner.mine_shard(store, minsup, shard.items)
        counts.append(miner.stats.bitvector_intersections)
    assert len(counts) == 2
    assert sum(counts) == full.stats.bitvector_intersections
    assert max(counts) <= 0.58 * sum(counts)
