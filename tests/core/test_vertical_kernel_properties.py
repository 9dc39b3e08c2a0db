"""Property tests for the raw-int vertical kernels and the item-shard plan.

``vertical`` and ``vertical_direct`` intersect plain ``int`` row bits.  The
``BitVector`` kernels they replaced are kept here as oracles: on random
windows and thresholds both algorithms must return the identical patterns
(in the identical depth-first insertion order) and count the identical
number of intersections.  The union of ``mine_shard`` over
``plan_items(frequent_items)`` must equal ``mine`` for 1-4 shards.
"""

from hypothesis import given, settings, strategies as st

from repro.core.algorithms import get_algorithm
from repro.graph.edge_registry import EdgeRegistry
from repro.parallel.merge import merge_pattern_counts
from repro.parallel.planner import ShardPlanner
from repro.storage.backend import MemoryWindowStore
from repro.stream.batch import Batch

REGISTRY = EdgeRegistry.complete_graph(range(5))  # 10 edge items
ITEMS = REGISTRY.items()


def reference_vertical(store, minsup):
    """The ``BitVector`` depth-first kernel of ``VerticalMiner.mine``."""
    patterns = {}
    intersections = 0
    frequent = store.frequent_items(minsup)
    rows = {item: store.row(item) for item in frequent}
    for item in frequent:
        patterns[frozenset({item})] = rows[item].count()

    def extend(prefix, vector, start):
        nonlocal intersections
        for index in range(start, len(frequent)):
            item = frequent[index]
            intersection = vector.intersect(rows[item])
            intersections += 1
            support = intersection.count()
            if support < minsup:
                continue
            extended = prefix + (item,)
            patterns[frozenset(extended)] = support
            extend(extended, intersection, index + 1)

    for index, item in enumerate(frequent):
        extend((item,), rows[item], index + 1)
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
def windows(draw):
    """A store that has slid over 1-6 batches with a window of 1-3."""
    store = MemoryWindowStore(draw(st.integers(min_value=1, max_value=3)))
    for index, batch in enumerate(draw(st.lists(transactions, min_size=1, max_size=6))):
        store.append_batch(Batch(batch, batch_id=index))
    return store


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
    assert merge_pattern_counts(parts) == expected
    assert sum(len(part) for part in parts) == len(expected)  # disjoint
    assert intersections == full.stats.bitvector_intersections
