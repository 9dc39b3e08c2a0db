"""Property-based tests: the three window structures agree with each other.

For any random stream of batches, after feeding everything through a sliding
window of size ``w``:

* DSMatrix, DSTable and DSTree must all represent exactly the transactions of
  the last ``w`` batches (as multisets);
* their per-item frequencies must agree;
* DSMatrix persistence must round-trip.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.storage.dsmatrix import DSMatrix
from repro.storage.dstable import DSTable
from repro.storage.dstree import DSTree
from repro.stream.batch import Batch

ITEMS = ["a", "b", "c", "d", "e"]

transactions_strategy = st.lists(
    st.sets(st.sampled_from(ITEMS), min_size=0, max_size=5).map(sorted).map(tuple),
    min_size=0,
    max_size=6,
)
batches_strategy = st.lists(
    transactions_strategy.map(Batch), min_size=1, max_size=6
)
window_sizes = st.integers(min_value=1, max_value=4)


def expected_window_transactions(batches, window_size):
    recent = batches[-window_size:]
    expected = Counter()
    for batch in recent:
        expected.update(batch.transactions)
    return expected


@settings(max_examples=60, deadline=None)
@given(batches_strategy, window_sizes)
def test_dsmatrix_holds_last_w_batches(batches, window_size):
    matrix = DSMatrix(window_size=window_size)
    for batch in batches:
        matrix.append_batch(batch)
    assert Counter(matrix.transactions()) == expected_window_transactions(
        batches, window_size
    )


@settings(max_examples=60, deadline=None)
@given(batches_strategy, window_sizes)
def test_dstable_holds_last_w_batches(batches, window_size):
    table = DSTable(window_size=window_size)
    for batch in batches:
        table.append_batch(batch)
    assert Counter(table.transactions()) == expected_window_transactions(
        batches, window_size
    )


@settings(max_examples=60, deadline=None)
@given(batches_strategy, window_sizes)
def test_dstree_holds_last_w_batches(batches, window_size):
    tree = DSTree(window_size=window_size)
    for batch in batches:
        tree.append_batch(batch)
    reconstructed = Counter()
    for itemset, count in tree.weighted_transactions():
        reconstructed[itemset] += count
    expected = expected_window_transactions(batches, window_size)
    # The DSTree cannot represent empty transactions (they add no nodes).
    expected.pop((), None)
    assert reconstructed == expected
    assert tree.check_count_invariant()


@settings(max_examples=40, deadline=None)
@given(batches_strategy, window_sizes)
def test_structures_agree_on_item_frequencies(batches, window_size):
    matrix = DSMatrix(window_size=window_size)
    table = DSTable(window_size=window_size)
    tree = DSTree(window_size=window_size)
    for batch in batches:
        matrix.append_batch(batch)
        table.append_batch(batch)
        tree.append_batch(batch)
    matrix_counts = {k: v for k, v in matrix.item_frequencies().items() if v}
    table_counts = {k: v for k, v in table.item_frequencies().items() if v}
    tree_counts = {k: v for k, v in tree.item_frequencies().items() if v}
    assert matrix_counts == table_counts == tree_counts


@settings(max_examples=30, deadline=None)
@given(batches_strategy, window_sizes)
def test_dsmatrix_persistence_round_trip(tmp_path_factory, batches, window_size):
    target = tmp_path_factory.mktemp("dsm") / "window"
    matrix = DSMatrix(window_size=window_size, path=target)
    for batch in batches:
        matrix.append_batch(batch)
    restored = DSMatrix.load(target)
    assert list(restored.transactions()) == list(matrix.transactions())
    assert restored.boundaries() == matrix.boundaries()
