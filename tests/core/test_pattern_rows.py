"""Integer pattern rows from the kernels to the journal (DESIGN.md §4.2, §10.1).

A pattern leaves every mining kernel as a bitmask over the window's sorted
frequent items plus a support (:class:`~repro.core.patterns.PatternRows`),
shards are merged by concatenation and the sealer sorts one int key per
row.  The streams here drift: the frequent-item table changes between
slides and new items appear mid-stream, so masks of one pattern differ
from slide to slide.  Every vertical kernel, sequential or over two
workers, must journal the bytes the sequential ``fptree_multi`` watch
journals (an independent algorithm that reaches rows only through
:meth:`~repro.core.patterns.PatternRows.from_counts`).
"""

import pickle
import random

import pytest

from repro.core.miner import StreamSubgraphMiner
from repro.core.patterns import MiningResult, PatternRows
from repro.graph.edge import Edge
from repro.graph.graph import GraphSnapshot
from repro.history.journal import DATA_NAME, DiskJournal, MemoryJournal
from repro.stream.stream import GraphStream, TransactionStream

BATCH = 12
WINDOW = 3


def drifting_transactions(count=144, seed=3, period=1):
    """Items ``i00``.. whose popular band moves one item every ``period`` batches."""
    rng = random.Random(seed)
    units = []
    for index in range(count):
        base = index // (BATCH * period)
        band = [f"i{base + offset:02d}" for offset in range(6)]
        units.append(tuple(sorted(set(rng.sample(band, rng.randint(2, 4))))))
    return units


def drifting_snapshots(count=144, seed=5):
    """Graph snapshots over vertices that move one step every batch."""
    rng = random.Random(seed)
    snapshots = []
    for index in range(count):
        base = index // BATCH
        vertices = [f"v{base + offset:02d}" for offset in range(5)]
        edges = {
            Edge(*rng.sample(vertices, 2)) for _ in range(rng.randint(2, 4))
        }
        snapshots.append(GraphSnapshot(edges))
    return snapshots


def watch_journal(path, kind, algorithm, workers):
    journal = DiskJournal(path)
    with StreamSubgraphMiner(
        window_size=WINDOW, batch_size=BATCH, algorithm=algorithm, on_slide=journal.append
    ) as miner:
        if kind == "graph":
            stream = GraphStream(
                drifting_snapshots(), registry=miner.registry, batch_size=BATCH
            )
        else:
            stream = TransactionStream(drifting_transactions(), batch_size=BATCH)
        miner.watch(stream, 3, connected_only=kind == "graph", workers=workers)
    journal.close()
    return journal


@pytest.fixture(scope="module")
def references(tmp_path_factory):
    root = tmp_path_factory.mktemp("reference")
    journals = {
        kind: watch_journal(root / kind, kind, "fptree_multi", 0)
        for kind in ("graph", "transactions")
    }
    return {kind: journal for kind, journal in journals.items()}


@pytest.mark.parametrize("kind", ["graph", "transactions"])
def test_the_reference_streams_drift(references, kind):
    records = references[kind].records()
    tables = [tuple(record.items()) for record in records]
    changed = sum(a != b for a, b in zip(tables, tables[1:]))
    assert len(records) == 12
    assert changed >= len(records) // 2
    first_items = set(tables[0])
    assert any(set(table) - first_items for table in tables[WINDOW:])  # new items


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize(
    "kind,algorithm",
    [
        ("graph", "vertical"),
        ("graph", "vertical_disk"),
        ("graph", "vertical_direct"),
        ("transactions", "vertical"),
        ("transactions", "vertical_disk"),
    ],
)
def test_row_kernels_journal_the_fptree_multi_bytes(
    references, tmp_path, kind, algorithm, workers
):
    journal = watch_journal(tmp_path / "journal", kind, algorithm, workers)
    expected = (references[kind].path / DATA_NAME).read_bytes()
    assert (journal.path / DATA_NAME).read_bytes() == expected


def test_consecutive_records_share_their_item_tuples():
    journal = MemoryJournal()
    with StreamSubgraphMiner(
        window_size=WINDOW, batch_size=BATCH, algorithm="vertical", on_slide=journal.append
    ) as miner:
        miner.watch(
            TransactionStream(drifting_transactions(period=2), batch_size=BATCH), 3,
            connected_only=False,
        )
    records = journal.records()
    shared = 0
    for before, after in zip(records, records[1:]):
        previous = {items: items for items, _ in before.patterns}
        for items, _ in after.patterns:
            if items in previous:
                assert items is previous[items], (after.slide_id, items)
                shared += 1
    assert shared > 0
    # A resident record keeps its tuples, not the masks it was sealed with.
    assert not any("_masks" in vars(record) for record in records)
    # Both paths ran: slides over an unchanged table and over a changed one.
    tables = [tuple(record.items()) for record in records]
    assert {a == b for a, b in zip(tables, tables[1:])} == {True, False}


def test_the_watch_path_builds_no_pattern_dict(monkeypatch):
    """Kernel to ``to_bytes`` without the ``Mapping[frozenset, int]`` view."""

    def refuse(self):
        raise AssertionError("the watch path materialised the pattern dict")

    monkeypatch.setattr(PatternRows, "by_items", refuse)
    for kind, algorithm in (("transactions", "vertical"), ("graph", "vertical_direct")):
        journal = MemoryJournal()
        with StreamSubgraphMiner(
            window_size=WINDOW, batch_size=BATCH, algorithm=algorithm,
            on_slide=lambda record: journal.append(record) or record.to_bytes(),
        ) as miner:
            if kind == "graph":
                stream = GraphStream(
                    drifting_snapshots(), registry=miner.registry, batch_size=BATCH
                )
            else:
                stream = TransactionStream(drifting_transactions(), batch_size=BATCH)
            report = miner.watch(stream, 3, connected_only=kind == "graph")
        assert report.slides == len(journal) == 12


class TestPatternRows:
    def test_rows_read_as_the_frozenset_mapping(self):
        rows = PatternRows(("a", "b", "c"), [0b001, 0b011, 0b110], [5, 3, 2])
        assert rows == {
            frozenset("a"): 5, frozenset("ab"): 3, frozenset("bc"): 2,
        }
        assert rows[frozenset("ab")] == 3
        assert frozenset("ac") not in rows
        assert len(rows) == 3
        assert rows.items_of(0b110) == ("b", "c")

    def test_rows_pickle_as_ints(self):
        rows = PatternRows(("a", "b"), [0b01, 0b11], [4, 2])
        rows.by_items()  # the derived view does not travel
        payload = pickle.dumps(rows)
        assert b"frozenset" not in payload
        assert pickle.loads(payload) == rows

    def test_from_counts_encodes_over_a_given_table(self):
        rows = PatternRows.from_counts({frozenset("b"): 2}, symbols=("a", "b", "c"))
        assert rows.symbols == ("a", "b", "c")
        assert rows.masks == [0b010]

    def test_sealing_drops_table_entries_no_row_uses(self):
        from repro.history.journal import SlideRecord, SlideSealer

        rows = PatternRows(("a", "b", "c"), [0b100, 0b101], [3, 2])
        record = SlideSealer().seal(
            rows, slide_id=0, first_batch=0, last_batch=0, num_columns=9, minsup=1
        )
        assert record.items() == ["a", "c"]
        reference = SlideRecord(0, 0, 0, 9, 1, {("c",): 3, ("a", "c"): 2})
        assert record.to_bytes() == reference.to_bytes()

    def test_mining_result_keeps_rows_and_lazy_mapping(self):
        rows = PatternRows(("a", "b"), [0b01, 0b10, 0b11], [4, 3, 2])
        result = MiningResult.from_counts(rows)
        assert result.rows is rows
        assert len(result) == 3
        assert result.size_histogram() == {1: 2, 2: 1}
        assert result.max_pattern_size() == 2
        assert result.support_of(["b", "a"]) == 2
