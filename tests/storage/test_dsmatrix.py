"""Unit tests for repro.storage.dsmatrix.DSMatrix."""

import pytest

from repro.exceptions import DSMatrixError
from repro.storage.dsmatrix import DSMatrix
from repro.stream.batch import Batch

# Expected row contents of the paper's Example 1 (position 0 = first column).
PAPER_ROWS_AFTER_T6 = {
    "a": "011111",
    "b": "000001",
    "c": "101101",
    "d": "100110",
    "e": "010010",
    "f": "111110",
}
PAPER_ROWS_AFTER_T9 = {
    "a": "111110",
    "b": "001001",
    "c": "101111",
    "d": "110011",
    "e": "010000",
    "f": "110110",
}


class TestPaperExample:
    def test_rows_after_first_two_batches(self, paper_batches):
        matrix = DSMatrix(window_size=2)
        matrix.append_batch(paper_batches[0])
        matrix.append_batch(paper_batches[1])
        assert matrix.boundaries() == [3, 6]
        for item, bits in PAPER_ROWS_AFTER_T6.items():
            assert matrix.row(item).to_bitstring() == bits, item

    def test_rows_after_window_slides_to_b2_b3(self, paper_window_matrix):
        matrix = paper_window_matrix
        assert matrix.boundaries() == [3, 6]
        for item, bits in PAPER_ROWS_AFTER_T9.items():
            assert matrix.row(item).to_bitstring() == bits, item

    def test_item_frequencies_after_slide(self, paper_window_matrix):
        frequencies = paper_window_matrix.item_frequencies()
        assert frequencies == {"a": 5, "b": 2, "c": 5, "d": 4, "e": 1, "f": 4}

    def test_frequent_items(self, paper_window_matrix):
        assert paper_window_matrix.frequent_items(2) == ["a", "b", "c", "d", "f"]
        assert paper_window_matrix.frequent_items(5) == ["a", "c"]

    def test_transaction_reconstruction(self, paper_window_matrix):
        assert paper_window_matrix.transaction(0) == ("a", "c", "d", "f")
        assert paper_window_matrix.transaction(5) == ("b", "c", "d")

    def test_projected_transactions_for_a(self, paper_window_matrix):
        # Example 2: the {a}-projected database extracted downwards.
        projected = paper_window_matrix.projected_transactions("a")
        assert projected == [
            ("c", "d", "f"),
            ("d", "e", "f"),
            ("b", "c"),
            ("c", "f"),
            ("c", "d", "f"),
        ]

    def test_projected_transactions_for_b(self, paper_window_matrix):
        projected = paper_window_matrix.projected_transactions("b")
        assert projected == [("c",), ("c", "d")]


class TestWindowMaintenance:
    def test_append_returns_evicted_column_count(self):
        matrix = DSMatrix(window_size=2)
        assert matrix.append_batch(Batch([["a"], ["b"]])) == 0
        assert matrix.append_batch(Batch([["a"]])) == 0
        assert matrix.append_batch(Batch([["c"], ["c"]])) == 2
        assert matrix.num_columns == 3

    def test_window_never_exceeds_size(self):
        matrix = DSMatrix(window_size=3)
        for index in range(10):
            matrix.append_batch(Batch([[f"i{index}"]]))
        assert matrix.num_batches == 3
        assert matrix.num_columns == 3

    def test_slide_preserves_recent_content(self):
        matrix = DSMatrix(window_size=2)
        matrix.append_batch(Batch([["x", "y"]]))
        matrix.append_batch(Batch([["y"]]))
        matrix.append_batch(Batch([["z"]]))
        assert list(matrix.transactions()) == [("y",), ("z",)]
        assert matrix.item_frequency("x") == 0

    def test_invalid_window_size(self):
        with pytest.raises(DSMatrixError):
            DSMatrix(window_size=0)

    def test_fixed_universe_rejects_unknown_items(self):
        matrix = DSMatrix(window_size=2, items=["a", "b"])
        with pytest.raises(DSMatrixError):
            matrix.append_batch(Batch([["z"]]))

    def test_fixed_universe_keeps_all_rows(self):
        matrix = DSMatrix(window_size=2, items=["a", "b", "c"])
        matrix.append_batch(Batch([["a"]]))
        assert matrix.items() == ["a", "b", "c"]
        assert matrix.item_frequency("c") == 0


class TestAccessErrors:
    def test_unknown_item_row(self, paper_window_matrix):
        with pytest.raises(DSMatrixError):
            paper_window_matrix.row("zz")

    def test_unknown_item_projection(self, paper_window_matrix):
        with pytest.raises(DSMatrixError):
            paper_window_matrix.projected_transactions("zz")

    def test_column_out_of_range(self, paper_window_matrix):
        with pytest.raises(DSMatrixError):
            paper_window_matrix.transaction(99)


class TestPersistence:
    @pytest.fixture
    def persisted(self, paper_batches, tmp_path):
        """The paper's window of B2-B3 persisted in a store directory."""
        directory = tmp_path / "window"
        DSMatrix.from_batches(paper_batches, window_size=2, path=directory)
        return directory

    def test_save_and_load_round_trip(self, paper_window_matrix, persisted):
        restored = DSMatrix.load(persisted)
        assert restored.items() == paper_window_matrix.items()
        assert restored.boundaries() == paper_window_matrix.boundaries()
        for item in restored.items():
            assert restored.row(item) == paper_window_matrix.row(item)

    def test_row_from_disk(self, paper_window_matrix, persisted):
        row = DSMatrix.row_from_disk(persisted, "a")
        assert row == paper_window_matrix.row("a")

    def test_row_from_disk_unknown_item(self, persisted):
        with pytest.raises(DSMatrixError):
            DSMatrix.row_from_disk(persisted, "zz")

    def test_automatic_flush_when_path_configured(self, paper_batches, tmp_path):
        target = tmp_path / "auto"
        matrix = DSMatrix(window_size=2, path=target)
        matrix.append_batch(paper_batches[0])
        assert (target / "manifest.json").exists()
        assert len(list(target.glob("seg-*.dsg"))) == 1
        assert matrix.disk_size_bytes() > 0
        restored = DSMatrix.load(target)
        assert restored.num_columns == 3

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(DSMatrixError):
            DSMatrix.load(tmp_path / "absent")

    def test_load_rejects_bad_magic(self, persisted):
        next(persisted.glob("seg-*.dsg")).write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DSMatrixError):
            DSMatrix.load(persisted)


class TestAccounting:
    def test_memory_bits_formula(self, paper_window_matrix):
        # m * |T| bits: 6 items * 6 transactions.
        assert paper_window_matrix.memory_bits() == 36

    def test_from_batches_defaults_to_holding_everything(self, paper_batches):
        matrix = DSMatrix.from_batches(paper_batches)
        assert matrix.num_columns == 9
        assert matrix.num_batches == 3

    def test_repr(self, paper_window_matrix):
        assert "columns=6" in repr(paper_window_matrix)
