"""Unit tests for the ingest planner: deterministic one-batch-per-chunk plans."""

import pytest

from repro.exceptions import IngestError
from repro.ingest import IngestPlanner
from repro.stream.batch import Batch


class TestPlanUnits:
    def test_batches_are_aligned_and_ordered(self):
        planner = IngestPlanner(batch_size=3)
        chunks = planner.plan_units(list(range(8)))
        assert [chunk.chunk_id for chunk in chunks] == [0, 1, 2]
        assert [chunk.first_batch_index for chunk in chunks] == [0, 1, 2]
        # Every chunk carries exactly one whole batch.
        assert [chunk.num_batches for chunk in chunks] == [1, 1, 1]
        assert [chunk.batches for chunk in chunks] == [
            ((0, 1, 2),),
            ((3, 4, 5),),
            ((6, 7),),
        ]

    def test_chunk_batches_groups_whole_batches(self):
        # A chunk groups exactly one whole batch; no batch is split across chunks.
        planner = IngestPlanner(batch_size=2)
        chunks = planner.plan_units(list(range(10)))
        assert [chunk.num_batches for chunk in chunks] == [1, 1, 1, 1, 1]
        assert [chunk.first_batch_index for chunk in chunks] == [0, 1, 2, 3, 4]
        assert chunks[2].batches == ((4, 5),)

    def test_drop_last_discards_partial_batch(self):
        planner = IngestPlanner(batch_size=3)
        chunks = planner.plan_units(list(range(8)), drop_last=True)
        assert [chunk.batches for chunk in chunks] == [((0, 1, 2),), ((3, 4, 5),)]

    def test_empty_stream_plans_no_chunks(self):
        assert IngestPlanner(batch_size=4).plan_units([]) == []

    def test_plan_is_deterministic(self):
        planner = IngestPlanner(batch_size=5)
        units = [f"t{i}" for i in range(57)]
        assert planner.plan_units(units) == planner.plan_units(units)

    def test_num_units_counts_all_batches(self):
        chunks = IngestPlanner(batch_size=4).plan_units(range(11))
        assert sum(chunk.num_units for chunk in chunks) == 11


class TestPlanBatches:
    def test_existing_boundaries_are_preserved(self):
        batches = [Batch([("a",)] * 4), Batch([("b",)] * 2)]
        chunks = IngestPlanner(batch_size=999).plan_batches(batches)
        assert [len(batch) for chunk in chunks for batch in chunk.batches] == [4, 2]

    def test_non_batch_input_rejected(self):
        with pytest.raises(IngestError):
            IngestPlanner(batch_size=1).plan_batches([("a", "b")])  # type: ignore[list-item]


class TestValidation:
    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_non_positive_batch_size_rejected(self, batch_size):
        with pytest.raises(IngestError):
            IngestPlanner(batch_size=batch_size)

