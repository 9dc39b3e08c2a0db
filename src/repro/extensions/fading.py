"""Time-fading and landmark stream models.

The sliding-window model of the paper forgets a batch entirely once it leaves
the window.  Two alternative stream models are common in the literature the
paper builds on (e.g. the authors' TUF-streaming work on time-fading and
landmark models):

* **time-fading (damped) model** — every batch stays relevant but its weight
  decays geometrically with age, so a pattern's support is
  ``sum_b decay^age(b) * count_b(pattern)``;
* **landmark model** — everything since a fixed landmark counts equally
  (no eviction at all).

:class:`TimeFadingVerticalMiner` applies the damped model on top of the
DSMatrix: the matrix already records the batch boundaries, so a pattern's
faded support can be computed from its bit vector without any new structure.
:class:`LandmarkCounter` is a small accumulator for the landmark model's
singleton statistics (full landmark mining can simply use a DSMatrix with a
window size at least as large as the stream).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.algorithms.base import MatrixLike, MiningStats
from repro.core.algorithms.vertical import search_order
from repro.exceptions import MiningError
from repro.graph.edge_registry import EdgeRegistry
from repro.storage.bitvector import BitVector
from repro.stream.batch import Batch

Items = FrozenSet[str]
FadedPatternWeights = Dict[Items, float]


def batch_decay_weights(num_batches: int, decay: float) -> List[float]:
    """Weights of the window's batches, oldest first.

    The newest batch has weight 1, the one before it ``decay``, then
    ``decay**2`` and so on.  ``decay`` must lie in ``(0, 1]``; 1 recovers the
    plain sliding-window counting.
    """
    if not (0 < decay <= 1):
        raise MiningError(f"decay must lie in (0, 1], got {decay}")
    if num_batches < 0:
        raise MiningError(f"num_batches must be non-negative, got {num_batches}")
    return [decay ** (num_batches - 1 - index) for index in range(num_batches)]


def weighted_support(
    vector: BitVector, boundaries: Sequence[int], weights: Sequence[float]
) -> float:
    """Faded support of a pattern given its occurrence bit vector.

    ``boundaries`` are the cumulative batch boundaries of the DSMatrix (e.g.
    ``[3, 6]``); ``weights`` holds one weight per batch, oldest first.
    """
    if len(boundaries) != len(weights):
        raise MiningError(
            f"{len(boundaries)} boundaries but {len(weights)} weights supplied"
        )
    total = 0.0
    start = 0
    for boundary, weight in zip(boundaries, weights):
        segment = vector.sliced(start, boundary)
        total += weight * segment.count()
        start = boundary
    return total


class TimeFadingVerticalMiner:
    """Vertical mining under the time-fading (damped) support model.

    Parameters
    ----------
    decay:
        Per-batch decay factor in ``(0, 1]``.  With ``decay=1`` the miner
        returns exactly the plain vertical miner's integer supports (as
        floats).

    The miner enumerates collections of frequent edges exactly like the §3.4
    vertical algorithm: items in :func:`~repro.core.algorithms.vertical.search_order`
    over their faded support, and each prefix extended only with its
    parent's frequent extensions.  Only the support function changes.  Faded
    support is anti-monotone — a superset's bit vector is a subset of its
    parts' — so the same candidate lists apply, and at ``decay=1`` the miner
    does exactly the vertical miner's intersections.
    """

    name = "vertical_fading"
    produces_connected_only = False

    def __init__(self, decay: float = 0.9) -> None:
        if not (0 < decay <= 1):
            raise MiningError(f"decay must lie in (0, 1], got {decay}")
        self._decay = decay
        self.stats = MiningStats()

    @property
    def decay(self) -> float:
        """The per-batch decay factor."""
        return self._decay

    def mine(
        self,
        matrix: MatrixLike,
        min_weight: float,
        registry: Optional[EdgeRegistry] = None,
    ) -> FadedPatternWeights:
        """Mine all edge collections whose faded support reaches ``min_weight``."""
        if min_weight <= 0:
            raise MiningError(f"min_weight must be positive, got {min_weight}")
        self.stats = MiningStats()
        boundaries = matrix.boundaries()
        weights = batch_decay_weights(len(boundaries), self._decay)

        supports: Dict[str, float] = {}
        vectors: Dict[str, BitVector] = {}
        for item in matrix.items():
            row = matrix.row(item)
            support = weighted_support(row, boundaries, weights)
            if support >= min_weight:
                supports[item] = support
                vectors[item] = row
        order = search_order(supports)
        rows = [vectors[item] for item in order]
        patterns: FadedPatternWeights = {}

        def extend(prefix: Tuple[str, ...], vector: BitVector, candidates: Sequence[int]) -> None:
            # As vertical's _extend_bits: ``candidates`` are the parent's
            # frequent extensions, indices into ``order`` in descending order.
            self.stats.bitvector_intersections += len(candidates)
            found: List[int] = []  # frequent extensions so far, descending
            for index in candidates:
                intersection = vector.intersect(rows[index])
                support = weighted_support(intersection, boundaries, weights)
                if support < min_weight:
                    continue
                extended = prefix + (order[index],)
                patterns[frozenset(extended)] = support
                if found:
                    extend(extended, intersection, found)
                found.append(index)

        for index in range(len(order) - 1, -1, -1):
            patterns[frozenset((order[index],))] = supports[order[index]]
            extend((order[index],), rows[index], range(len(order) - 1, index, -1))
        self.stats.patterns_found = len(patterns)
        return patterns


class LandmarkCounter:
    """Item statistics under the landmark model (everything since a landmark).

    Unlike the sliding window, nothing is ever evicted; the counter simply
    accumulates item frequencies and the transaction count.  It answers the
    singleton-level questions (which edges are frequent since the landmark, at
    what relative support) that the landmark model is typically used for.
    """

    def __init__(self) -> None:
        self._item_counts: Counter = Counter()
        self._transactions_seen = 0
        self._batches_seen = 0

    def add_batch(self, batch: Batch) -> None:
        """Accumulate one batch."""
        self._item_counts.update(batch.item_frequencies())
        self._transactions_seen += len(batch)
        self._batches_seen += 1

    @property
    def transactions_seen(self) -> int:
        """Transactions observed since the landmark."""
        return self._transactions_seen

    @property
    def batches_seen(self) -> int:
        """Batches observed since the landmark."""
        return self._batches_seen

    def support(self, item: str) -> int:
        """Absolute support of an item since the landmark."""
        return self._item_counts.get(item, 0)

    def relative_support(self, item: str) -> float:
        """Relative support of an item since the landmark (0 when empty)."""
        if self._transactions_seen == 0:
            return 0.0
        return self._item_counts.get(item, 0) / self._transactions_seen

    def frequent_items(self, minsup: float) -> List[str]:
        """Items whose (absolute or relative) support reaches ``minsup``."""
        if minsup <= 0:
            raise MiningError(f"minsup must be positive, got {minsup}")
        if isinstance(minsup, float) and minsup < 1:
            threshold = minsup * self._transactions_seen
        else:
            threshold = minsup
        return sorted(
            item for item, count in self._item_counts.items() if count >= threshold
        )

    def __repr__(self) -> str:
        return (
            f"LandmarkCounter(items={len(self._item_counts)}, "
            f"transactions={self._transactions_seen})"
        )
