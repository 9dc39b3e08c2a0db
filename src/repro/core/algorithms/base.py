"""Common interface and instrumentation for the DSMatrix mining algorithms."""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, Optional, Union

from repro.exceptions import InvalidSupportError
from repro.graph.edge_registry import EdgeRegistry
from repro.storage.backend import WindowStore
from repro.storage.dsmatrix import DSMatrix

Items = FrozenSet[str]
PatternCounts = Dict[Items, int]
#: What the algorithms mine from: the DSMatrix facade or a bare window store.
MatrixLike = Union[DSMatrix, WindowStore]


@dataclass
class MiningStats:
    """Instrumentation collected during one mining run.

    These counters feed the space-efficiency experiment (E2): the number of
    FP-trees simultaneously alive and their size are what distinguish the
    multi-tree, single-tree and vertical algorithms in the paper's argument.
    """

    fptrees_built: int = 0
    max_concurrent_fptrees: int = 0
    max_fptree_nodes: int = 0
    bitvector_intersections: int = 0
    patterns_found: int = 0
    extra: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, int]:
        """Flatten the stats into a plain dictionary (used by reports)."""
        data = {
            "fptrees_built": self.fptrees_built,
            "max_concurrent_fptrees": self.max_concurrent_fptrees,
            "max_fptree_nodes": self.max_fptree_nodes,
            "bitvector_intersections": self.bitvector_intersections,
            "patterns_found": self.patterns_found,
        }
        data.update(self.extra)
        return data


def resolve_minsup(minsup: float, transaction_count: int) -> int:
    """Normalise a support threshold to an absolute count.

    ``minsup`` may be an absolute integer (>= 1) or a relative fraction in
    ``(0, 1)``; relative thresholds are converted with ceiling semantics so a
    pattern is frequent when ``support >= ceil(minsup * |T|)``.  The ceiling
    is taken exactly on the decimal the float prints as — ``0.07 * 100`` is
    ``7.000000000000001`` in binary floating point, but 7 % of 100
    transactions is 7, not 8.
    """
    if isinstance(minsup, bool):
        raise InvalidSupportError("minsup must be a number, not a boolean")
    if minsup <= 0:
        raise InvalidSupportError(f"minsup must be positive, got {minsup}")
    if isinstance(minsup, float) and minsup < 1:
        return max(1, math.ceil(Fraction(repr(minsup)) * transaction_count))
    if float(minsup) != int(minsup):
        raise InvalidSupportError(
            f"absolute minsup must be an integer, got {minsup}"
        )
    return int(minsup)


class MiningAlgorithm(ABC):
    """Base class of the five DSMatrix algorithms.

    Subclasses implement :meth:`mine`, which returns *all* frequent patterns
    (collections of frequent edges).  Algorithms whose output is already
    restricted to connected subgraphs set ``produces_connected_only = True``
    (only the direct algorithm of §4 does).
    """

    #: Registry name of the algorithm (used by :func:`get_algorithm` and the CLI).
    name: str = "abstract"
    #: Whether :meth:`mine` already excludes disconnected edge collections.
    produces_connected_only: bool = False

    def __init__(self) -> None:
        self.stats = MiningStats()

    def reset_stats(self) -> None:
        """Clear instrumentation before a fresh run."""
        self.stats = MiningStats()

    @abstractmethod
    def mine(
        self,
        matrix: MatrixLike,
        minsup: int,
        registry: Optional[EdgeRegistry] = None,
    ) -> PatternCounts:
        """Mine frequent edge collections from the window matrix.

        Parameters
        ----------
        matrix:
            The DSMatrix (or any :class:`~repro.storage.backend.WindowStore`)
            holding the current window.
        minsup:
            Absolute minimum support (use :func:`resolve_minsup` to convert
            relative thresholds).
        registry:
            Edge registry; required by algorithms that need neighborhood
            information (the direct algorithm), optional otherwise.
        """

    def mine_shard(
        self,
        matrix: MatrixLike,
        minsup: int,
        owned_items: Iterable[str],
        registry: Optional[EdgeRegistry] = None,
    ) -> PatternCounts:
        """Mine only the patterns *owned* by ``owned_items`` (DESIGN.md §4).

        Ownership is by canonical minimum item: every pattern has exactly
        one owner, so mining each shard of an item partition and taking the
        union of the results reproduces :meth:`mine` exactly.  This is the
        entry point the parallel workers call.

        The base implementation runs the full sequential :meth:`mine` and
        filters — always correct, never faster; the single-tree algorithms
        keep it, and the parallel executor runs such algorithms as a
        single shard rather than fanning out duplicate full runs.
        Algorithms whose search space naturally splits by start item (the
        vertical family and the multi-tree miner) override it with a real
        search-space restriction.
        """
        owned = set(owned_items)
        patterns = self.mine(matrix, minsup, registry=registry)
        shard = {
            items: support
            for items, support in patterns.items()
            if min(items) in owned
        }
        self.stats.patterns_found = len(shard)
        return shard

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
