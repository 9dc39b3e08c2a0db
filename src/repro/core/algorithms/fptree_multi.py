"""Algorithm 1 — mining with multiple recursive FP-trees (paper §3.1).

For every frequent singleton edge ``x`` (in canonical order) the algorithm
extracts the {x}-projected database from the DSMatrix (columns containing
``x``, items after ``x`` in canonical order), builds an FP-tree for it and
recursively builds conditional FP-trees for larger projections — the classic
FP-growth recursion.  Multiple FP-trees are therefore alive simultaneously,
which is exactly why this variant needs the most memory among the DSMatrix
algorithms.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.algorithms.base import MatrixLike, MiningAlgorithm, PatternCounts
from repro.core.patterns import PatternRows
from repro.fptree.fpgrowth import FPGrowth
from repro.graph.edge_registry import EdgeRegistry


class MultipleFPTreeMiner(MiningAlgorithm):
    """Bottom-up mining with recursively constructed FP-trees."""

    name = "fptree_multi"
    produces_connected_only = False

    def mine(
        self,
        matrix: MatrixLike,
        minsup: int,
        registry: Optional[EdgeRegistry] = None,
    ) -> PatternRows:
        self.reset_stats()
        patterns: PatternCounts = {}
        frequent_singletons = matrix.frequent_items(minsup)
        for item in frequent_singletons:
            patterns[frozenset({item})] = matrix.item_frequency(item)

        for item in frequent_singletons:
            self._mine_projection(matrix, item, minsup, patterns)
        self.stats.patterns_found = len(patterns)
        return PatternRows.from_counts(patterns, frequent_singletons)

    def mine_shard(
        self,
        matrix: MatrixLike,
        minsup: int,
        owned_items: Iterable[str],
        registry: Optional[EdgeRegistry] = None,
    ) -> PatternRows:
        """Build projected FP-trees only for owned items.

        Every pattern mined from the {x}-projection has ``x`` as its
        canonical minimum item, so the per-item projections are exactly the
        ownership partition — each shard builds its own trees and no
        pattern appears in two shards.
        """
        self.reset_stats()
        owned = set(owned_items)
        patterns: PatternCounts = {}
        frequent_singletons = matrix.frequent_items(minsup)
        for item in frequent_singletons:
            if item not in owned:
                continue
            patterns[frozenset({item})] = matrix.item_frequency(item)
            self._mine_projection(matrix, item, minsup, patterns)
        self.stats.patterns_found = len(patterns)
        return PatternRows.from_counts(patterns, frequent_singletons)

    def _mine_projection(
        self, matrix: MatrixLike, item: str, minsup: int, patterns: PatternCounts
    ) -> None:
        """Mine the {item}-projected database into ``patterns``."""
        projected = matrix.projected_transactions(item, below_only=True)
        if not projected:
            return
        miner = FPGrowth(minsup=minsup, order="canonical")
        found = miner.mine(projected, suffix={item})
        patterns.update(found)
        self.stats.fptrees_built += miner.trees_built
        self.stats.max_concurrent_fptrees = max(
            self.stats.max_concurrent_fptrees, miner.max_concurrent_trees
        )
        self.stats.max_fptree_nodes = max(
            self.stats.max_fptree_nodes, miner.max_tree_nodes
        )
