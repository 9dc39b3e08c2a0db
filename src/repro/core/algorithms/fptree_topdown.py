"""Algorithm 3 — top-down mining of a single FP-tree (paper §3.3).

Like algorithm 2, one FP-tree is built per frequent singleton; the tree is
then mined in *top-down* canonical order (first item of the order first),
forming list-based projections that only ever look further down the order, so
no additional FP-trees are materialised.
"""

from __future__ import annotations

from typing import Optional

from repro.core.algorithms.base import MatrixLike, MiningAlgorithm, PatternCounts
from repro.core.patterns import PatternRows
from repro.fptree.topdown import top_down_mine
from repro.fptree.tree import FPTree
from repro.graph.edge_registry import EdgeRegistry


class TopDownFPTreeMiner(MiningAlgorithm):
    """Top-down mining with one FP-tree per singleton."""

    name = "fptree_topdown"
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

        self.stats.max_concurrent_fptrees = 1 if frequent_singletons else 0
        for item in frequent_singletons:
            projected = matrix.projected_transactions(item, below_only=True)
            if not projected:
                continue
            tree = FPTree.build(projected, minsup=minsup, order="canonical")
            self.stats.fptrees_built += 1
            self.stats.max_fptree_nodes = max(
                self.stats.max_fptree_nodes, tree.node_count()
            )
            if tree.is_empty():
                continue
            found = top_down_mine(tree, minsup, suffix={item})
            patterns.update(found)
        self.stats.patterns_found = len(patterns)
        return PatternRows.from_counts(patterns, frequent_singletons)
