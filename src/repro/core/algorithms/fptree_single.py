"""Algorithm 2 — frequency counting on a single FP-tree (paper §3.2).

One FP-tree is built per frequent singleton; instead of recursing into
conditional trees, every tree node is visited once and the collections of
edges represented by the node (the node's item combined with every subset of
its prefix path) receive the node's count.  At most one FP-tree is therefore
in memory at any moment.
"""

from __future__ import annotations

from typing import Optional

from repro.core.algorithms.base import MatrixLike, MiningAlgorithm, PatternCounts
from repro.core.patterns import PatternRows
from repro.fptree.counting import count_itemsets_by_node_traversal
from repro.fptree.tree import FPTree
from repro.graph.edge_registry import EdgeRegistry


class SingleFPTreeCountingMiner(MiningAlgorithm):
    """Bottom-up mining with one FP-tree per singleton and subset counting."""

    name = "fptree_single"
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
            found = count_itemsets_by_node_traversal(tree, minsup, suffix={item})
            patterns.update(found)
        self.stats.patterns_found = len(patterns)
        return PatternRows.from_counts(patterns, frequent_singletons)
