"""Post-processing: prune collections of disjoint edges (paper §3.5).

The four non-direct algorithms first find every collection of frequent edges
(connected or not); this module removes the collections whose edges do not
form a connected subgraph.  Both the paper's vertex-frequency rule and an
exact union-find connectivity check are offered (see DESIGN.md §7.3 for the
difference).
"""

from __future__ import annotations

from typing import FrozenSet, Mapping

from repro.core.patterns import PatternRows
from repro.exceptions import MiningError
from repro.graph.connectivity import is_connected_edge_set, satisfies_paper_rule
from repro.graph.edge_registry import EdgeRegistry

Items = FrozenSet[str]

#: Supported connectivity rules.
CONNECTIVITY_RULES = ("exact", "paper")


def is_connected_itemset(
    items: Items, registry: EdgeRegistry, rule: str = "exact"
) -> bool:
    """Whether the edges behind ``items`` form a connected subgraph."""
    if rule not in CONNECTIVITY_RULES:
        raise MiningError(
            f"unknown connectivity rule {rule!r}; expected one of {CONNECTIVITY_RULES}"
        )
    edges = registry.decode(items)
    if rule == "exact":
        return is_connected_edge_set(edges)
    return satisfies_paper_rule(edges)


def filter_connected_patterns(
    counts: Mapping[Items, int],
    registry: EdgeRegistry,
    rule: str = "exact",
) -> PatternRows:
    """Keep only the patterns whose edge collections are connected subgraphs.

    Parameters
    ----------
    counts:
        The rows (or a pattern -> support mapping) produced by algorithms
        1-4.
    registry:
        The edge registry used to resolve item symbols to edges.
    rule:
        ``"exact"`` (union-find, default) or ``"paper"`` (§3.5 rule).

    The rows are filtered in place of a dict: each mask is decoded once
    for the connectivity check, and the kept rows keep the table.
    """
    rows = counts if isinstance(counts, PatternRows) else PatternRows.from_counts(counts)
    return rows.where(
        lambda mask: is_connected_itemset(
            frozenset(rows.items_of(mask)), registry, rule=rule
        )
    )
