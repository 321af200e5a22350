"""Structural statistics of an R*-tree.

Used by the storage-utilization experiments (Section 5.3) and by tests
asserting tree quality (fill factors around the R*-tree's typical 70 %).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rtree.rstar import RStarTree

__all__ = ["TreeStats", "tree_stats"]


@dataclass(slots=True)
class TreeStats:
    """Aggregated statistics of one tree."""

    height: int
    data_entries: int
    leaf_count: int
    directory_count: int
    nodes_per_level: dict[int, int] = field(default_factory=dict)
    avg_leaf_fill: float = 0.0
    avg_directory_fill: float = 0.0
    avg_entries_per_leaf: float = 0.0


def tree_stats(tree: RStarTree) -> TreeStats:
    """Compute structural statistics by walking the tree."""
    nodes_per_level: dict[int, int] = {}
    leaf_count = 0
    directory_count = 0
    leaf_entries = 0
    directory_entries = 0
    for node in tree.nodes():
        nodes_per_level[node.level] = nodes_per_level.get(node.level, 0) + 1
        if node.is_leaf:
            leaf_count += 1
            leaf_entries += len(node.entries)
        else:
            directory_count += 1
            directory_entries += len(node.entries)
    m = tree.max_entries
    return TreeStats(
        height=tree.height,
        data_entries=leaf_entries,
        leaf_count=leaf_count,
        directory_count=directory_count,
        nodes_per_level=nodes_per_level,
        avg_leaf_fill=(leaf_entries / (leaf_count * m)) if leaf_count else 0.0,
        avg_directory_fill=(
            directory_entries / (directory_count * m) if directory_count else 0.0
        ),
        avg_entries_per_leaf=(leaf_entries / leaf_count) if leaf_count else 0.0,
    )
