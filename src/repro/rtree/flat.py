"""Structure-of-arrays snapshot of an R*-tree.

The object tree (:mod:`repro.rtree.node`) is the mutable master copy.
A :class:`FlatTree` freezes the whole tree into a handful of flat numpy
arrays — one ``(n_entries, 4)`` rectangle matrix for every entry in the
tree, CSR-style per-node offsets and integer child ids instead of
object references — so the MBR join (:mod:`repro.join.mbr_join`) can
traverse two trees a level at a time: one frontier of node pairs per
level instead of one Python call per pair.

Node ids are **DFS ranks**: the pop order of the unpruned stack DFS
that pushes children in ascending entry order (the traversal order of
:meth:`~repro.rtree.rstar.RStarTree.window_leaves`).  A data entry's
global index is rank-major and entry-ascending within its node.

The snapshot is immutable.  :meth:`RStarTree.flat_snapshot` rebuilds it
lazily via a generation counter bumped by the tree's structural
mutators (insert/delete, which cover splits, reinserts and
condensation).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.rtree.node import Node

if TYPE_CHECKING:  # pragma: no cover - import would be circular at runtime
    from repro.rtree.rstar import RStarTree

__all__ = ["FlatTree", "build_flat"]


class FlatTree:
    """Immutable structure-of-arrays snapshot of one :class:`RStarTree`.

    Attributes
    ----------
    nodes:
        The tree's nodes in DFS-rank order (index = node id).
    entry_start:
        ``(n_nodes + 1,)`` CSR offsets: node ``i`` owns the global
        entries ``entry_start[i]:entry_start[i + 1]``.
    entry_counts:
        ``(n_nodes,)`` — ``entry_start`` deltas, kept for the join.
    entry_rect:
        ``(n_entries, 4)`` float64 ``(xmin, ymin, xmax, ymax)`` rows —
        frozen copies of the nodes' kept rect matrices, so every
        float is bit-identical to the object tree's.
    entry_child:
        ``(n_entries,)`` int64 — child node id of a directory entry,
        ``-1`` for data entries.
    entry_oid:
        ``(n_entries,)`` int64 — object id of a data entry, ``-1`` for
        directory entries (or data entries without an id).
    generation:
        The tree generation this snapshot was built from.
    """

    __slots__ = (
        "nodes",
        "entry_start",
        "entry_counts",
        "entry_rect",
        "entry_child",
        "entry_oid",
        "generation",
    )

    def __init__(
        self,
        nodes: list[Node],
        entry_start: np.ndarray,
        entry_rect: np.ndarray,
        entry_child: np.ndarray,
        entry_oid: np.ndarray,
        generation: int,
    ):
        self.nodes = nodes
        self.entry_start = entry_start
        self.entry_counts = np.diff(entry_start)
        self.entry_rect = entry_rect
        self.entry_child = entry_child
        self.entry_oid = entry_oid
        self.generation = generation

    @property
    def n_entries(self) -> int:
        return len(self.entry_oid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlatTree(nodes={len(self.nodes)}, entries={self.n_entries}, "
            f"generation={self.generation})"
        )


def build_flat(tree: "RStarTree") -> FlatTree:
    """Flatten ``tree`` into a :class:`FlatTree` in one pass.

    The node list is produced by the same stack DFS the queries run
    (push children ascending, pop last), so list position *is* the DFS
    rank.  The entry matrix concatenates the nodes' kept
    ``rect_matrix`` — the identical float64 values the tree holds."""
    nodes: list[Node] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if not node.is_leaf:
            for entry in node.entries:
                assert entry.child is not None
                stack.append(entry.child)

    n_nodes = len(nodes)
    rank = {id(node): i for i, node in enumerate(nodes)}
    counts = np.fromiter(
        (len(node.entries) for node in nodes), dtype=np.int64, count=n_nodes
    )
    entry_start = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=entry_start[1:])
    n_entries = int(entry_start[-1])

    if n_entries:
        entry_rect = np.concatenate(
            [node.rect_matrix() for node in nodes], axis=0
        )
    else:
        entry_rect = np.empty((0, 4), dtype=np.float64)

    entry_child = np.full(n_entries, -1, dtype=np.int64)
    entry_oid = np.full(n_entries, -1, dtype=np.int64)
    pos = 0
    for node in nodes:
        for entry in node.entries:
            child = entry.child
            if child is not None:
                entry_child[pos] = rank[id(child)]
            elif entry.oid is not None:
                entry_oid[pos] = entry.oid
            pos += 1

    return FlatTree(
        nodes,
        entry_start,
        entry_rect,
        entry_child,
        entry_oid,
        generation=tree._generation,
    )
