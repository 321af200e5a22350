"""The MBR join: synchronized R*-tree traversal ([BKS93b], Section 6).

The join exploits that directory rectangles bound everything in their
subtrees: only pairs of intersecting directory entries can lead to
intersecting data rectangles.  Following [BKS93b], pairs of subtrees are
processed in the order of their smallest x-coordinates, which combined
with an LRU buffer of reasonable size gives close-to-optimal page I/O
(most tree pages enter main memory only once).

The traversal yields **leaf groups** ``(leaf_r, leaf_s, pairs)`` — all
intersecting data-entry pairs of one data-page pair — because that is
the granularity at which the object-transfer techniques of Section 6.2
batch their read requests.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.buffer.pool import BufferPool
from repro.iosched.request import AccessPlan
from repro.rtree.entry import Entry
from repro.rtree.node import Node
from repro.rtree.rstar import RStarTree

__all__ = ["MBRJoin", "LeafGroup"]

LeafGroup = tuple[Node, Node, list[tuple[Entry, Entry]]]


def _intersecting_pairs(nr: Node, ns: Node) -> list[tuple[int, int]]:
    """Indexes of intersecting entry pairs, sorted by the smaller of the
    two xmin coordinates (the spatial processing order of [BKS93b]).

    Pair order is pinned (a regression test relies on it): candidate
    pairs are generated in row-major ``(i, j)`` order and reordered by a
    *stable* sort on ``max(a[i].xmin, b[j].xmin)``, so ties keep the
    row-major order — the order of the entry-at-a-time pair list in
    ``tests/scalar_reference.py``.

    A cheap whole-node MBR pretest returns early — without allocating
    the ``n x m`` broadcast mask — when the two nodes cannot share any
    pair at all.
    """
    if len(nr.entries) == 0 or len(ns.entries) == 0:
        return []
    if not nr.mbr().intersects(ns.mbr()):
        return []
    a = nr.rect_matrix()
    b = ns.rect_matrix()
    hits = (
        (a[:, None, 0] <= b[None, :, 2])
        & (b[None, :, 0] <= a[:, None, 2])
        & (a[:, None, 1] <= b[None, :, 3])
        & (b[None, :, 1] <= a[:, None, 3])
    )
    pairs = np.argwhere(hits)
    if len(pairs) == 0:
        return []
    xmin = np.maximum(a[pairs[:, 0], 0], b[pairs[:, 1], 0])
    order = np.argsort(xmin, kind="stable")
    return [(int(i), int(j)) for i, j in pairs[order]]


class MBRJoin:
    """Filter step of the spatial join between two R*-trees.

    Parameters
    ----------
    tree_r, tree_s:
        The two indexes (any heights; unequal heights are handled by
        descending only the taller side).
    pool:
        The shared :class:`~repro.buffer.pool.BufferPool` — tree pages
        and, later, object pages compete for the same frames, as in
        Section 6.1.
    """

    def __init__(self, tree_r: RStarTree, tree_s: RStarTree, pool: BufferPool):
        self.tree_r = tree_r
        self.tree_s = tree_s
        self.pool = pool
        self.node_accesses = 0
        self.candidate_pairs = 0

    # ------------------------------------------------------------------
    def _access(self, node: Node) -> None:
        """Price one node access through the shared pool: a one-request
        plan on the pool's scheduler, so under ``overlap`` the read is
        on the virtual clock and seen by admission.  Not through
        ``pool.submit``: a join's node walk is no pattern to read ahead
        of."""
        self.node_accesses += 1
        if node.page is None:
            return
        plan = AccessPlan("join.node").get(node.page)
        self.pool.scheduler.execute(plan, self.pool)

    # ------------------------------------------------------------------
    def run(self) -> Iterator[LeafGroup]:
        """Yield all leaf groups in spatial processing order."""
        if not self.tree_r.root.entries or not self.tree_s.root.entries:
            return
        self._access(self.tree_r.root)
        self._access(self.tree_s.root)
        yield from self._join(self.tree_r.root, self.tree_s.root)

    def _join(self, nr: Node, ns: Node) -> Iterator[LeafGroup]:
        if not nr.entries or not ns.entries:
            return
        if not nr.mbr().intersects(ns.mbr()):
            return
        if nr.level == ns.level:
            if nr.is_leaf:
                pairs = [
                    (nr.entries[i], ns.entries[j])
                    for i, j in _intersecting_pairs(nr, ns)
                ]
                if pairs:
                    self.candidate_pairs += len(pairs)
                    yield nr, ns, pairs
                return
            for i, j in _intersecting_pairs(nr, ns):
                child_r = nr.entries[i].child
                child_s = ns.entries[j].child
                assert child_r is not None and child_s is not None
                self._access(child_r)
                self._access(child_s)
                yield from self._join(child_r, child_s)
        elif nr.level > ns.level:
            # Descend only the taller tree, window-querying with ns.
            window = ns.mbr()
            for entry in nr.entries:
                if entry.rect.intersects(window):
                    assert entry.child is not None
                    self._access(entry.child)
                    yield from self._join(entry.child, ns)
        else:
            window = nr.mbr()
            for entry in ns.entries:
                if entry.rect.intersects(window):
                    assert entry.child is not None
                    self._access(entry.child)
                    yield from self._join(nr, entry.child)
