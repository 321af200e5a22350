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

The traversal depends on the trees only, so :meth:`MBRJoin.run`
computes it from their flat snapshots and replays it in the order of
the recursion over node pairs (``tests/scalar_reference.py``).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.buffer.pool import BufferPool
from repro.geometry.intersect import mbr_intersect_mask
from repro.iosched.request import AccessPlan
from repro.rtree.flat import FlatTree
from repro.rtree.node import Node
from repro.rtree.rstar import RStarTree

__all__ = ["MBRJoin", "LeafGroup"]

LeafGroup = tuple[Node, Node, np.ndarray]
"""``(leaf_r, leaf_s, pairs)``: a data-page pair and the object ids of
its intersecting entries, ``(k, 2)`` int64 in processing order."""


def _node_mbrs(flat: FlatTree) -> np.ndarray:
    """``Node.mbr()`` of every node, by ``reduceat`` over its entry rows
    (min / max: the same floats; an empty node's row decides nothing)."""
    starts = np.minimum(flat.entry_start[:-1], flat.n_entries - 1)
    low, high = (f.reduceat(flat.entry_rect, starts) for f in (np.minimum, np.maximum))
    return np.hstack((low[:, :2], high[:, 2:]))


def _within(start, count, rects, windows):
    """Per ``k``, the rows ``start[k] : start[k] + count[k]`` of
    ``rects`` that meet ``windows[k]``: ``(k, row)`` in that order."""
    owner = np.repeat(np.arange(len(start)), count)
    row = np.arange(len(owner)) + np.repeat(start - (np.cumsum(count) - count), count)
    keep = mbr_intersect_mask(rects.take(row, axis=0), windows.take(owner, axis=0))
    return owner[keep], row[keep]


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
        for nodes, group in self._schedule():
            for node in nodes:
                self._access(node)
            if group is not None:
                self.candidate_pairs += len(group[2])
                yield group

    def _schedule(self) -> list[tuple[tuple[Node, ...], LeafGroup | None]]:
        """Per node pair the recursion enters, in its order: the nodes it
        accesses on the way in and the leaf group it yields.  Frontiers
        stay sorted by parent, so sorting the pairs' row-number paths
        gives the depth-first order."""
        flat_r, flat_s = self.tree_r.flat_snapshot(), self.tree_s.flat_snapshot()
        if not flat_r.entry_counts[0] or not flat_s.entry_counts[0]:
            return []
        mbr_r, mbr_s = _node_mbrs(flat_r), _node_mbrs(flat_s)
        level_r, level_s = self.tree_r.root.level, self.tree_s.root.level
        node_r = node_s = np.zeros(1, dtype=np.int64)
        paths = [np.array([[0] + [-1] * max(level_r, level_s)])]
        accessed = [[(flat_r.nodes[0], flat_s.nodes[0])]]
        while True:
            live = (
                (flat_r.entry_counts[node_r] > 0)
                & (flat_s.entry_counts[node_s] > 0)
                & mbr_intersect_mask(mbr_r[node_r], mbr_s[node_s])
            ).nonzero()[0]
            top = max(level_r, level_s)
            # Per side: (row, id, rects by id) of its entries meeting the
            # other node if it is the taller side (both are, if level),
            # else of the node itself.
            (own_r, ids_r, rects_r), (own_s, ids_s, rects_s) = [
                (*_within(flat.entry_start[mine], flat.entry_counts[mine],
                          flat.entry_rect, theirs), flat.entry_rect)
                if level == top
                else (np.arange(len(live)), mine, mbrs)
                for flat, level, mine, theirs, mbrs in (
                    (flat_r, level_r, node_r[live], mbr_s[node_s[live]], mbr_r),
                    (flat_s, level_s, node_s[live], mbr_r[node_r[live]], mbr_s),
                )
            ]
            # Each r item against its row's s items, row-major.
            width = np.bincount(own_s, minlength=len(live))[own_r]
            item_r, item_s = _within(
                np.searchsorted(own_s, own_r), width,
                rects_s.take(ids_s, axis=0), rects_r.take(ids_r, axis=0),
            )
            pair_r, pair_s, owner = ids_r[item_r], ids_s[item_s], own_r[item_r]
            if level_r == level_s:  # [BKS93b]'s order, ties row-major
                xmin = np.maximum(rects_r[pair_r, 0], rects_s[pair_s, 0])
                order = np.lexsort((xmin, owner))
                pair_r, pair_s, owner = pair_r[order], pair_s[order], owner[order]
            parent = live[owner]
            if top == 0:
                break
            node_r = flat_r.entry_child[pair_r] if level_r == top else pair_r
            node_s = flat_s.entry_child[pair_s] if level_s == top else pair_s
            sides = ((flat_r, node_r, level_r), (flat_s, node_s, level_s))
            accessed.append(list(zip(*[
                [flat.nodes[i] for i in nodes.tolist()]
                for flat, nodes, level in sides
                if level == top
            ])))
            level_r, level_s = level_r - (level_r == top), level_s - (level_s == top)
            path = paths[-1][parent]
            path[:, len(paths)] = np.arange(len(path))
            paths.append(path)

        oids = np.column_stack((flat_r.entry_oid[pair_r], flat_s.entry_oid[pair_s]))
        leaves, starts = np.unique(parent, return_index=True)
        groups = {
            leaf: (flat_r.nodes[node_r[leaf]], flat_s.nodes[node_s[leaf]], part)
            for leaf, part in zip(leaves.tolist(), np.split(oids, starts[1:]))
        }
        steps = [(nodes, None) for level in accessed[:-1] for nodes in level]
        steps += [(nodes, groups.get(row)) for row, nodes in enumerate(accessed[-1])]
        return [steps[i] for i in np.lexsort(np.vstack(paths).T[::-1]).tolist()]
