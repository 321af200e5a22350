"""Structure-of-arrays snapshot of an R*-tree.

The object tree (:mod:`repro.rtree.node`) is the mutable master copy;
queries that batch well pay a heavy price for walking it node by node
in Python.  A :class:`FlatTree` freezes the whole tree into a handful
of flat numpy arrays — one ``(n_entries, 4)`` rectangle matrix for
every entry in the tree, CSR-style per-node offsets and integer child
ids instead of object references — so a *batch* of queries can
traverse the whole tree level by level ("frontier at a time"): one
broadcast comparison per level instead of one Python call per (node,
query) pair.

Node ids are **DFS ranks**: the pop order of the unpruned stack DFS
that pushes children in ascending entry order (the traversal order of
:meth:`~repro.rtree.rstar.RStarTree.window_query` and friends).  A
pruned query traversal visits a *subsequence* of that order, so

* the nodes one query visits, sorted by rank, are exactly the pages
  the single-query traversal reads, in the same order;
* the matched data entries, sorted by their global entry index
  (= rank-major, entry-ascending), are exactly the single-query result
  list, in the same order.

That is what lets the batched kernels reproduce the per-query results
*and* the per-query page-read sequences bit for bit (the PR 4
equivalence contract) while doing the actual rectangle work in a few
large numpy operations.

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

__all__ = [
    "FlatTree",
    "FlatBatch",
    "build_flat",
    "flat_query_batch",
]


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
        ``(n_nodes,)`` — ``entry_start`` deltas, kept for the kernels.
    entry_rect:
        ``(n_entries, 4)`` float64 ``(xmin, ymin, xmax, ymax)`` rows —
        frozen copies of the nodes' kept rect matrices, so every
        float is bit-identical to the object tree's.
    entry_q:
        The negated form ``(xmin, ymin, -xmax, -ymax)`` the query
        kernels compare with one ``<=`` (see :mod:`repro.core.kernels`).
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
        "entry_q",
        "entry_child",
        "entry_oid",
        "generation",
    )

    def __init__(
        self,
        nodes: list[Node],
        entry_start: np.ndarray,
        entry_rect: np.ndarray,
        entry_q: np.ndarray,
        entry_child: np.ndarray,
        entry_oid: np.ndarray,
        generation: int,
    ):
        self.nodes = nodes
        self.entry_start = entry_start
        self.entry_counts = np.diff(entry_start)
        self.entry_rect = entry_rect
        self.entry_q = entry_q
        self.entry_child = entry_child
        self.entry_oid = entry_oid
        self.generation = generation

    @property
    def n_entries(self) -> int:
        return len(self.entry_oid)

    def owner_of(self, entry_ids: np.ndarray) -> np.ndarray:
        """Node id owning each global entry id (CSR interval search;
        robust to empty nodes, whose ``entry_start`` values repeat)."""
        return (
            np.searchsorted(self.entry_start, entry_ids, side="right") - 1
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlatTree(nodes={len(self.nodes)}, entries={self.n_entries}, "
            f"generation={self.generation})"
        )


def build_flat(tree: "RStarTree") -> FlatTree:
    """Flatten ``tree`` into a :class:`FlatTree` in one pass.

    The node list is produced by the same stack DFS the queries run
    (push children ascending, pop last), so list position *is* the DFS
    rank.  The entry matrices concatenate the nodes' kept
    ``rect_matrix``/``query_matrix`` — the identical float64 values the
    single-query kernels compare."""
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
        entry_q = np.concatenate(
            [node.query_matrix() for node in nodes], axis=0
        )
    else:
        entry_rect = np.empty((0, 4), dtype=np.float64)
        entry_q = np.empty((0, 4), dtype=np.float64)

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
        entry_q,
        entry_child,
        entry_oid,
        generation=tree._generation,
    )


class FlatBatch:
    """Result of one batched traversal over a :class:`FlatTree`.

    Per query ``i``:

    * :meth:`visits` — the visited node ids in DFS-rank order: the
      exact page-visit sequence of the single-query traversal;
    * :meth:`hits` — the matched data entries as global entry ids,
      ascending: the exact single-query result order;
    * :meth:`hit_owners` — the leaf id owning each hit (nondecreasing,
      so equal runs are the per-leaf groups of ``window_leaves``).
    """

    __slots__ = (
        "flat",
        "n_queries",
        "_visit_nodes",
        "_visit_bounds",
        "_hit_entries",
        "_hit_bounds",
        "_hit_owners",
    )

    def __init__(
        self,
        flat: FlatTree,
        n_queries: int,
        visit_nodes: np.ndarray,
        visit_bounds: np.ndarray,
        hit_entries: np.ndarray,
        hit_bounds: np.ndarray,
    ):
        self.flat = flat
        self.n_queries = n_queries
        self._visit_nodes = visit_nodes
        self._visit_bounds = visit_bounds
        self._hit_entries = hit_entries
        self._hit_bounds = hit_bounds
        self._hit_owners: np.ndarray | None = None

    def visits(self, i: int) -> np.ndarray:
        return self._visit_nodes[
            self._visit_bounds[i] : self._visit_bounds[i + 1]
        ]

    def hits(self, i: int) -> np.ndarray:
        return self._hit_entries[
            self._hit_bounds[i] : self._hit_bounds[i + 1]
        ]

    def hit_owners(self, i: int) -> np.ndarray:
        if self._hit_owners is None:
            self._hit_owners = self.flat.owner_of(self._hit_entries)
        return self._hit_owners[
            self._hit_bounds[i] : self._hit_bounds[i + 1]
        ]


_EMPTY_IDS = np.empty(0, dtype=np.int64)


def flat_query_batch(flat: FlatTree, rects) -> FlatBatch:
    """Traverse the whole tree for every query rectangle at once (no
    I/O pricing).

    Each rectangle becomes a query vector for the negated entry matrix
    (as :func:`repro.core.kernels.window_qvec`) — a point query is the
    degenerate window ``Rect(x, y, x, y)``, same one-sided comparison.

    The traversal is frontier-at-a-time: the live ``(node, query)``
    pairs of one level are expanded through the CSR offsets into their
    entry rows, matched with a single broadcast ``<=``, and the
    surviving directory entries form the next frontier.  A node has one
    parent, so a (node, query) pair can enter the frontier at most once
    — no deduplication is needed, and sorting the collected pairs by
    ``(query, rank)`` reproduces each query's private DFS order."""
    n_queries = len(rects)
    qmat = np.array(
        [(r.xmax, r.ymax, -r.xmin, -r.ymin) for r in rects], dtype=np.float64
    ).reshape(n_queries, 4)
    visit_q_parts: list[np.ndarray] = []
    visit_n_parts: list[np.ndarray] = []
    hit_q_parts: list[np.ndarray] = []
    hit_e_parts: list[np.ndarray] = []

    frontier_nodes = np.zeros(n_queries, dtype=np.int64)  # root = rank 0
    frontier_query = np.arange(n_queries, dtype=np.int64)
    entry_start = flat.entry_start
    entry_counts = flat.entry_counts
    entry_q = flat.entry_q
    entry_child = flat.entry_child
    while frontier_nodes.size:
        visit_n_parts.append(frontier_nodes)
        visit_q_parts.append(frontier_query)
        counts = entry_counts[frontier_nodes]
        total = int(counts.sum())
        if total == 0:
            break
        # CSR expansion: pair k of the frontier contributes its node's
        # entry rows, each labelled with the pair's query.
        pair_idx = np.repeat(
            np.arange(len(frontier_nodes), dtype=np.int64), counts
        )
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        eidx = entry_start[frontier_nodes][pair_idx] + within
        query = frontier_query[pair_idx]
        match = (entry_q[eidx] <= qmat[query]).all(axis=1)
        m_eidx = eidx[match]
        m_query = query[match]
        child = entry_child[m_eidx]
        is_data = child < 0
        if is_data.any():
            hit_e_parts.append(m_eidx[is_data])
            hit_q_parts.append(m_query[is_data])
        descend = ~is_data
        frontier_nodes = child[descend]
        frontier_query = m_query[descend]

    if visit_q_parts:
        visit_q = np.concatenate(visit_q_parts)
        visit_n = np.concatenate(visit_n_parts)
        order = np.lexsort((visit_n, visit_q))
        visit_q = visit_q[order]
        visit_n = visit_n[order]
    else:  # pragma: no cover - root always enters the frontier
        visit_q = _EMPTY_IDS
        visit_n = _EMPTY_IDS
    visit_bounds = np.searchsorted(
        visit_q, np.arange(n_queries + 1, dtype=np.int64)
    )

    if hit_q_parts:
        hit_q = np.concatenate(hit_q_parts)
        hit_e = np.concatenate(hit_e_parts)
        order = np.lexsort((hit_e, hit_q))
        hit_q = hit_q[order]
        hit_e = hit_e[order]
    else:
        hit_q = _EMPTY_IDS
        hit_e = _EMPTY_IDS
    hit_bounds = np.searchsorted(
        hit_q, np.arange(n_queries + 1, dtype=np.int64)
    )

    return FlatBatch(
        flat, n_queries, visit_n, visit_bounds, hit_e, hit_bounds
    )
