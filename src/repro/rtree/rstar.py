"""The R*-tree [BKSS90] — and its cluster-organization variant.

This is a complete dynamic R*-tree: ChooseSubtree with the least-overlap
criterion above the data pages, margin-driven split, forced reinsert
(30 % of the entries, farthest from the node center, reinserted
closest-first), deletion with tree condensation, and point/window
queries.

Two hooks adapt the tree to the cluster organization of Section 4.2.1:

* ``leaf_reinsert=False`` disables forced reinsert on the data-page
  level (a reinsertion would physically move objects between cluster
  units);
* ``leaf_capacity`` may be a byte-aware policy, so a data page also
  splits when its cluster unit outgrows ``Smax`` (the *cluster split*);
  the ``leaf_split_handler`` callback lets the storage layer distribute
  the objects of the split cluster unit.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.core import kernels
from repro.constants import (
    ENTRY_SIZE,
    MIN_FILL_FRACTION,
    PAGE_CAPACITY,
    REINSERT_FRACTION,
)
from repro.errors import TreeError
from repro.geometry.rect import Rect
from repro.rtree.capacity import ByteCapacity, CountCapacity, CountOrByteCapacity
from repro.rtree.chooser import (
    insertion_vector,
    least_area_enlargement,
    least_overlap_enlargement,
)
from repro.rtree.entry import Entry
from repro.rtree.flat import FlatTree, build_flat
from repro.rtree.node import Node
from repro.rtree.pager import NodePager
from repro.rtree.split import rstar_split

__all__ = ["RStarTree"]

LeafSplitHandler = Callable[[Node, Node], None]


class RStarTree:
    """A dynamic R*-tree over 2-d rectangles.

    Parameters
    ----------
    max_entries:
        Fan-out ``M`` of directory pages (and of count-limited data
        pages); defaults to the paper's 89 entries per 4 KB page.
    min_fill_fraction:
        Minimum fill ``m / M`` used by splits and deletion (40 %).
    reinsert_fraction:
        Fraction ``p`` of entries removed by a forced reinsert (30 %).
    leaf_capacity:
        Overflow policy for data pages; defaults to
        ``CountCapacity(max_entries)``.
    leaf_reinsert:
        Disable to suppress forced reinsert on the data-page level
        (cluster organization, Section 4.2.1).
    pager:
        Optional :class:`~repro.rtree.pager.NodePager` pricing node I/O.
    leaf_split_handler:
        Optional callback ``(old_leaf, new_leaf)`` invoked after a data
        page split, once both leaves hold their final entries.
    entry_added_handler:
        Optional callback ``(leaf, entry)`` invoked whenever a data entry
        lands in a data page — at insertion and when deletion-time
        condensation relocates entries.  The cluster organization uses it
        to append the object's bytes to the leaf's cluster unit.
    """

    def __init__(
        self,
        max_entries: int = PAGE_CAPACITY,
        min_fill_fraction: float = MIN_FILL_FRACTION,
        reinsert_fraction: float = REINSERT_FRACTION,
        leaf_capacity: CountCapacity | ByteCapacity | CountOrByteCapacity | None = None,
        leaf_reinsert: bool = True,
        pager: NodePager | None = None,
        leaf_split_handler: LeafSplitHandler | None = None,
        entry_added_handler: Callable[[Node, Entry], None] | None = None,
    ):
        if not (0.0 < min_fill_fraction <= 0.5):
            raise TreeError(
                f"min_fill_fraction must be in (0, 0.5], got {min_fill_fraction}"
            )
        if not (0.0 < reinsert_fraction < 1.0):
            raise TreeError(
                f"reinsert_fraction must be in (0, 1), got {reinsert_fraction}"
            )
        self.max_entries = max_entries
        self.min_fill_fraction = min_fill_fraction
        self.reinsert_fraction = reinsert_fraction
        self.dir_capacity = CountCapacity(max_entries)
        self.leaf_capacity = leaf_capacity or CountCapacity(max_entries)
        self.leaf_reinsert = leaf_reinsert
        self.pager = pager
        self.leaf_split_handler = leaf_split_handler
        self.entry_added_handler = entry_added_handler

        self._next_node_id = 0
        # Structural generation counter: bumped by the public mutators
        # (insert/delete cover every split, reinsert and condensation),
        # so the flat snapshot can invalidate lazily.
        self._generation = 0
        self._flat: FlatTree | None = None
        self.root = self._new_node(0)
        self.size = 0
        self.height = 1
        self.leaf_count = 1
        self.splits = 0
        self.leaf_splits = 0
        self.reinserts = 0
        self._overflowed_levels: set[int] = set()

    # ------------------------------------------------------------------
    # node plumbing
    # ------------------------------------------------------------------
    def _new_node(self, level: int) -> Node:
        node = Node(self._next_node_id, level)
        self._next_node_id += 1
        if self.pager is not None:
            self.pager.register(node)
        return node

    def _read(self, node: Node) -> None:
        if self.pager is not None:
            self.pager.read(node)

    def _write(self, node: Node) -> None:
        if self.pager is not None:
            self.pager.write(node)

    def _retire(self, node: Node) -> None:
        if self.pager is not None:
            self.pager.retire(node)

    def _is_overflow(self, node: Node) -> bool:
        policy = self.leaf_capacity if node.is_leaf else self.dir_capacity
        return policy.is_overflow(node)

    def _min_entries(self, node: Node) -> int:
        if node.is_leaf and isinstance(self.leaf_capacity, ByteCapacity):
            return 1
        return max(1, int(self.min_fill_fraction * self.max_entries))

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def insert(
        self,
        oid: int,
        rect: Rect,
        load: int = ENTRY_SIZE,
        payload: Any = None,
        row: int = -1,
    ) -> Entry:
        """Insert a data entry; returns the (mutable) stored entry."""
        entry = Entry(rect, oid=oid, load=load, payload=payload, row=row)
        self._overflowed_levels = set()
        self._generation += 1
        self._insert(entry, 0)
        self.size += 1
        return entry

    def _insert(self, entry: Entry, level: int) -> None:
        node, path = self._choose_subtree(entry.rect, level)
        node.add(entry)
        if level == 0 and self.entry_added_handler is not None:
            self.entry_added_handler(node, entry)
        self._write(node)
        self._adjust_upward(path, entry.rect)
        if self._is_overflow(node):
            self._overflow_treatment(node)

    def _choose_subtree(
        self, rect: Rect, level: int
    ) -> tuple[Node, list[tuple[Node, int]]]:
        """The node at ``level`` that takes ``rect``, and the descent's
        path to it: per directory node passed, the node and the position
        of the entry taken."""
        node = self.root
        self._read(node)
        q = insertion_vector(rect)
        path: list[tuple[Node, int]] = []
        while node.level > level:
            if node.level == 1 and level == 0:
                idx = least_overlap_enlargement(node.query_matrix(), node.areas(), q)
            else:
                idx = least_area_enlargement(node.query_matrix(), node.areas(), q)
            path.append((node, idx))
            child = node.entries[idx].child
            assert child is not None
            node = child
            self._read(node)
        return node, path

    def _adjust_upward(self, path: list[tuple[Node, int]], added: Rect) -> None:
        """Enlarge the entry rectangles on the descent's ``path``, from
        the bottom, to cover a rectangle that was just added below it.
        Enlargement is monotonic, so the walk stops at the first
        ancestor that already covers it."""
        for parent, index in reversed(path):
            rect = parent.entries[index].rect
            if rect.contains(added):
                break
            parent.patch_rect(index, rect.union(added))
            self._write(parent)

    # ------------------------------------------------------------------
    # overflow treatment: forced reinsert or split
    # ------------------------------------------------------------------
    def _reinsert_enabled(self, level: int) -> bool:
        if level == 0:
            return self.leaf_reinsert
        return True

    def _overflow_treatment(self, node: Node) -> None:
        level = node.level
        if (
            node.parent is not None
            and level not in self._overflowed_levels
            and self._reinsert_enabled(level)
        ):
            self._overflowed_levels.add(level)
            self._force_reinsert(node)
        else:
            self._split_node(node)

    def _force_reinsert(self, node: Node) -> None:
        """Remove the ``p`` entries farthest from the node center and
        reinsert them closest-first ([BKSS90] close reinsert)."""
        self.reinserts += 1
        center_rect = node.mbr()
        entries = node.entries
        order = sorted(
            range(len(entries)),
            key=lambda i: entries[i].rect.center_distance(center_rect),
            reverse=True,
        )
        p = max(1, int(self.reinsert_fraction * len(order)))
        removed = [entries[i] for i in order[:p]]
        node.replace_entries(*node.take(order[p:]))
        self._write(node)
        self._adjust_upward_full(node)
        # Count-limited nodes are guaranteed to fit after removing 30 %
        # of their entries; byte-limited nodes (primary / cluster
        # organization) may still overflow — split before reinserting.
        if self._is_overflow(node) and len(node.entries) >= 2:
            self._split_node(node)
        for entry in reversed(removed):
            self._insert(entry, node.level)

    def _adjust_upward_full(self, node: Node) -> None:
        """Like :meth:`_adjust_upward` but never stops early — needed
        after removals, where MBRs may shrink non-monotonically."""
        while node.parent is not None:
            parent = node.parent
            index = parent.entry_index(node)
            new_rect = node.mbr()
            if new_rect != parent.entries[index].rect:
                parent.patch_rect(index, new_rect)
                self._write(parent)
            node = parent

    def _split_node(self, node: Node) -> None:
        self.splits += 1
        if node.is_leaf:
            self.leaf_splits += 1
            self.leaf_count += 1
        order, k = rstar_split(node.rect_matrix(), self.min_fill_fraction)
        new_node = self._new_node(node.level)
        new_node.replace_entries(*node.take(order[k:]))
        node.replace_entries(*node.take(order[:k]))

        parent: Node | None
        if node.parent is None:
            parent = self._new_node(node.level + 1)
            parent.add(Entry(node.mbr(), child=node))
            parent.add(Entry(new_node.mbr(), child=new_node))
            self.root = parent
            self.height += 1
            self._write(parent)
        else:
            parent = node.parent
            parent.patch_rect(parent.entry_index(node), node.mbr())
            parent.add(Entry(new_node.mbr(), child=new_node))
        self._write(node)
        self._write(new_node)
        self._write(parent)
        self._adjust_upward_full(parent)

        if node.is_leaf and self.leaf_split_handler is not None:
            self.leaf_split_handler(node, new_node)

        # A byte-capacity policy may leave one half still overflowing
        # (e.g. a skewed distribution of large objects): split again.
        for part in (node, new_node):
            if self._is_overflow(part) and len(part.entries) >= 2:
                self._split_node(part)

        if self._is_overflow(parent):
            self._overflow_treatment(parent)

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------
    def delete(self, oid: int, rect: Rect) -> Entry:
        """Remove the data entry with the given id and MBR.

        Raises :class:`KeyError` if no such entry exists.  Underfull
        nodes are dissolved and their entries reinserted (R-tree
        condensation), so the tree stays balanced.
        """
        found = self._find_leaf(self.root, oid, rect, insertion_vector(rect))
        if found is None:
            raise KeyError(f"no entry with oid={oid} and rect={rect.as_tuple()}")
        self._generation += 1
        leaf, entry = found
        leaf.remove(entry)
        self._write(leaf)
        self.size -= 1
        self._overflowed_levels = set()
        self._condense(leaf)
        self._shrink_root()
        return entry

    def _find_leaf(
        self, node: Node, oid: int, rect: Rect, q: np.ndarray
    ) -> tuple[Node, Entry] | None:
        """The data page and entry of ``(oid, rect)`` below ``node``, by a
        depth-first descent into every child whose rectangle contains
        ``rect`` (``q``, its insertion vector), in entry order: one
        ``Rect.contains`` mask over the node's query matrix."""
        self._read(node)
        if node.is_leaf:
            for entry in node.entries:
                if entry.oid == oid and entry.rect == rect:
                    return node, entry
            return None
        entries = node.entries
        for i in (node.query_matrix() <= q).all(axis=1).nonzero()[0].tolist():
            child = entries[i].child
            assert child is not None
            found = self._find_leaf(child, oid, rect, q)
            if found is not None:
                return found
        return None

    def _condense(self, node: Node) -> None:
        orphans: list[Node] = []
        current = node
        while current.parent is not None:
            parent = current.parent
            if len(current.entries) < self._min_entries(current):
                parent.remove(parent.entry_for_child(current))
                self._retire(current)
                if current.is_leaf:
                    self.leaf_count -= 1
                orphans.append(current)
            else:
                parent.patch_rect(parent.entry_index(current), current.mbr())
                self._write(current)
            self._write(parent)
            current = parent
        for orphan in orphans:
            for entry in orphan.entries:
                self._insert(entry, orphan.level)

    def _shrink_root(self) -> None:
        while not self.root.is_leaf and len(self.root.entries) == 1:
            child = self.root.entries[0].child
            assert child is not None
            self._retire(self.root)
            self.root = child
            self.root.parent = None
            self.height -= 1
        if not self.root.is_leaf and not self.root.entries:
            raise TreeError("directory root lost all entries")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def window_leaves(
        self,
        window: Rect,
        read: Callable[[Node], None] | None = None,
    ) -> list[tuple[Node, np.ndarray]]:
        """Per data page, the positions of its entries matching
        ``window`` — the unit the cluster-organization read techniques
        operate on (Section 5.4) — as an ascending int64 array.  Only
        pages with at least one match are returned.  Every visited page
        goes to ``read`` — by default the pager, which prices it.

        Each visited node is filtered with one boolean mask over its
        query matrix; pages are visited in stack-DFS order."""
        read = read or self._read
        qvec = kernels.window_qvec(window)
        groups: list[tuple[Node, np.ndarray]] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            read(node)
            if not node.entries:
                continue
            hits = kernels.qvec_mask(node.query_matrix(), qvec).nonzero()[0]
            if not node.is_leaf:
                entries = node.entries
                for i in hits.tolist():
                    child = entries[i].child
                    assert child is not None
                    stack.append(child)
            elif hits.size:
                groups.append((node, hits))
        return groups

    def window_leaves_batch(
        self, rects: Sequence[Rect]
    ) -> list[tuple[list[Node], list[tuple[Node, np.ndarray]]]]:
        """Batched, *unpriced* form of :meth:`window_leaves`: per query a
        pair ``(visited_nodes, groups)``, where ``groups`` is
        ``window_leaves(rect)`` and ``visited_nodes`` its page visits in
        order, so pricing the visits query by query costs what running
        the queries one at a time costs."""
        per_query = []
        for rect in rects:
            visited: list[Node] = []
            per_query.append((visited, self.window_leaves(rect, visited.append)))
        return per_query

    def window_query(self, window: Rect) -> list[Entry]:
        """All data entries whose MBR shares points with ``window``
        (the *filter* step; exact refinement is the storage layer's
        job), in :meth:`window_leaves` order.  Visited pages are priced
        through the pager."""
        return [
            leaf.entries[i]
            for leaf, hits in self.window_leaves(window)
            for i in hits.tolist()
        ]

    def point_query(self, x: float, y: float) -> list[Entry]:
        """All data entries whose MBR contains the point (a degenerate
        window, so the same one-sided comparison applies)."""
        return self.window_query(Rect(x, y, x, y))

    # ------------------------------------------------------------------
    # flat snapshot (structure-of-arrays form, repro.rtree.flat)
    # ------------------------------------------------------------------
    def flat_snapshot(self) -> FlatTree:
        """The structure-of-arrays snapshot of this tree the join
        traverses, rebuilt lazily when the generation counter says the
        structure changed."""
        flat = self._flat
        if flat is None or flat.generation != self._generation:
            flat = build_flat(self)
            self._flat = flat
        return flat

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def leaves(self) -> Iterator[Node]:
        """Iterate all data pages left-to-right (no I/O pricing)."""
        for node in self.root.walk():
            if node.is_leaf:
                yield node

    def nodes(self) -> Iterator[Node]:
        """Iterate all nodes pre-order (no I/O pricing)."""
        return self.root.walk()

    def node_count(self) -> int:
        return sum(1 for _ in self.nodes())

    def __len__(self) -> int:
        return self.size
