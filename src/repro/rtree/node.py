"""R*-tree nodes.

A node corresponds to one page on secondary storage (Section 4.1).
Level 0 nodes are data pages (leaves); higher levels form the directory.
Nodes keep parent pointers so MBR adjustment and condensation can walk
upward without a search path, and cache a numpy matrix of their entry
rectangles for the vectorised ChooseSubtree criteria.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from repro.geometry.rect import Rect
from repro.rtree.entry import Entry

__all__ = ["Node"]


class Node:
    """One R*-tree node (= one page).

    Attributes
    ----------
    node_id:
        Monotonically increasing identifier, unique per tree.
    level:
        0 for data pages, ``height - 1`` for the root of a tall tree.
    entries:
        Mutable entry list; mutate only via the tree (or call
        :meth:`invalidate` afterwards so the rect cache stays coherent).
    parent:
        The parent node, or ``None`` for the root.
    page:
        Absolute disk page number assigned by the pager, or ``None`` for
        purely in-memory trees.
    tag:
        Opaque slot for the storage layer (the cluster organization hangs
        the leaf's cluster unit here).
    """

    __slots__ = (
        "node_id",
        "level",
        "entries",
        "parent",
        "page",
        "tag",
        "_rects",
        "_rects_valid",
        "_mbr",
        "_query_matrix",
        "_rows",
        "_load",
    )

    def __init__(self, node_id: int, level: int, entries: list[Entry] | None = None):
        self.node_id = node_id
        self.level = level
        self.entries: list[Entry] = entries if entries is not None else []
        self.parent: "Node | None" = None
        self.page: int | None = None
        self.tag: Any = None
        self._rects: np.ndarray | None = None
        self._rects_valid = False
        self._mbr: Rect | None = None
        self._query_matrix: np.ndarray | None = None
        self._rows: np.ndarray | None = None
        self._load: int | None = None

    # ------------------------------------------------------------------
    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return (
            f"Node(id={self.node_id}, level={self.level}, "
            f"entries={len(self.entries)})"
        )

    # ------------------------------------------------------------------
    def mbr(self) -> Rect:
        """Union of all entry rectangles (cached; min/max unions are
        exact, so the cached value is bit-identical to a fresh one)."""
        if self._mbr is None:
            self._mbr = Rect.union_of(e.rect for e in self.entries)
        return self._mbr

    def load(self) -> int:
        """Total byte load of the entries (drives byte-capacity splits);
        summed once, then kept current by :meth:`add` until the next
        :meth:`invalidate` (an entry's ``load`` never changes)."""
        if self._load is None:
            self._load = sum(e.load for e in self.entries)
        return self._load

    def invalidate(self) -> None:
        """Drop the cached rect matrix, query matrix, rows, MBR and byte
        load after any entry mutation."""
        self._rects_valid = False
        self._mbr = None
        self._query_matrix = None
        self._rows = None
        self._load = None

    def rect_matrix(self) -> np.ndarray:
        """An ``(n, 4)`` float64 matrix of the entry rectangles, cached
        until :meth:`invalidate` is called."""
        if not self._rects_valid or self._rects is None or len(
            self._rects
        ) != len(self.entries):
            self._rects = np.array(
                [(e.rect.xmin, e.rect.ymin, e.rect.xmax, e.rect.ymax)
                 for e in self.entries],
                dtype=np.float64,
            ).reshape(len(self.entries), 4)
            self._rects_valid = True
            self._query_matrix = None
        return self._rects

    def query_matrix(self) -> np.ndarray:
        """The negated rect matrix ``(xmin, ymin, -xmax, -ymax)`` the
        query kernels compare in one shot (see
        :func:`repro.core.kernels.qvec_mask`); cached alongside
        :meth:`rect_matrix` and derived from it, so it inherits the
        exact same float64 values (negation is lossless)."""
        if self._query_matrix is None or not self._rects_valid or len(
            self._query_matrix
        ) != len(self.entries):
            rects = self.rect_matrix()
            qm = rects.copy()
            np.negative(qm[:, 2:], out=qm[:, 2:])
            self._query_matrix = qm
        return self._query_matrix

    def rows(self) -> np.ndarray:
        """The entries' geometry-column rows (``Entry.row``) as an int64
        vector, cached beside :meth:`query_matrix` until
        :meth:`invalidate`."""
        if self._rows is None:
            self._rows = np.fromiter(
                (e.row for e in self.entries), dtype=np.int64, count=len(self.entries)
            )
        return self._rows

    def patch_rect(self, index: int, rect: Rect) -> None:
        """Update one row of the cached rect matrix in place after the
        entry at ``index`` changed its rectangle (cheaper than a full
        :meth:`invalidate` + rebuild).  The cached node MBR still drops:
        a patched rectangle may move any boundary."""
        if self._rects_valid and self._rects is not None and index < len(self._rects):
            row = self._rects[index]
            row[0] = rect.xmin
            row[1] = rect.ymin
            row[2] = rect.xmax
            row[3] = rect.ymax
            if self._query_matrix is not None and index < len(self._query_matrix):
                qrow = self._query_matrix[index]
                qrow[0] = rect.xmin
                qrow[1] = rect.ymin
                qrow[2] = -rect.xmax
                qrow[3] = -rect.ymax
        self._mbr = None

    # ------------------------------------------------------------------
    def add(self, entry: Entry) -> None:
        """Append an entry, fixing the child's parent pointer; a byte
        load already summed advances by the entry's instead of dropping."""
        load = self._load
        self.entries.append(entry)
        if entry.child is not None:
            entry.child.parent = self
        self.invalidate()
        if load is not None:
            self._load = load + entry.load

    def remove(self, entry: Entry) -> None:
        """Remove an entry by identity."""
        self.entries.remove(entry)
        self.invalidate()

    def entry_for_child(self, child: "Node") -> Entry:
        """The directory entry of this node referencing ``child``."""
        return self.entries[self.entry_index(child)]

    def entry_index(self, child: "Node") -> int:
        """Position of the directory entry referencing ``child``."""
        for i, entry in enumerate(self.entries):
            if entry.child is child:
                return i
        raise KeyError(f"node#{child.node_id} is not a child of node#{self.node_id}")

    def walk(self) -> Iterator["Node"]:
        """Pre-order traversal of the subtree rooted here."""
        yield self
        if not self.is_leaf:
            for entry in self.entries:
                assert entry.child is not None
                yield from entry.child.walk()
