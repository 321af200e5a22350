"""R*-tree nodes.

A node corresponds to one page on secondary storage (Section 4.1).
Level 0 nodes are data pages (leaves); higher levels form the directory.
Nodes keep parent pointers so the split, the forced reinsert and
condensation can walk upward without a search path; an insert's upward
walk retraces its descent's path instead.

Each node keeps its *block*: per entry, in entry order, the rectangle
``(xmin, ymin, xmax, ymax)``, the same rectangle in the query kernels'
form ``(xmin, ymin, -xmax, -ymax)`` and its area — three float64
arrays grown by capacity doubling, so each matrix is a C-contiguous
view, as the query kernels want it.  The block is tree state, kept
current by the node's own mutators — :meth:`Node.add` writes a row,
:meth:`Node.remove` shifts the rows below up, :meth:`Node.patch_rect`
rewrites one — and never discarded or rebuilt from ``Entry`` objects.
Only :meth:`Node.replace_entries` installs a whole block, and its
callers bring the rows: a split or a forced reinsert hands each half
its rows with :meth:`Node.take`, and ``open`` gives every node its
slice of one :func:`block_of` over the catalog's rectangle column.
ChooseSubtree, the split, the window filter, the flat snapshot and the
catalog all read it.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from repro.geometry.rect import Rect
from repro.rtree.entry import Entry

__all__ = ["Node", "Block", "block_of"]

Block = tuple[np.ndarray, np.ndarray, np.ndarray]
"""A node's rows: the ``(n, 4)`` rects, the ``(n, 4)`` query form and
the ``(n,)`` areas; a node's own block may hold spare rows past ``n``."""

#: Rows a block starts with; it doubles whenever an ``add`` finds it full.
_MIN_CAPACITY = 8


def block_of(rects: np.ndarray) -> Block:
    """The block of an ``(n, 4)`` rect matrix: the rects, the query form
    (negation is lossless) and the areas, computed as :meth:`Rect.area`
    computes them, so a row written from a ``Rect`` and a row derived
    here carry the same bits."""
    query = rects.copy()
    np.negative(query[:, 2:], out=query[:, 2:])
    return rects.copy(), query, (rects[:, 2] - rects[:, 0]) * (rects[:, 3] - rects[:, 1])


def _grown(rows: np.ndarray, n: int) -> np.ndarray:
    out = np.empty((max(_MIN_CAPACITY, 2 * n), *rows.shape[1:]))
    out[:n] = rows[:n]
    return out


class Node:
    """One R*-tree node (= one page).

    Attributes
    ----------
    node_id:
        Monotonically increasing identifier, unique per tree.
    level:
        0 for data pages, ``height - 1`` for the root of a tall tree.
    entries:
        The entry list.  Read it freely; change it, or an entry's
        rectangle, only through :meth:`add`, :meth:`remove`,
        :meth:`patch_rect` and :meth:`replace_entries` — the only code
        that writes the block — which keep the block, MBR, rows and
        byte load current.
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
        "_block",
        "_rects",
        "_query",
        "_areas",
        "_mbr",
        "_rows",
        "_load",
    )

    def __init__(self, node_id: int, level: int, entries: list[Entry] | None = None):
        self.node_id = node_id
        self.level = level
        self.parent: "Node | None" = None
        self.page: int | None = None
        self.tag: Any = None
        self.entries: list[Entry] = []
        rows = np.empty((_MIN_CAPACITY, 4))
        self._adopt((rows, rows.copy(), np.empty(_MIN_CAPACITY)), 0)
        for entry in entries or ():
            self.add(entry)

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
    # the block
    # ------------------------------------------------------------------
    def _adopt(self, block: Block, n: int) -> None:
        """Make the first ``n`` rows of ``block`` this node's block and
        drop what a change of entries makes stale."""
        self._block = block
        self._sized(n)
        self._load = None

    def _sized(self, n: int) -> None:
        rects, query, areas = self._block
        self._rects = rects[:n]
        self._query = query[:n]
        self._areas = areas[:n]
        self._mbr = None
        self._rows = None

    def _write_row(self, index: int, rect: Rect) -> None:
        rects, query, areas = self._block
        x0, y0, x1, y1 = rect.xmin, rect.ymin, rect.xmax, rect.ymax
        rects[index] = (x0, y0, x1, y1)
        query[index] = (x0, y0, -x1, -y1)
        areas[index] = (x1 - x0) * (y1 - y0)

    def rect_matrix(self) -> np.ndarray:
        """The ``(n, 4)`` float64 matrix of the entry rectangles, in entry
        order — a view of the block, current after every mutation."""
        return self._rects

    def query_matrix(self) -> np.ndarray:
        """The rect matrix in the query kernels' form ``(xmin, ymin,
        -xmax, -ymax)`` (see :func:`repro.core.kernels.qvec_mask`) — the
        same float64 values, last two columns negated (lossless)."""
        return self._query

    def areas(self) -> np.ndarray:
        """Per entry, ``Rect.area()`` of its rectangle, bit for bit."""
        return self._areas

    def take(self, positions: list[int]) -> tuple[list[Entry], Block]:
        """The entries at ``positions``, in that order, and their block
        rows — what :meth:`replace_entries` takes to give a node part of
        this one's entries without rebuilding its block."""
        entries = self.entries
        rects, query, areas = self._block
        return [entries[i] for i in positions], (
            rects.take(positions, axis=0),
            query.take(positions, axis=0),
            areas.take(positions),
        )

    def replace_entries(self, entries: list[Entry], block: Block) -> None:
        """Replace the entry list wholesale, fixing the children's parent
        pointers; ``block`` holds the new entries' rows in order (see
        :meth:`take` and :func:`block_of`)."""
        self.entries = entries
        for entry in entries:
            if entry.child is not None:
                entry.child.parent = self
        self._adopt(block, len(entries))

    def mbr(self) -> Rect:
        """Union of all entry rectangles, read off the block's query
        columns: one column-wise minimum gives ``(xmin, ymin, -xmax,
        -ymax)``; min and max are exact, so it equals the union of the
        entries' rectangles taken one by one (where ``-0.0`` and ``0.0``
        meet, either may win).  Cached until the next mutation."""
        if self._mbr is None:
            x0, y0, x1, y1 = self._query.min(axis=0).tolist()
            self._mbr = Rect(x0, y0, -x1, -y1)
        return self._mbr

    def load(self) -> int:
        """Total byte load of the entries (drives byte-capacity splits);
        summed once, then kept current by :meth:`add` and :meth:`remove`
        until :meth:`replace_entries` (an entry's ``load`` never
        changes)."""
        if self._load is None:
            self._load = sum(e.load for e in self.entries)
        return self._load

    def rows(self) -> np.ndarray:
        """The entries' geometry-column rows (``Entry.row``) as an int64
        vector, cached until the entries change."""
        if self._rows is None:
            self._rows = np.fromiter(
                (e.row for e in self.entries), dtype=np.int64, count=len(self.entries)
            )
        return self._rows

    def patch_rect(self, index: int, rect: Rect) -> None:
        """Give the entry at ``index`` the rectangle ``rect`` and rewrite
        its block row.  The cached node MBR drops: a patched rectangle
        may move any boundary."""
        self.entries[index].rect = rect
        self._write_row(index, rect)
        self._mbr = None

    # ------------------------------------------------------------------
    def add(self, entry: Entry) -> None:
        """Append an entry and its block row, fixing the child's parent
        pointer; a byte load already summed advances by the entry's."""
        n = len(self.entries)
        if n == len(self._block[2]):
            self._block = tuple(_grown(rows, n) for rows in self._block)
        self._write_row(n, entry.rect)
        self.entries.append(entry)
        if entry.child is not None:
            entry.child.parent = self
        self._sized(n + 1)
        if self._load is not None:
            self._load += entry.load

    def remove(self, entry: Entry) -> None:
        """Remove an entry by identity; the rows below it move up one, so
        the block keeps entry order.  A summed byte load drops by the
        entry's."""
        n = len(self.entries)
        index = self.entries.index(entry)
        del self.entries[index]
        for rows in self._block:
            rows[index : n - 1] = rows[index + 1 : n]
        self._sized(n - 1)
        if self._load is not None:
            self._load -= entry.load

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
