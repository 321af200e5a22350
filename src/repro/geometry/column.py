"""One organization's geometry as columns: a row per stored object.

Every exact step reads geometry from here (ROADMAP N): the window and
point refinement and the join's pair kernel gather vertices by row id
(:mod:`repro.geometry.intersect`), a data entry carries its object's
row (``Entry.row``), and the catalog's ``objects`` and ``vertices``
tables are the live rows as they stand (:mod:`repro.storage.serial`).

Row ``r`` holds one object, whose geometry is a polyline:
``oids[r]`` (``-1`` once it is deleted — a tombstone), ``sizes[r]``
(its ``size_bytes``), ``tight[r]`` (no ``mbr_override``: its key is
its geometry's MBR), ``boxes[r]`` (that tight MBR, ``xmin, ymin,
xmax, ymax``; NaN for a row without vertices) and its vertices
``vertices[starts[r]:starts[r] + counts[r]]``.  Rows are appended in
insertion order and never move, so the live rows in order are the
organization's object table in order.  The arrays carry spare
capacity (doubled when full): only the first ``n_rows`` rows and
``n_vertices`` vertices mean anything.

An append only queues its object and hands out the row it will have;
:meth:`GeometryColumn.flushed` fills the queued rows in one batch, so
a build pays a handful of numpy calls in all instead of per object.
Whatever reads the arrays reads them from ``flushed()``.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

import numpy as np

__all__ = ["GeometryColumn"]


class GeometryColumn:
    """The columns above, grown by :meth:`append` (read through
    :meth:`flushed`), tombstoned by :meth:`delete`."""

    __slots__ = (
        "oids", "sizes", "tight", "boxes", "starts", "counts", "vertices",
        "n_rows", "n_vertices", "_by_oid", "_queue",
    )

    def __init__(self, oids, sizes, tight, boxes, counts, vertices):
        self.oids, self.sizes, self.tight = oids, sizes, tight
        self.boxes, self.counts, self.vertices = boxes, counts, vertices
        self.starts = counts.cumsum() - counts
        self.n_rows, self.n_vertices = len(oids), len(vertices)
        self._by_oid: np.ndarray | None = None
        self._queue: list = []

    @classmethod
    def of(cls, coords_list: Sequence[np.ndarray]) -> "GeometryColumn":
        """Polylines given as ``(n, 2)`` vertex matrices, row ``k`` the
        ``k``-th: the kernels' list forms, and (of none) a new
        organization's column."""
        n = len(coords_list)
        counts = np.fromiter(map(len, coords_list), dtype=np.int64, count=n)
        vertices = np.concatenate([np.empty((0, 2)), *coords_list], dtype=np.float64)
        return cls(
            np.arange(n), np.zeros(n, dtype=np.int64), np.ones(n, dtype=bool),
            _boxes(vertices, counts), counts, vertices,
        )

    @classmethod
    def adopt(
        cls, objects: np.ndarray, vertices: np.ndarray, override_rows: np.ndarray
    ) -> "GeometryColumn":
        """The catalog's ``objects`` table (oid, kind, size, vertex count
        per row) and ``vertices`` column as they are; only the oids are
        copied, for tombstones to be written."""
        oids, _kinds, sizes, counts = objects.T
        tight = np.ones(len(objects), dtype=bool)
        tight[override_rows] = False
        return cls(oids.copy(), sizes, tight, _boxes(vertices, counts), counts, vertices)

    def append(self, obj) -> int:
        """Queue ``obj``'s geometry for the next row and return the row."""
        self._queue.append(obj)
        return self.n_rows + len(self._queue) - 1

    def flushed(self) -> "GeometryColumn":
        """This column with every queued object in its row."""
        if self._queue:
            self._fill(self._queue)
            self._queue = []
        return self

    def _fill(self, objects: list) -> None:
        """Append a row per object, all rows in one batch: a fixed number
        of numpy calls whatever the batch size, and per object only list
        work — its vertices go in as the matrix its geometry keeps, by
        one ``np.concatenate``."""
        geometries = [obj.geometry for obj in objects]
        matrices = [geometry.coords() for geometry in geometries]
        counts = list(map(len, matrices))
        k, row, start, total = len(objects), self.n_rows, self.n_vertices, sum(counts)
        if row + k > len(self.oids):
            (self.oids, self.sizes, self.tight, self.boxes, self.starts,
             self.counts) = (
                _grown(a, row + k) for a in (
                    self.oids, self.sizes, self.tight, self.boxes, self.starts,
                    self.counts,
                )
            )
        if start + total > len(self.vertices):
            self.vertices = _grown(self.vertices, start + total)
        np.concatenate(matrices, out=self.vertices[start:start + total])
        rows = slice(row, row + k)
        self.oids[rows] = [obj.oid for obj in objects]
        self.sizes[rows] = [obj.size_bytes for obj in objects]
        self.tight[rows] = [obj.mbr_override is None for obj in objects]
        self.boxes[rows] = [geometry.mbr.as_tuple() for geometry in geometries]
        self.starts[rows] = list(accumulate(counts[:-1], initial=start))
        self.counts[rows] = counts
        self.n_rows, self.n_vertices = row + k, start + total
        self._by_oid = None

    def delete(self, row: int) -> None:
        """Tombstone ``row``: its object is gone, its vertices stay."""
        self.flushed()
        self.oids[row] = -1
        self._by_oid = None

    def rows_of(self, oids: np.ndarray) -> np.ndarray:
        """The live rows of objects ``oids`` (each must be stored): a
        search in the oids, sorted once until the next append or
        delete."""
        oids_now = self.flushed().oids[:self.n_rows]
        if self._by_oid is None:
            self._by_oid = np.argsort(oids_now)
        return self._by_oid[oids_now.searchsorted(oids, sorter=self._by_oid)]

    def live(self) -> np.ndarray:
        """The rows not tombstoned, in order."""
        return np.flatnonzero(self.flushed().oids[:self.n_rows] >= 0)

    def vertex_index(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The vertices of ``rows``, row after row, as indices into
        :attr:`vertices`, and each row's end among them."""
        counts = self.counts[rows]
        ends = counts.cumsum()
        if len(rows) == 1:  # one run
            start = self.starts[rows[0]]
            return np.arange(start, start + ends[0]), ends
        index = (self.starts[rows] - ends + counts).repeat(counts)
        index += np.arange(len(index))
        return index, ends


def _boxes(vertices: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each row's tight MBR, by ``reduceat`` (min / max: the floats
    ``Rect.from_points`` takes); NaN for a row without vertices."""
    boxes = np.full((len(counts), 4), np.nan)
    full = counts > 0
    if full.any():
        starts = (counts.cumsum() - counts)[full]
        boxes[full, :2] = np.minimum.reduceat(vertices, starts)
        boxes[full, 2:] = np.maximum.reduceat(vertices, starts)
    return boxes


def _grown(a: np.ndarray, need: int) -> np.ndarray:
    """``a`` copied into an array of at least twice its rows."""
    grown = np.empty((max(need, 2 * len(a)), *a.shape[1:]), dtype=a.dtype)
    grown[:len(a)] = a
    return grown
