"""Simple polygon geometry for area objects (administrative boundaries).

Map 2 of the paper mixes border lines, rivers and railway tracks.  Border
lines in topological data models are stored as lines, but the library
also supports genuine area objects so that point queries with the
"geometrically containing" semantics of Section 2 are exercised on
objects with an interior.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import GeometryError
from repro.geometry.intersect import (
    point_in_polygon,
    points_in_polygon,
    polyline_intersects_rect,
    polylines_intersect,
)
from repro.geometry.rect import Rect
from repro.geometry.sizes import polyline_size_bytes

__all__ = ["Polygon"]


class Polygon:
    """A simple (non self-intersecting) polygon given by its outer ring.

    The ring is stored without a repeated closing vertex; the closing
    edge is implied.  Like :class:`~repro.geometry.polyline.Polyline`,
    one ring with two caches: built here, :attr:`vertices` holds tuples
    and :meth:`ring_coords` follows on first use; built by
    :meth:`from_matrix` (a reopened catalog), the closed matrix exists
    and the tuples are built on first scalar use — ``len``,
    :meth:`size_bytes` and :attr:`mbr` never build them.
    """

    __slots__ = ("_vertices", "_mbr", "_ring", "_ring_coords")

    def __init__(self, vertices: Sequence[tuple[float, float]]):
        if len(vertices) < 3:
            raise GeometryError(
                f"a polygon needs at least 3 vertices, got {len(vertices)}"
            )
        ring = [(float(x), float(y)) for x, y in vertices]
        if ring[0] == ring[-1]:
            ring.pop()
        if len(ring) < 3:
            raise GeometryError("polygon ring collapsed to fewer than 3 vertices")
        self._vertices: tuple[tuple[float, float], ...] | None = tuple(ring)
        self._mbr: Rect | None = None
        self._ring: tuple[tuple[float, float], ...] | None = None
        self._ring_coords: np.ndarray | None = None

    @classmethod
    def from_matrix(cls, coords: np.ndarray) -> "Polygon":
        """Trusted constructor over the open ring as an ``(n >= 3, 2)``
        float64 matrix (the catalog loader's): the closed matrix seeds
        the :meth:`ring_coords` cache, and no vertex tuple is built until
        a scalar path asks for one."""
        self = cls.__new__(cls)
        self._vertices = None
        self._mbr = None
        self._ring = None
        self._ring_coords = np.concatenate((coords, coords[:1]))
        return self

    # ------------------------------------------------------------------
    @property
    def vertices(self) -> tuple[tuple[float, float], ...]:
        """The open ring as ``(x, y)`` tuples (cached)."""
        if self._vertices is None:
            self._vertices = tuple(zip(*self._ring_coords[:-1].T.tolist()))
        return self._vertices

    @property
    def mbr(self) -> Rect:
        """Minimum bounding rectangle (cached), by the scalar loop over
        whichever representation exists."""
        if self._mbr is None:
            points = self._vertices
            self._mbr = Rect.from_points(
                points if points is not None else self._ring_coords[:-1].tolist()
            )
        return self._mbr

    def __len__(self) -> int:
        points = self._vertices
        return len(points) if points is not None else len(self._ring_coords) - 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polygon) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return f"Polygon({len(self)} vertices, mbr={self.mbr.as_tuple()})"

    # ------------------------------------------------------------------
    def area(self) -> float:
        """Unsigned area via the shoelace formula."""
        total = 0.0
        n = len(self.vertices)
        for i in range(n):
            ax, ay = self.vertices[i]
            bx, by = self.vertices[(i + 1) % n]
            total += ax * by - bx * ay
        return abs(total) / 2.0

    def size_bytes(self) -> int:
        """Exact-representation size used for storage accounting."""
        return polyline_size_bytes(len(self))

    def _closed_ring(self) -> tuple[tuple[float, float], ...]:
        if self._ring is None:
            self._ring = self.vertices + (self.vertices[0],)
        return self._ring

    def ring_coords(self) -> np.ndarray:
        """The closed ring as a cached ``(n + 1, 2)`` float64 matrix for
        the vectorized refinement kernels (polygons are immutable)."""
        if self._ring_coords is None:
            self._ring_coords = np.asarray(self._closed_ring(), dtype=np.float64)
        return self._ring_coords

    # ------------------------------------------------------------------
    # exact predicates
    # ------------------------------------------------------------------
    def contains_point(self, x: float, y: float) -> bool:
        """Closed point-in-polygon predicate (boundary counts as inside)."""
        if not self.mbr.contains_point(x, y):
            return False
        return point_in_polygon(x, y, self.vertices)

    def contains_points(self, xs, ys) -> np.ndarray:
        """Batched :meth:`contains_point` over parallel coordinate
        arrays — the batch point-query refinement path tests all query
        points against one polygon at once.  Element ``k`` equals
        ``contains_point(xs[k], ys[k])`` exactly: the same MBR pretest
        gates the same ray-casting arithmetic
        (:func:`~repro.geometry.intersect.points_in_polygon`)."""
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        mbr = self.mbr
        out = np.zeros(len(xs), dtype=bool)
        in_mbr = (
            (mbr.xmin <= xs)
            & (xs <= mbr.xmax)
            & (mbr.ymin <= ys)
            & (ys <= mbr.ymax)
        )
        if in_mbr.any():
            idx = in_mbr.nonzero()[0]
            out[idx] = points_in_polygon(xs[idx], ys[idx], self.vertices)
        return out

    def intersects_rect(self, rect: Rect) -> bool:
        """True if the polygon (interior or boundary) shares a point with
        the rectangle."""
        if not self.mbr.intersects(rect):
            return False
        # Boundary crosses the window?
        if polyline_intersects_rect(self._closed_ring(), rect, coords=self.ring_coords):
            return True
        # Window fully inside the polygon?
        if point_in_polygon(rect.xmin, rect.ymin, self.vertices):
            return True
        # Polygon fully inside the window?
        return rect.contains_point(*self.vertices[0])

    def intersects(self, other: "Polygon") -> bool:
        """Polygon/polygon intersection (boundaries or containment)."""
        if not self.mbr.intersects(other.mbr):
            return False
        if polylines_intersect(
            self._closed_ring(),
            other._closed_ring(),
            coords_a=self.ring_coords,
            coords_b=other.ring_coords,
        ):
            return True
        if point_in_polygon(*other.vertices[0], self.vertices):
            return True
        return point_in_polygon(*self.vertices[0], other.vertices)
