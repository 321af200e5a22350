"""Polyline geometry — the dominant shape of TIGER-like map data.

Streets, rivers, railway tracks and administrative border lines are all
open polylines.  A :class:`Polyline` owns its vertex list, caches its MBR
and knows its storage footprint in bytes (Section 5.1 sizes objects by
their exact representation, dominated by the vertex list).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import GeometryError
from repro.geometry.intersect import polyline_intersects_rect, polylines_intersect
from repro.geometry.rect import Rect
from repro.geometry.sizes import polyline_size_bytes

__all__ = ["Polyline"]


class Polyline:
    """An open chain of line segments.

    Parameters
    ----------
    vertices:
        At least two ``(x, y)`` pairs.  The polyline is open: no closing
        segment is implied.
    """

    __slots__ = ("vertices", "_mbr", "_coords")

    def __init__(self, vertices: Sequence[tuple[float, float]]):
        if len(vertices) < 2:
            raise GeometryError(
                f"a polyline needs at least 2 vertices, got {len(vertices)}"
            )
        self.vertices: tuple[tuple[float, float], ...] = tuple(
            (float(x), float(y)) for x, y in vertices
        )
        self._mbr: Rect | None = None
        self._coords: np.ndarray | None = None

    @classmethod
    def from_matrix(cls, coords: np.ndarray) -> "Polyline":
        """Trusted constructor over an ``(n >= 2, 2)`` float64 matrix
        (the catalog loader's): no per-vertex coercion, and the matrix
        seeds the :meth:`coords` cache."""
        self = cls.__new__(cls)
        self.vertices = tuple(zip(*coords.T.tolist()))
        self._mbr = None
        self._coords = coords
        return self

    # ------------------------------------------------------------------
    @property
    def mbr(self) -> Rect:
        """Minimum bounding rectangle (cached)."""
        if self._mbr is None:
            self._mbr = Rect.from_points(self.vertices)
        return self._mbr

    def coords(self) -> np.ndarray:
        """The vertices as a cached ``(n, 2)`` float64 matrix — what the
        vectorized refinement kernels consume.  The polyline is
        immutable, so the cache never invalidates."""
        if self._coords is None:
            self._coords = np.asarray(self.vertices, dtype=np.float64)
        return self._coords

    def __len__(self) -> int:
        return len(self.vertices)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polyline) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return f"Polyline({len(self.vertices)} vertices, mbr={self.mbr.as_tuple()})"

    # ------------------------------------------------------------------
    def length(self) -> float:
        """Total Euclidean length of the chain."""
        total = 0.0
        for (ax, ay), (bx, by) in zip(self.vertices, self.vertices[1:]):
            total += math.hypot(bx - ax, by - ay)
        return total

    def size_bytes(self) -> int:
        """Exact-representation size used for storage accounting."""
        return polyline_size_bytes(len(self.vertices))

    # ------------------------------------------------------------------
    # exact predicates (the refinement step)
    # ------------------------------------------------------------------
    def intersects_rect(self, rect: Rect) -> bool:
        """Exact window-query predicate."""
        if not self.mbr.intersects(rect):
            return False
        return polyline_intersects_rect(self.vertices, rect, coords=self.coords)

    def contains_point(self, x: float, y: float) -> bool:
        """Point queries on line data: true if the point lies on the chain
        (within numeric tolerance); lines have no interior."""
        return polyline_intersects_rect(
            self.vertices, Rect(x, y, x, y), coords=self.coords
        )

    def intersects(self, other: "Polyline") -> bool:
        """Exact intersection-join predicate."""
        if not self.mbr.intersects(other.mbr):
            return False
        return polylines_intersect(
            self.vertices,
            other.vertices,
            coords_a=self.coords,
            coords_b=other.coords,
        )
