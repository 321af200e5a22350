"""Polyline geometry — the dominant shape of TIGER-like map data.

Streets, rivers, railway tracks and administrative border lines are all
open polylines.  A :class:`Polyline` owns its vertex list, caches its MBR
and knows its storage footprint in bytes (Section 5.1 sizes objects by
their exact representation, dominated by the vertex list).  A reopened
polyline is a view of the catalog's vertex column and a generated one
is born as its vertex matrix; the vertex tuples of either are built on
first scalar use.
"""

from __future__ import annotations

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

    One representation, two caches: :attr:`vertices` (tuples, what the
    scalar predicates walk) and :meth:`coords` (the ``(n, 2)`` matrix
    the kernels read).  Built here, the tuples exist and the matrix
    follows on first use; built by :meth:`from_matrix`, the other way
    round — ``len``, :meth:`size_bytes`, :attr:`mbr` and the kernels
    never build the tuples.
    """

    __slots__ = ("_vertices", "_mbr", "_coords")

    def __init__(self, vertices: Sequence[tuple[float, float]]):
        if len(vertices) < 2:
            raise GeometryError(
                f"a polyline needs at least 2 vertices, got {len(vertices)}"
            )
        self._vertices: tuple[tuple[float, float], ...] | None = tuple(
            (float(x), float(y)) for x, y in vertices
        )
        self._mbr: Rect | None = None
        self._coords: np.ndarray | None = None

    @classmethod
    def from_matrix(cls, coords: np.ndarray) -> "Polyline":
        """Trusted constructor over an ``(n >= 2, 2)`` float64 matrix
        (the catalog loader's and the map generator's): the matrix — a
        view of the catalog's vertex column, or a generated polyline's
        own — is the :meth:`coords` cache, and no vertex tuple is built
        until a scalar path asks for one."""
        self = cls.__new__(cls)
        self._vertices = None
        self._mbr = None
        self._coords = coords
        return self

    # ------------------------------------------------------------------
    @property
    def vertices(self) -> tuple[tuple[float, float], ...]:
        """The vertices as ``(x, y)`` tuples (cached)."""
        if self._vertices is None:
            self._vertices = tuple(zip(*self._coords.T.tolist()))
        return self._vertices

    @property
    def mbr(self) -> Rect:
        """Minimum bounding rectangle (cached): the scalar min/max loop
        over whichever representation exists, so both give the same
        bits."""
        if self._mbr is None:
            points = self._vertices
            self._mbr = Rect.from_points(
                points if points is not None else self._coords.tolist()
            )
        return self._mbr

    def coords(self) -> np.ndarray:
        """The vertices as a cached ``(n, 2)`` float64 matrix — what the
        vectorized refinement kernels consume.  The polyline is
        immutable, so the cache never invalidates."""
        if self._coords is None:
            self._coords = np.asarray(self.vertices, dtype=np.float64)
        return self._coords

    def __len__(self) -> int:
        points = self._vertices
        return len(points if points is not None else self._coords)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polyline) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return f"Polyline({len(self)} vertices, mbr={self.mbr.as_tuple()})"

    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Exact-representation size used for storage accounting."""
        return polyline_size_bytes(len(self))

    # ------------------------------------------------------------------
    # exact predicates (the refinement step)
    # ------------------------------------------------------------------
    def intersects_rect(self, rect: Rect) -> bool:
        """Exact window-query predicate."""
        if not self.mbr.intersects(rect):
            return False
        return polyline_intersects_rect(self.vertices, rect)

    def contains_point(self, x: float, y: float) -> bool:
        """Point queries on line data: true if the point lies on the chain
        (within numeric tolerance); lines have no interior."""
        return polyline_intersects_rect(self.vertices, Rect(x, y, x, y))

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
