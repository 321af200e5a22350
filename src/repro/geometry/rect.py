"""Axis-aligned rectangles (minimum bounding rectangles).

The :class:`Rect` is the workhorse of the whole library: R*-tree entries,
query windows, cluster-unit regions and join predicates are all expressed
as rectangles.  The class is an immutable value object and implements the
complete MBR algebra needed by the R*-tree heuristics of [BKSS90]:
area, margin, intersection, union, enlargement, overlap and distances.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from repro.errors import GeometryError

__all__ = ["Rect", "EMPTY_RECT"]


class Rect:
    """A closed, axis-aligned rectangle ``[xmin, xmax] x [ymin, ymax]``.

    Degenerate rectangles (zero width and/or height) are valid; they occur
    naturally as MBRs of horizontal or vertical line segments and points.

    Instances are value objects: treat them as immutable (the class is a
    plain ``__slots__`` class rather than a frozen dataclass purely for
    construction speed — rectangles are created millions of times by the
    R*-tree heuristics).
    """

    __slots__ = ("xmin", "ymin", "xmax", "ymax")

    def __init__(self, xmin: float, ymin: float, xmax: float, ymax: float):
        if not (xmin <= xmax and ymin <= ymax):
            raise GeometryError(
                f"invalid rectangle: ({xmin}, {ymin}, {xmax}, {ymax})"
            )
        self.xmin = xmin
        self.ymin = ymin
        self.xmax = xmax
        self.ymax = ymax

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Rect)
            and self.xmin == other.xmin
            and self.ymin == other.ymin
            and self.xmax == other.xmax
            and self.ymax == other.ymax
        )

    def __hash__(self) -> int:
        return hash((self.xmin, self.ymin, self.xmax, self.ymax))

    def __repr__(self) -> str:
        return f"Rect({self.xmin}, {self.ymin}, {self.xmax}, {self.ymax})"

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_points(cls, points: Iterable[tuple[float, float]]) -> "Rect":
        """Return the MBR of a non-empty sequence of ``(x, y)`` pairs."""
        iterator = iter(points)
        try:
            x0, y0 = next(iterator)
        except StopIteration:
            raise GeometryError("cannot build the MBR of zero points") from None
        xmin = xmax = x0
        ymin = ymax = y0
        for x, y in iterator:
            if x < xmin:
                xmin = x
            elif x > xmax:
                xmax = x
            if y < ymin:
                ymin = y
            elif y > ymax:
                ymax = y
        return cls(xmin, ymin, xmax, ymax)

    @classmethod
    def union_of(cls, rects: Iterable["Rect"]) -> "Rect":
        """Return the MBR of a non-empty iterable of rectangles."""
        iterator = iter(rects)
        try:
            first = next(iterator)
        except StopIteration:
            raise GeometryError("cannot build the union of zero rectangles") from None
        xmin, ymin = first.xmin, first.ymin
        xmax, ymax = first.xmax, first.ymax
        for r in iterator:
            if r.xmin < xmin:
                xmin = r.xmin
            if r.ymin < ymin:
                ymin = r.ymin
            if r.xmax > xmax:
                xmax = r.xmax
            if r.ymax > ymax:
                ymax = r.ymax
        return cls(xmin, ymin, xmax, ymax)

    # ------------------------------------------------------------------
    # basic measures
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    def area(self) -> float:
        """Area of the rectangle (0 for degenerate rectangles)."""
        return self.width * self.height

    def center(self) -> tuple[float, float]:
        return ((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0)

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    def intersects(self, other: "Rect") -> bool:
        """True if the closed rectangles share at least one point.

        Rectangles that merely touch at an edge or corner *do* intersect,
        matching the window-query semantics of the paper ("sharing points").
        """
        return (
            self.xmin <= other.xmax
            and other.xmin <= self.xmax
            and self.ymin <= other.ymax
            and other.ymin <= self.ymax
        )

    def contains(self, other: "Rect") -> bool:
        """True if ``other`` lies completely inside this rectangle."""
        return (
            self.xmin <= other.xmin
            and self.ymin <= other.ymin
            and other.xmax <= self.xmax
            and other.ymax <= self.ymax
        )

    def contains_point(self, x: float, y: float) -> bool:
        """True if the point lies inside or on the boundary."""
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax

    # ------------------------------------------------------------------
    # MBR algebra
    # ------------------------------------------------------------------
    def union(self, other: "Rect") -> "Rect":
        """Smallest rectangle covering both operands."""
        return Rect(
            min(self.xmin, other.xmin),
            min(self.ymin, other.ymin),
            max(self.xmax, other.xmax),
            max(self.ymax, other.ymax),
        )

    def overlap_area(self, other: "Rect") -> float:
        """Area of the intersection (0 if disjoint or merely touching)."""
        w = min(self.xmax, other.xmax) - max(self.xmin, other.xmin)
        if w <= 0.0:
            return 0.0
        h = min(self.ymax, other.ymax) - max(self.ymin, other.ymin)
        if h <= 0.0:
            return 0.0
        return w * h

    def overlap_fraction(self, other: "Rect") -> float:
        """Fraction of *this* rectangle's area covered by ``other``.

        This is the "degree of overlap" driving the geometric threshold
        technique of Section 5.4.1.  For a degenerate rectangle the
        fraction is 1.0 when the rectangles intersect at all, 0.0
        otherwise, so that threshold decisions stay well defined.
        """
        a = self.area()
        if a <= 0.0:
            return 1.0 if self.intersects(other) else 0.0
        return self.overlap_area(other) / a

    # ------------------------------------------------------------------
    # distances
    # ------------------------------------------------------------------
    def center_distance(self, other: "Rect") -> float:
        """Euclidean distance between the rectangle centers
        (drives the forced-reinsert selection of [BKSS90])."""
        cx1, cy1 = self.center()
        cx2, cy2 = other.center()
        return math.hypot(cx1 - cx2, cy1 - cy2)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def expanded(self, factor: float) -> "Rect":
        """Rectangle scaled about its center by ``factor`` per axis.

        Used to derive the join test versions *a* and *b* of Section 6.1,
        which differ only in the extension of the MBRs.
        """
        if factor < 0:
            raise GeometryError(f"expansion factor must be >= 0, got {factor}")
        cx, cy = self.center()
        hw = self.width * factor / 2.0
        hh = self.height * factor / 2.0
        return Rect(cx - hw, cy - hh, cx + hw, cy + hh)

    def corners(self) -> Iterator[tuple[float, float]]:
        """Yield the four corners counter-clockwise from ``(xmin, ymin)``."""
        yield (self.xmin, self.ymin)
        yield (self.xmax, self.ymin)
        yield (self.xmax, self.ymax)
        yield (self.xmin, self.ymax)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.xmin, self.ymin, self.xmax, self.ymax)


EMPTY_RECT = Rect(0.0, 0.0, 0.0, 0.0)
"""A degenerate rectangle at the origin, useful as a neutral placeholder."""
