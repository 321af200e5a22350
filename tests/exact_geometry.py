"""The exact step over exact arithmetic: the polyline predicates of
``repro.geometry.intersect`` decided over ``fractions.Fraction``, and
the band inside which the float predicates may answer either way.

Every float64 converts to a ``Fraction`` exactly, so these predicates
decide the very inputs the float kernels see, with no rounding and no
tolerance: closed sets, "sharing a point" is intersecting, a
single-vertex chain is its point.

The band.  A float predicate decides by comparing two kinds of
quantities with zero, each computed in float64 and held against the
absolute tolerance ``_EPS``:

* a cross product (``orientation``): ``(bx - ax) * (cy - ay) - (by -
  ay) * (cx - ax)`` for a segment ``a-b`` of one geometry and a vertex
  ``c`` of the other;
* a coordinate gap (every box test: the segment pretest, ``on_segment``,
  an MBR, an outcode): the difference of an x (or y) of one geometry and
  an x (or y) of the other, with ``_EPS`` added to one side.

A quantity is *exposed* when its float decision can differ from its
exact sign: a cross product whose exact value is within ``_EPS`` of
zero but not zero, or whose float evaluation is not exact and whose
exact value lies within ``_EPS`` plus the evaluation's rounding bound
(``_CROSS_ROUNDING`` times the two products' magnitudes); a gap that is
not zero but within ``_EPS`` plus the rounding of ``x + _EPS``
(``_GAP_ROUNDING`` times the coordinate's magnitude).  A pair of
geometries is *in the band* when one of the quantities over its
segment pairs is exposed.  Outside it every float decision is the exact
one, so every kernel must answer as these predicates do; inside it
either answer is allowed, but every kernel must give the same one.  On
an integer lattice up to ``2**20`` nothing is exposed: differences,
products and their difference are exact in float64, and a non-zero
gap or cross product is at least 1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import pairwise

from repro.geometry.intersect import _EPS

Point = tuple[float, float]

#: float64's unit roundoff, ``2**-53``.
_U = Fraction(1, 2**53)
#: A float cross product ``p - q`` of two rounded products of rounded
#: differences is within ``3u (|p| + |q|) + u |p - q|``, so within
#: ``4u (|p| + |q|)``, of the exact one (to first order); the bound
#: takes three times that.
_CROSS_ROUNDING = 12 * _U
#: ``fl(x + _EPS)`` is within ``u |x + _EPS|`` of ``x + _EPS``; the
#: bound takes twice that of the larger coordinate.
_GAP_ROUNDING = 2 * _U
_TOL = Fraction(_EPS)


def _q(p: Point) -> tuple[Fraction, Fraction]:
    return Fraction(p[0]), Fraction(p[1])


def cross(a: Point, b: Point, c: Point) -> Fraction:
    """The exact cross product of ``b - a`` and ``c - a``."""
    (ax, ay), (bx, by), (cx, cy) = _q(a), _q(b), _q(c)
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def orientation(a: Point, b: Point, c: Point) -> int:
    """``1`` counter-clockwise, ``-1`` clockwise, ``0`` collinear —
    exactly."""
    value = cross(a, b, c)
    return (value > 0) - (value < 0)


def on_segment(a: Point, b: Point, p: Point) -> bool:
    """``p`` lies in the closed box of ``a-b`` (on the segment when the
    three are collinear)."""
    return all(
        min(Fraction(a[k]), Fraction(b[k])) <= p[k] <= max(Fraction(a[k]), Fraction(b[k]))
        for k in (0, 1)
    )


def segments_intersect(a: Point, b: Point, c: Point, d: Point) -> bool:
    """The closed segments ``a-b`` and ``c-d`` share a point (either may
    be a point)."""
    o1, o2 = orientation(a, b, c), orientation(a, b, d)
    o3, o4 = orientation(c, d, a), orientation(c, d, b)
    return (
        (o1 != o2 and o3 != o4)
        or (o1 == 0 and on_segment(a, b, c))
        or (o2 == 0 and on_segment(a, b, d))
        or (o3 == 0 and on_segment(c, d, a))
        or (o4 == 0 and on_segment(c, d, b))
    )


def rect_corners(rect) -> list[Point]:
    """The corners of ``(xmin, ymin, xmax, ymax)``, counter-clockwise
    from ``(xmin, ymin)`` as ``Rect.corners`` yields them."""
    xmin, ymin, xmax, ymax = rect
    return [(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)]


def in_rect(p: Point, rect) -> bool:
    xmin, ymin, xmax, ymax = rect
    return xmin <= p[0] <= xmax and ymin <= p[1] <= ymax


def segment_intersects_rect(a: Point, b: Point, rect) -> bool:
    """The closed segment ``a-b`` shares a point with the closed
    rectangle: an endpoint inside, or a crossing of its boundary."""
    if in_rect(a, rect) or in_rect(b, rect):
        return True
    ring = rect_corners(rect)
    return any(
        segments_intersect(a, b, ring[i], ring[(i + 1) % 4]) for i in range(4)
    )


def segments(vertices: list[Point]) -> list[tuple[Point, Point]]:
    """A chain's segments; a single vertex is the zero-length segment
    at it."""
    if len(vertices) == 1:
        return [(vertices[0], vertices[0])]
    return list(pairwise(vertices))


def polyline_intersects_rect(vertices: list[Point], rect) -> bool:
    return any(segment_intersects_rect(a, b, rect) for a, b in segments(vertices))


def point_on_polyline(p: Point, vertices: list[Point]) -> bool:
    return polyline_intersects_rect(vertices, (p[0], p[1], p[0], p[1]))


def polylines_intersect(a: list[Point], b: list[Point]) -> bool:
    return any(
        segments_intersect(p, q, r, s) for p, q in segments(a) for r, s in segments(b)
    )


# ----------------------------------------------------------------------
# the band
# ----------------------------------------------------------------------
def _float_cross(a: Point, b: Point, c: Point) -> float:
    """``intersect.orientation``'s cross product, in its float64 order."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def cross_exposed(a: Point, b: Point, c: Point) -> bool:
    """Can the float orientation of ``(a, b, c)`` differ from the exact
    one?"""
    (ax, ay), (bx, by), (cx, cy) = _q(a), _q(b), _q(c)
    p, q = (bx - ax) * (cy - ay), (by - ay) * (cx - ax)
    exact = abs(p - q)
    if exact and exact <= _TOL:
        return True
    if Fraction(_float_cross(a, b, c)) == p - q:
        return False
    return exact <= _TOL + _CROSS_ROUNDING * (abs(p) + abs(q))


def gap_exposed(x: float, y: float) -> bool:
    """Can a box test of ``x`` against ``y`` (``_EPS`` added to either)
    differ from the exact comparison?"""
    gap = abs(Fraction(x) - Fraction(y))
    scale = max(abs(Fraction(x)), abs(Fraction(y))) + _TOL
    return bool(gap) and gap <= _TOL + _GAP_ROUNDING * scale


def in_band(a: list[Point], b: list[Point]) -> bool:
    """Is a predicate over chains ``a`` and ``b`` (a rectangle given as
    its closed ring of corners, a point as its one vertex) exposed?"""
    for k in (0, 1):
        for p in a:
            for q in b:
                if gap_exposed(p[k], q[k]):
                    return True
    for (p, q), (r, s) in ((ab, cd) for ab in segments(a) for cd in segments(b)):
        if (
            cross_exposed(p, q, r)
            or cross_exposed(p, q, s)
            or cross_exposed(r, s, p)
            or cross_exposed(r, s, q)
        ):
            return True
    return False


def rect_ring(rect) -> list[Point]:
    """A rectangle as the chain its edge tests walk: the closed ring of
    its corners, or its one point when it has no extent."""
    xmin, ymin, xmax, ymax = rect
    if xmin == xmax and ymin == ymax:
        return [(xmin, ymin)]
    ring = rect_corners(rect)
    return ring + ring[:1]
