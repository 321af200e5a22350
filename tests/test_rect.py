"""Unit and property tests for the MBR algebra (repro.geometry.rect)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import GeometryError
from repro.geometry.rect import EMPTY_RECT, Rect

coords = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def rects(draw):
    x1, x2 = sorted((draw(coords), draw(coords)))
    y1, y2 = sorted((draw(coords), draw(coords)))
    return Rect(x1, y1, x2, y2)


class TestConstruction:
    def test_valid(self):
        r = Rect(0, 1, 2, 3)
        assert (r.xmin, r.ymin, r.xmax, r.ymax) == (0, 1, 2, 3)

    def test_degenerate_point(self):
        r = Rect(5, 7, 5, 7)
        assert r.area() == 0
        assert r.contains_point(5, 7)

    def test_invalid_x_order(self):
        with pytest.raises(GeometryError):
            Rect(2, 0, 1, 5)

    def test_invalid_y_order(self):
        with pytest.raises(GeometryError):
            Rect(0, 5, 1, 2)

    def test_from_points(self):
        r = Rect.from_points([(1, 2), (-1, 5), (3, 0)])
        assert r == Rect(-1, 0, 3, 5)

    def test_from_points_empty_raises(self):
        with pytest.raises(GeometryError):
            Rect.from_points([])

    def test_equality_and_hash(self):
        assert Rect(0, 0, 1, 1) == Rect(0, 0, 1, 1)
        assert Rect(0, 0, 1, 1) != Rect(0, 0, 1, 2)
        assert hash(Rect(0, 0, 1, 1)) == hash(Rect(0, 0, 1, 1))
        assert Rect(0, 0, 1, 1) != "not a rect"

    def test_empty_rect_constant(self):
        assert EMPTY_RECT.area() == 0.0


class TestMeasures:
    def test_area(self):
        assert Rect(0, 0, 2, 3).area() == 6

    def test_center(self):
        assert Rect(0, 0, 2, 4).center() == (1, 2)

    def test_width_height(self):
        r = Rect(1, 2, 4, 8)
        assert (r.width, r.height) == (3, 6)


class TestPredicates:
    def test_intersects_overlapping(self):
        assert Rect(0, 0, 2, 2).intersects(Rect(1, 1, 3, 3))

    def test_intersects_touching_edge(self):
        # Closed-set semantics: touching counts (window query shares points).
        assert Rect(0, 0, 1, 1).intersects(Rect(1, 0, 2, 1))

    def test_intersects_touching_corner(self):
        assert Rect(0, 0, 1, 1).intersects(Rect(1, 1, 2, 2))

    def test_disjoint(self):
        assert not Rect(0, 0, 1, 1).intersects(Rect(2, 2, 3, 3))

    def test_contains(self):
        assert Rect(0, 0, 10, 10).contains(Rect(1, 1, 2, 2))
        assert not Rect(1, 1, 2, 2).contains(Rect(0, 0, 10, 10))

    def test_contains_self(self):
        r = Rect(0, 0, 1, 1)
        assert r.contains(r)

    def test_contains_point_boundary(self):
        assert Rect(0, 0, 1, 1).contains_point(0, 0)
        assert Rect(0, 0, 1, 1).contains_point(1, 1)
        assert not Rect(0, 0, 1, 1).contains_point(1.0001, 0.5)


class TestAlgebra:
    def test_union(self):
        assert Rect(0, 0, 1, 1).union(Rect(2, 2, 3, 3)) == Rect(0, 0, 3, 3)

    def test_overlap_area(self):
        assert Rect(0, 0, 2, 2).overlap_area(Rect(1, 1, 3, 3)) == 1.0

    def test_overlap_area_touching_is_zero(self):
        assert Rect(0, 0, 1, 1).overlap_area(Rect(1, 0, 2, 1)) == 0.0

    def test_overlap_fraction(self):
        assert Rect(0, 0, 2, 2).overlap_fraction(Rect(0, 0, 1, 1)) == 0.25

    def test_overlap_fraction_degenerate(self):
        point = Rect(1, 1, 1, 1)
        assert point.overlap_fraction(Rect(0, 0, 2, 2)) == 1.0
        assert point.overlap_fraction(Rect(5, 5, 6, 6)) == 0.0


class TestDistances:
    def test_center_distance(self):
        # centers (1, 1) and (4, 2) -> sqrt(9 + 1)
        assert Rect(0, 0, 2, 2).center_distance(Rect(3, 1, 5, 3)) == pytest.approx(
            math.sqrt(10.0)
        )


class TestTransforms:
    def test_expanded_doubles_sides(self):
        r = Rect(0, 0, 2, 4).expanded(2.0)
        assert r == Rect(-1, -2, 3, 6)

    def test_expanded_identity(self):
        r = Rect(0, 0, 2, 4)
        assert r.expanded(1.0) == r

    def test_expanded_negative_raises(self):
        with pytest.raises(GeometryError):
            Rect(0, 0, 1, 1).expanded(-1)

    def test_corners_ccw(self):
        assert list(Rect(0, 0, 1, 2).corners()) == [
            (0, 0), (1, 0), (1, 2), (0, 2)
        ]


# ----------------------------------------------------------------------
# property-based invariants
# ----------------------------------------------------------------------
class TestProperties:
    @given(rects(), rects())
    def test_union_commutes(self, a, b):
        assert a.union(b) == b.union(a)

    @given(rects(), rects())
    def test_union_contains_both(self, a, b):
        u = a.union(b)
        assert u.contains(a) and u.contains(b)

    @given(rects(), rects())
    def test_intersects_symmetric(self, a, b):
        assert a.intersects(b) == b.intersects(a)

    @given(rects(), rects())
    def test_overlap_symmetric(self, a, b):
        assert a.overlap_area(b) == pytest.approx(b.overlap_area(a))

    @given(rects(), st.floats(0.1, 10))
    def test_expanded_keeps_center(self, r, factor):
        e = r.expanded(factor)
        cx, cy = r.center()
        ex, ey = e.center()
        scale = max(1.0, abs(cx), abs(cy))
        assert math.isclose(cx, ex, abs_tol=1e-6 * scale)
        assert math.isclose(cy, ey, abs_tol=1e-6 * scale)

    @given(rects(), rects())
    def test_contains_implies_intersects(self, a, b):
        if a.contains(b):
            assert a.intersects(b)

    @given(rects(), rects())
    def test_positive_overlap_implies_intersects(self, a, b):
        if a.overlap_area(b) > 0.0:
            assert a.intersects(b)

    @given(rects(), rects())
    def test_overlap_area_bounded_by_either_area(self, a, b):
        assert 0.0 <= a.overlap_area(b) <= min(a.area(), b.area())

    @given(rects(), rects())
    def test_overlap_fraction_in_unit_interval(self, a, b):
        assert 0.0 <= a.overlap_fraction(b) <= 1.0

    @given(rects(), rects())
    def test_union_never_shrinks_either_area(self, a, b):
        u = a.union(b)
        assert u.area() >= max(a.area(), b.area())
