"""Tests for Polyline, Polygon, SpatialObject, sizes and the exact-test
cost counter."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.constants import EXACT_TEST_MS
from repro.errors import GeometryError
from repro.geometry.decomposed import ExactTestCounter
from repro.geometry.feature import SpatialObject
from repro.geometry.polygon import Polygon
from repro.geometry.polyline import Polyline
from repro.geometry.rect import Rect
from repro.geometry.sizes import (
    OBJECT_HEADER_BYTES,
    VERTEX_BYTES,
    polyline_size_bytes,
    vertices_for_size,
)


class TestSizes:
    def test_size_formula(self):
        assert polyline_size_bytes(10) == OBJECT_HEADER_BYTES + 10 * VERTEX_BYTES

    def test_size_rejects_zero(self):
        with pytest.raises(ValueError):
            polyline_size_bytes(0)

    def test_vertices_for_size_inverse(self):
        for n in (2, 5, 100, 1000):
            assert vertices_for_size(polyline_size_bytes(n)) == n

    def test_vertices_for_size_floor(self):
        assert vertices_for_size(0) == 2

    @given(st.integers(2, 10_000))
    def test_roundtrip(self, n):
        assert vertices_for_size(polyline_size_bytes(n)) == n


class TestPolyline:
    def test_requires_two_vertices(self):
        with pytest.raises(GeometryError):
            Polyline([(0, 0)])

    def test_mbr(self):
        line = Polyline([(0, 5), (3, 1), (2, 8)])
        assert line.mbr == Rect(0, 1, 3, 8)

    def test_length(self):
        assert Polyline([(0, 0), (3, 4)]).length() == pytest.approx(5.0)

    def test_size_matches_vertex_count(self):
        line = Polyline([(0, 0), (1, 1), (2, 2)])
        assert line.size_bytes() == polyline_size_bytes(3)

    def test_intersects_rect(self):
        line = Polyline([(0, 0), (10, 10)])
        assert line.intersects_rect(Rect(4, 4, 6, 6))
        assert not line.intersects_rect(Rect(8, 0, 10, 2))

    def test_contains_point_on_chain(self):
        line = Polyline([(0, 0), (10, 0)])
        assert line.contains_point(5, 0)
        assert not line.contains_point(5, 1)

    def test_intersects_polyline(self):
        a = Polyline([(0, 0), (10, 10)])
        b = Polyline([(0, 10), (10, 0)])
        c = Polyline([(20, 20), (30, 30)])
        assert a.intersects(b)
        assert not a.intersects(c)

    def test_equality_and_hash(self):
        a = Polyline([(0, 0), (1, 1)])
        b = Polyline([(0, 0), (1, 1)])
        assert a == b and hash(a) == hash(b)


class TestPolygon:
    SQUARE = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])

    def test_requires_three_vertices(self):
        with pytest.raises(GeometryError):
            Polygon([(0, 0), (1, 1)])

    def test_closing_vertex_dropped(self):
        p = Polygon([(0, 0), (1, 0), (0, 1), (0, 0)])
        assert len(p) == 3

    def test_degenerate_after_close_raises(self):
        with pytest.raises(GeometryError):
            Polygon([(0, 0), (1, 0), (0, 0)])

    def test_area_shoelace(self):
        assert self.SQUARE.area() == pytest.approx(100.0)

    def test_contains_point(self):
        assert self.SQUARE.contains_point(5, 5)
        assert self.SQUARE.contains_point(0, 5)  # boundary
        assert not self.SQUARE.contains_point(11, 5)

    def test_intersects_rect_boundary_cross(self):
        assert self.SQUARE.intersects_rect(Rect(8, 8, 12, 12))

    def test_intersects_rect_window_inside(self):
        assert self.SQUARE.intersects_rect(Rect(4, 4, 6, 6))

    def test_intersects_rect_polygon_inside_window(self):
        assert self.SQUARE.intersects_rect(Rect(-5, -5, 15, 15))

    def test_intersects_rect_disjoint(self):
        assert not self.SQUARE.intersects_rect(Rect(20, 20, 30, 30))

    def test_polygon_polygon_overlap(self):
        other = Polygon([(5, 5), (15, 5), (15, 15), (5, 15)])
        assert self.SQUARE.intersects(other)

    def test_polygon_polygon_containment(self):
        inner = Polygon([(4, 4), (6, 4), (5, 6)])
        assert self.SQUARE.intersects(inner)
        assert inner.intersects(self.SQUARE)

    def test_polygon_polygon_disjoint(self):
        far = Polygon([(20, 20), (22, 20), (21, 22)])
        assert not self.SQUARE.intersects(far)


class TestSpatialObject:
    def test_defaults_to_geometry_size(self):
        line = Polyline([(0, 0), (1, 1)])
        obj = SpatialObject(1, line)
        assert obj.size_bytes == line.size_bytes()

    def test_rejects_size_below_geometry(self):
        line = Polyline([(0, 0), (1, 1), (2, 2)])
        with pytest.raises(GeometryError):
            SpatialObject(1, line, size_bytes=10)

    def test_rejects_negative_id(self):
        with pytest.raises(GeometryError):
            SpatialObject(-1, Polyline([(0, 0), (1, 1)]))

    def test_pages(self):
        obj = SpatialObject(1, Polyline([(0, 0), (1, 1)]), size_bytes=5000)
        assert obj.pages(4096) == 2

    def test_mbr_override(self):
        line = Polyline([(0, 0), (1, 1)])
        big = Rect(-10, -10, 10, 10)
        obj = SpatialObject(1, line, mbr_override=big)
        assert obj.mbr == big

    def test_mbr_override_must_contain_geometry(self):
        line = Polyline([(0, 0), (5, 5)])
        with pytest.raises(GeometryError):
            SpatialObject(1, line, mbr_override=Rect(0, 0, 1, 1))

    def test_mixed_line_polygon_intersection(self):
        poly = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
        line_inside = Polyline([(4, 4), (6, 6)])
        line_crossing = Polyline([(-5, 5), (5, 5)])
        line_outside = Polyline([(20, 20), (30, 30)])
        o_poly = SpatialObject(1, poly)
        assert o_poly.intersects(SpatialObject(2, line_inside))
        assert SpatialObject(3, line_crossing).intersects(o_poly)
        assert not o_poly.intersects(SpatialObject(4, line_outside))

    def test_mixed_pair_matches_throwaway_boundary_polyline(self):
        """The line/polygon branch tests the line against the polygon's
        cached closed ring; until PR 17 it built ``Polyline(ring)`` on
        every call.  Same answers, short rings and rings long enough
        for the vector kernel alike."""
        import math
        import random

        rng = random.Random(31)

        def old_answer(line: Polyline, poly: Polygon) -> bool:
            if not line.mbr.intersects(poly.mbr):
                return False
            if line.intersects(Polyline(poly._closed_ring())):
                return True
            return poly.contains_point(*line.vertices[0])

        answers = []
        for k in range(120):
            corners = rng.choice([4, 7, 40])
            cx, cy, radius = rng.uniform(5, 15), rng.uniform(5, 15), rng.uniform(1, 6)
            poly = Polygon(
                [
                    (
                        cx + radius * math.cos(2 * math.pi * i / corners),
                        cy + radius * math.sin(2 * math.pi * i / corners),
                    )
                    for i in range(corners)
                ]
            )
            x, y = rng.uniform(0, 20), rng.uniform(0, 20)
            pts = [(x, y)]
            for _ in range(rng.choice([1, 5, 30])):
                x, y = x + rng.uniform(-2, 2), y + rng.uniform(-2, 2)
                pts.append((x, y))
            if k % 10 == 0:
                pts[-1] = poly.vertices[0]  # ends exactly on the boundary
            line = Polyline(pts)
            want = old_answer(line, poly)
            o_line, o_poly = SpatialObject(2 * k, line), SpatialObject(2 * k + 1, poly)
            assert o_line.intersects(o_poly) is want
            assert o_poly.intersects(o_line) is want
            answers.append(want)
        assert any(answers) and not all(answers)

    def test_identity_semantics(self):
        a = SpatialObject(7, Polyline([(0, 0), (1, 1)]))
        b = SpatialObject(7, Polyline([(2, 2), (3, 3)]))
        assert a == b  # same oid
        assert hash(a) == hash(b)


class TestExactTestCounter:
    def test_cost_model(self):
        counter = ExactTestCounter()
        counter.record(4)
        assert counter.tests == 4
        assert counter.cost_ms == pytest.approx(4 * EXACT_TEST_MS)

    def test_custom_cost(self):
        counter = ExactTestCounter(cost_per_test_ms=2.0)
        counter.record()
        assert counter.cost_ms == 2.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ExactTestCounter().record(-1)

    def test_reset(self):
        counter = ExactTestCounter()
        counter.record(10)
        counter.reset()
        assert counter.tests == 0
