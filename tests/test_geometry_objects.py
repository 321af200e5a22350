"""Tests for Polyline, SpatialObject, sizes and the exact-test cost
counter."""

from __future__ import annotations

import pytest

from repro.constants import EXACT_TEST_MS
from repro.errors import GeometryError
from repro.geometry.decomposed import ExactTestCounter
from repro.geometry.feature import SpatialObject
from repro.geometry.polyline import Polyline
from repro.geometry.rect import Rect
from repro.geometry.sizes import (
    OBJECT_HEADER_BYTES,
    VERTEX_BYTES,
    polyline_size_bytes,
)


class TestSizes:
    def test_size_formula(self):
        assert polyline_size_bytes(10) == OBJECT_HEADER_BYTES + 10 * VERTEX_BYTES

    def test_size_rejects_zero(self):
        with pytest.raises(ValueError):
            polyline_size_bytes(0)


class TestPolyline:
    def test_requires_two_vertices(self):
        with pytest.raises(GeometryError):
            Polyline([(0, 0)])

    def test_mbr(self):
        line = Polyline([(0, 5), (3, 1), (2, 8)])
        assert line.mbr == Rect(0, 1, 3, 8)

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

    def test_mbr_override(self):
        line = Polyline([(0, 0), (1, 1)])
        big = Rect(-10, -10, 10, 10)
        obj = SpatialObject(1, line, mbr_override=big)
        assert obj.mbr == big

    def test_mbr_override_must_contain_geometry(self):
        line = Polyline([(0, 0), (5, 5)])
        with pytest.raises(GeometryError):
            SpatialObject(1, line, mbr_override=Rect(0, 0, 1, 1))

    def test_intersects_delegates_to_the_polylines(self):
        """A border kept as a closed ring meets a line that crosses or
        touches the ring, not one wholly inside it (a line has no
        interior)."""
        ring = SpatialObject(1, Polyline([(0, 0), (10, 0), (10, 10), (0, 10), (0, 0)]))
        assert not ring.intersects(SpatialObject(2, Polyline([(4, 4), (6, 6)])))
        assert SpatialObject(3, Polyline([(-5, 5), (5, 5)])).intersects(ring)
        assert ring.intersects(SpatialObject(4, Polyline([(10, 10), (20, 20)])))
        assert not ring.intersects(SpatialObject(5, Polyline([(20, 20), (30, 30)])))

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
