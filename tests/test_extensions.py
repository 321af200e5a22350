"""Tests for the beyond-the-paper extensions: Hilbert bulk loading and
the adaptive (exact-candidate-count) read technique."""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, strategies as st

from repro.core.hilbert import grid_cells, hilbert_index, point_key, sort_by_hilbert
from repro.core.techniques import adaptive_prefers_complete
from repro.disk.params import DiskParameters
from repro.errors import ConfigurationError, StorageError
from repro.geometry.rect import Rect

from tests.conftest import brute_force_window, build_org, make_objects


class TestHilbertIndex:
    def test_order_one_quadrants(self):
        # The order-1 curve visits (0,0), (0,1), (1,1), (1,0).
        assert hilbert_index(0, 0, 1) == 0
        assert hilbert_index(0, 1, 1) == 1
        assert hilbert_index(1, 1, 1) == 2
        assert hilbert_index(1, 0, 1) == 3

    def test_bijection_order_three(self):
        side = 8
        indexes = {
            hilbert_index(x, y, 3) for x in range(side) for y in range(side)
        }
        assert indexes == set(range(side * side))

    def test_out_of_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            hilbert_index(4, 0, 2)

    @given(st.integers(0, 63), st.integers(0, 63))
    def test_neighbour_locality(self, x, y):
        """Adjacent cells on the curve are adjacent in space: positions
        d and d+1 map to cells at L1 distance exactly 1 — verified via
        the bijection by probing this cell's curve neighbours."""
        d = hilbert_index(x, y, 6)
        neighbours = [
            (x + dx, y + dy)
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
            if 0 <= x + dx < 64 and 0 <= y + dy < 64
        ]
        succ = [
            abs(hilbert_index(nx, ny, 6) - d) for nx, ny in neighbours
        ]
        # at least one spatial neighbour is the curve's predecessor or
        # successor (the defining property of the Hilbert curve)
        if 0 < d < 64 * 64 - 1:
            assert 1 in succ

    def test_sort_key_validation(self):
        with pytest.raises(ConfigurationError):
            point_key(1.0, 1.0, 0.0)
        with pytest.raises(ConfigurationError):
            grid_cells([[1.0, 1.0]], -1.0)
        with pytest.raises(ConfigurationError):
            sort_by_hilbert(make_objects(1, seed=1), 0.0)

    def test_sort_is_deterministic_permutation(self):
        objs = make_objects(100, seed=2)
        a = sort_by_hilbert(objs, 10_000.0)
        b = sort_by_hilbert(objs, 10_000.0)
        assert a == b
        assert sorted(o.oid for o in a) == sorted(o.oid for o in objs)


class TestHilbertBuild:
    def test_unknown_order_rejected(self):
        from repro.storage.secondary import SecondaryOrganization

        org = SecondaryOrganization()
        with pytest.raises(StorageError):
            org.build([], order="zorder")

    def test_double_build_rejected(self):
        org = build_org("secondary", [])
        with pytest.raises(StorageError):
            org.build([])

    def test_hilbert_build_cheaper_and_equivalent(self):
        objs = make_objects(600, seed=3)
        plain = build_org("cluster", objs)
        sorted_org = build_org("cluster", objs, order="hilbert")
        # Construction locality: sorted insertion costs clearly less.
        assert (
            sorted_org.construction_io.total_ms
            < 0.9 * plain.construction_io.total_ms
        )
        # Queries agree with brute force, as always.
        window = Rect(2000, 2000, 6000, 6000)
        got = {o.oid for o in sorted_org.window_query(window).objects}
        assert got == brute_force_window(objs, window)

    def test_hilbert_build_all_organizations(self):
        objs = make_objects(200, seed=4)
        for kind in ("secondary", "primary", "cluster"):
            org = build_org(kind, objs, order="hilbert")
            assert len(org) == 200


class TestAdaptiveTechnique:
    def test_decision_function(self):
        params = DiskParameters()
        # 1 candidate in an 80-page unit: per-object access is cheaper.
        assert not adaptive_prefers_complete(80, 1, 1.0, params)
        # 30 candidates in a 20-page unit: the complete read wins.
        assert adaptive_prefers_complete(20, 30, 1.0, params)

    def test_adaptive_never_worse_than_both_baselines(self):
        objs = make_objects(500, seed=5)
        org = build_org("cluster", objs)
        windows = [
            Rect(1000, 1000, 1200, 1200),
            Rect(0, 0, 10_000, 10_000),
            Rect(4000, 4000, 6000, 6000),
        ]
        for window in windows:
            costs = {}
            for technique in ("complete", "adaptive"):
                org.technique = technique
                costs[technique] = org.window_query(window).io.total_ms
            # Per-object access: the adaptive technique, its choice forced.
            with mock.patch(
                "repro.core.organization.adaptive_prefers_complete", return_value=False
            ):
                costs["per object"] = org.window_query(window).io.total_ms
            # Adaptive picks per unit, so it can beat both but should
            # never lose to the better of the two by more than noise.
            assert costs["adaptive"] <= min(
                costs["complete"], costs["per object"]
            ) * 1.05, (window, costs)

    def test_adaptive_answers_identical(self, objects300, cluster300):
        window = Rect(1500, 1500, 5000, 5000)
        original = cluster300.technique
        try:
            cluster300.technique = "complete"
            want = {o.oid for o in cluster300.window_query(window).objects}
            cluster300.technique = "adaptive"
            got = {o.oid for o in cluster300.window_query(window).objects}
        finally:
            cluster300.technique = original
        assert got == want
