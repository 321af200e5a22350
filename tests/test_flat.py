"""Tests for the structure-of-arrays snapshot (repro.rtree.flat), the
batched filter and the organization-level batch path.

The contract under test is PR-4's equivalence promise, strengthened:
per-query batch results equal the single-query results *in order*, and
the page reads are priced per query in the exact single-query visit
order — so every figure stays bit-identical whether a workload runs
batched or one query at a time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.column import GeometryColumn
from repro.geometry.feature import SpatialObject
from repro.geometry.intersect import point_in_polygon, points_in_polygon
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.rtree.flat import build_flat
from repro.rtree.rstar import RStarTree

from tests import scalar_reference as reference
from tests.conftest import ReadSpy, build_org, make_objects

ORG_KINDS = ("secondary", "primary", "cluster")


def _windows(objects, n=24, seed=101):
    from repro.data.workload import window_workload

    return window_workload(objects, 1e-3, n_queries=n, seed=seed)


def _points(objects, n=24, seed=7):
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(objects), n)
    points = []
    for pick in picks:
        vertices = objects[int(pick)].geometry.vertices
        x, y = vertices[int(rng.integers(0, len(vertices)))]
        points.append((float(x), float(y)))
    return points


def _bare_tree(objects):
    tree = RStarTree()
    for obj in objects:
        tree.insert(obj.oid, obj.mbr)
    return tree


# ----------------------------------------------------------------------
# the snapshot itself
# ----------------------------------------------------------------------
class TestFlatSnapshot:
    def test_shapes_and_csr_offsets(self, objects300):
        tree = _bare_tree(objects300)
        flat = build_flat(tree)
        assert flat.nodes[0] is tree.root
        assert len(flat.nodes) == tree.node_count()
        assert flat.entry_start[0] == 0
        assert flat.entry_start[-1] == flat.n_entries
        assert flat.entry_rect.shape == (flat.n_entries, 4)
        # Every data entry carries its object id; every directory entry
        # carries a child node id.
        data = flat.entry_child < 0
        assert (flat.entry_oid[data] >= 0).all()
        assert (flat.entry_oid[~data] < 0).all()
        children = flat.entry_child[~data]
        assert len(np.unique(children)) == len(children) == len(flat.nodes) - 1

    def test_snapshot_cached_until_structure_changes(self, objects300):
        tree = _bare_tree(objects300[:100])
        first = tree.flat_snapshot()
        assert tree.flat_snapshot() is first
        extra = objects300[100]
        tree.insert(extra.oid, extra.mbr)
        second = tree.flat_snapshot()
        assert second is not first
        assert second.n_entries == first.n_entries + 1
        tree.delete(extra.oid, extra.mbr)
        third = tree.flat_snapshot()
        assert third is not second


# ----------------------------------------------------------------------
# the batched filter: unpriced, in single-query order
# ----------------------------------------------------------------------
class TestBatchedTraversal:
    def test_empty_batches(self, objects300):
        tree = _bare_tree(objects300)
        assert tree.window_leaves_batch([]) == []
        # A query without candidates hands on no group, whether it walks
        # alone or beside another.
        miss = Rect(-20.0, -20.0, -10.0, -10.0)
        for batch in ([miss], [miss, miss]):
            for visited, groups in tree.window_leaves_batch(batch):
                assert visited and groups == []

    def test_batch_replays_reads_in_single_query_order(self, objects300):
        """The batch form's per-query visit lists, concatenated, are
        the page sequence the looped single queries read — not just the
        same multiset — and the batch itself prices nothing."""
        org_a = build_org("secondary", objects300)
        org_b = build_org("secondary", objects300)
        windows = _windows(objects300, n=12)
        with ReadSpy() as spy:
            before = org_a.disk.stats()
            batch = org_a.tree.window_leaves_batch(windows)
            assert (org_a.disk.stats() - before).requests == 0
            assert spy.pages == []
            for w in windows:
                org_b.tree.window_query(w)
        batched = [
            node.page
            for visited, _groups in batch
            for node in visited
            if node.page is not None
        ]
        assert batched == spy.pages


# ----------------------------------------------------------------------
# organization-level batch path
# ----------------------------------------------------------------------
class TestOrganizationBatch:
    @pytest.mark.parametrize("kind", ORG_KINDS)
    def test_window_batch_prices_like_singles(self, objects300, kind):
        org_a = build_org(kind, objects300)
        org_b = build_org(kind, objects300)
        windows = _windows(objects300)
        with reference.installed():
            singles = [org_a.window_query(w) for w in windows]
        assert org_b._batchable()
        batch = org_b.window_query_batch(windows)
        self._assert_equal(singles, batch)

    @pytest.mark.parametrize("kind", ORG_KINDS)
    def test_point_batch_prices_like_singles(self, objects300, kind):
        org_a = build_org(kind, objects300)
        org_b = build_org(kind, objects300)
        points = _points(objects300)
        with reference.installed():
            singles = [org_a.point_query(x, y) for x, y in points]
        batch = org_b.point_query_batch(points)
        self._assert_equal(singles, batch)
        assert sum(len(r.objects) for r in batch) > 0

    @staticmethod
    def _assert_equal(singles, batch):
        assert len(singles) == len(batch)
        for want, got in zip(singles, batch):
            assert [o.oid for o in got.objects] == [o.oid for o in want.objects]
            assert got.io.total_ms == want.io.total_ms
            assert got.io.requests == want.io.requests
            assert got.bytes_retrieved == want.bytes_retrieved
            assert got.candidates == want.candidates
            assert got.exact_tests == want.exact_tests

    def test_point_batch_refines_polygons(self):
        """The batched refinement defers polygon membership to the
        vectorized crossing-number kernel; results must match the
        per-point scalar decision (TIGER maps are all polylines, so
        this needs purpose-built polygon objects)."""
        rng = np.random.default_rng(42)
        objects = []
        for oid in range(80):
            cx, cy = rng.uniform(500, 9500, 2)
            angles = np.sort(rng.uniform(0, 2 * np.pi, 7))
            radius = rng.uniform(30, 120, 7)
            ring = [
                (cx + r * np.cos(a), cy + r * np.sin(a))
                for a, r in zip(angles, radius)
            ]
            objects.append(SpatialObject(oid, Polygon(ring), size_bytes=400))
        org_a = build_org("secondary", objects)
        org_b = build_org("secondary", objects)
        points = []
        for obj in objects[:30]:
            points.append(obj.geometry.vertices[0])          # boundary
            points.append(obj.mbr.center())                  # maybe inside
            points.append((obj.mbr.xmax + 1.0, obj.mbr.ymax + 1.0))
        with reference.installed():
            singles = [org_a.point_query(x, y) for x, y in points]
        batch = org_b.point_query_batch(points)
        self._assert_equal(singles, batch)
        assert sum(len(r.objects) for r in batch) > 0


# ----------------------------------------------------------------------
# the points-in-polygon kernel
# ----------------------------------------------------------------------
class TestPointsInPolygon:
    RING = ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (5.0, 15.0), (0.0, 10.0))

    def probe_points(self):
        pts = [
            (5.0, 5.0),      # inside
            (20.0, 5.0),     # outside
            (0.0, 0.0),      # vertex
            (5.0, 0.0),      # on a horizontal edge
            (10.0, 5.0),     # on a vertical edge
            (7.5, 12.5),     # on a diagonal edge
            (5.0, 15.0 + 1e-15),  # just past the apex
            (-1e-15, 5.0),   # just outside a vertical edge
        ]
        rng = np.random.default_rng(3)
        pts += [tuple(p) for p in rng.uniform(-2, 17, size=(200, 2))]
        return pts

    def test_vector_matches_scalar_reference(self):
        pts = self.probe_points()
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        want = [point_in_polygon(x, y, self.RING) for x, y in pts]
        got = points_in_polygon(xs, ys, self.RING)
        assert got.tolist() == want

    def test_scalar_loop_fallback_agrees(self):
        pts = self.probe_points()
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        vector = points_in_polygon(xs, ys, self.RING)
        with reference.scalar_loops():
            scalar = points_in_polygon(xs, ys, self.RING)
        assert vector.tolist() == scalar.tolist()

    def test_degenerate_inputs(self):
        assert points_in_polygon(np.array([1.0]), np.array([1.0]), ()).tolist() == [
            False
        ]
        empty = points_in_polygon(np.array([]), np.array([]), self.RING)
        assert empty.shape == (0,)

    def test_polygon_contains_points_applies_mbr_pretest(self):
        poly = Polygon(self.RING)
        xs = np.array([5.0, 50.0, 10.0])
        ys = np.array([5.0, 50.0, 5.0])
        assert poly.contains_points(xs, ys).tolist() == [
            poly.contains_point(5.0, 5.0),
            False,
            poly.contains_point(10.0, 5.0),
        ]


class TestPolylinesIntersectRects:
    def test_matches_scalar_reference(self):
        from repro.geometry.intersect import (
            polyline_intersects_rect,
            polylines_intersect_rects,
        )

        rng = np.random.default_rng(17)
        coords_list, rects = [], []
        for _ in range(150):
            n = int(rng.integers(2, 7))
            start = rng.uniform(0, 100, 2)
            steps = rng.uniform(-10, 10, (n - 1, 2))
            coords_list.append(
                np.vstack([start, start + np.cumsum(steps, axis=0)])
            )
            cx, cy = rng.uniform(0, 100, 2)
            w, h = rng.uniform(1, 20, 2)
            rects.append((cx - w, cy - h, cx + w, cy + h))
        # A few exact boundary cases: rect corner touching a vertex,
        # an edge collinear with a segment, and a far-away miss.
        coords_list += [
            np.array([(0.0, 0.0), (1.0, 0.0)]),
            np.array([(0.0, 0.0), (4.0, 0.0)]),
            np.array([(0.0, 0.0), (1.0, 1.0)]),
        ]
        rects += [
            (1.0, 0.0, 2.0, 1.0),   # corner touches endpoint
            (1.0, 0.0, 3.0, 2.0),   # bottom edge collinear with segment
            (5.0, 5.0, 6.0, 6.0),   # disjoint
        ]
        want = [
            polyline_intersects_rect(
                [tuple(p) for p in coords], Rect(*rect)
            )
            for coords, rect in zip(coords_list, rects)
        ]
        vector = polylines_intersect_rects(
            GeometryColumn.of(coords_list), np.arange(len(coords_list)), np.array(rects)
        )
        assert vector.tolist() == want
        assert any(want) and not all(want)

    def test_only_survivors_reach_the_scalar_test_on_python_floats(
        self, monkeypatch
    ):
        """The outcodes decide every segment but two; those reach
        ``segment_intersects_rect`` as plain floats, not numpy scalars
        or matrix rows."""
        from repro.geometry import intersect

        lines = [
            # decided by the inside vertex (5, 5); the segment after it
            # shares no side, but its row needs no test
            [(5.0, 5.0), (20.0, 5.0), (-5.0, 20.0)],
            # both vertices left of the window: rejected
            [(-5.0, -5.0), (-5.0, 20.0)],
            # left to right across the window: one survivor, a hit
            [(-5.0, 5.0), (15.0, 5.0)],
            # a near miss at the corner: one survivor, no hit; then a
            # segment below the window, rejected
            [(-2.0, 1.0), (1.0, -2.0), (12.0, -1.0)],
        ]
        rect = (0.0, 0.0, 10.0, 10.0)
        seen = []
        scalar = intersect.segment_intersects_rect

        def spy(a, b, window):
            seen.append((*a, *b, *window.as_tuple()))
            return scalar(a, b, window)

        monkeypatch.setattr(intersect, "segment_intersects_rect", spy)
        got = intersect.polylines_intersect_rects(
            GeometryColumn.of([np.array(line) for line in lines]),
            np.arange(len(lines)),
            rect,
        )
        assert got.tolist() == [True, False, True, False]
        # The survivors, as plain floats.
        assert seen == [(-5.0, 5.0, 15.0, 5.0, *rect), (-2.0, 1.0, 1.0, -2.0, *rect)]
        assert all(type(v) is float for call in seen for v in call)
        # No segment of the row an inside vertex decided.
        assert not {call[:2] for call in seen} & {(5.0, 5.0), (20.0, 5.0)}
        # No segment whose vertices share a side outside the window.
        assert not {call[:2] for call in seen} & {(-5.0, -5.0), (1.0, -2.0)}

    def test_single_vertex_degenerates_to_point_test(self):
        from repro.geometry.intersect import polylines_intersect_rects

        column = GeometryColumn.of([np.array([(5.0, 5.0)]), np.array([(50.0, 50.0)])])
        rects = np.array([(0.0, 0.0, 10.0, 10.0)] * 80)
        out = polylines_intersect_rects(column, np.arange(80) % 2, rects)
        assert out.tolist() == [True, False] * 40

    def test_empty_batch(self):
        from repro.geometry.intersect import polylines_intersect_rects

        rows = np.empty(0, dtype=np.int64)
        assert polylines_intersect_rects(GeometryColumn.of([]), rows, (0, 0, 1, 1)).shape == (0,)


# ----------------------------------------------------------------------
# the merge guard (the full matrix lives in test_query_pipeline.py)
# ----------------------------------------------------------------------
class TestBatchableGuard:
    """``_batchable()`` decides one thing: whether a query's node reads
    and transfers share one access plan.  The unpriced filter and the
    shared refinement run either way."""

    def test_overlap_scheduler_disables_the_merged_plan_path(
        self, objects300, monkeypatch
    ):
        objects = make_objects(120, seed=3)
        org = build_org("secondary", objects, scheduler="overlap")
        twin = build_org("secondary", objects, scheduler="overlap")
        assert not org._batchable()
        windows = _windows(objects300, n=4)
        singles = [twin.window_query(w) for w in windows]
        # Only merging is off: the batch is still filtered by one walk
        # per window, ahead of its priced reads.
        walks = []
        walk = RStarTree.window_leaves

        def counted(tree, window, read=None):
            walks.append(read)
            return walk(tree, window, read)

        monkeypatch.setattr(RStarTree, "window_leaves", counted)
        batch = org.window_query_batch(windows)
        TestOrganizationBatch._assert_equal(singles, batch)
        assert len(walks) == len(windows) and None not in walks

    def test_sync_default_is_batchable(self, objects300):
        org = build_org("secondary", make_objects(120, seed=3))
        assert org._batchable()
        from repro.buffer.pool import BufferPool

        with org.use_pool(BufferPool(org.disk, capacity=8)):
            assert org._batchable()  # a caching sync pool still merges
        with org.use_pool(BufferPool(org.disk, capacity=8, prefetcher="cluster")):
            assert not org._batchable()


# ----------------------------------------------------------------------
# grouped join transfers
# ----------------------------------------------------------------------
class TestGroupedTransfers:
    def _org_and_leaf(self):
        objects = make_objects(120, seed=11)
        org = build_org("secondary", objects)
        groups = org.tree.window_leaves(Rect(0, 0, 10_000, 10_000))
        leaf, hits = max(groups, key=lambda g: len(g[1]))
        return org, leaf, [leaf.entries[i].oid for i in hits.tolist()]

    @staticmethod
    def _spy_pool(scheduler):
        """A caching pool that records, per submitted plan, whether the
        scheduler had an operation scope open."""
        from repro.buffer.pool import BufferPool
        from repro.disk.model import DiskModel

        class SpyPool(BufferPool):
            __slots__ = ("in_operation",)

            def submit(self, plan):
                self.in_operation.append(self.scheduler.in_operation)
                return super().submit(plan)

        pool = SpyPool(DiskModel(), capacity=256, scheduler=scheduler)
        pool.in_operation = []
        return pool

    def test_sync_scheduler_has_no_operation_scope(self):
        from repro.iosched import SYNC
        from repro.join.object_access import ObjectTransfer

        org, leaf, oids = self._org_and_leaf()
        pool = self._spy_pool(SYNC)
        transfer = ObjectTransfer(org, pool)
        transfer.fetch_group(leaf, oids)
        assert pool.in_operation and not any(pool.in_operation)
        assert transfer.object_requests == len(set(oids))

    def test_overlap_scheduler_groups_each_fetch(self):
        from repro.iosched import OverlapScheduler
        from repro.join.object_access import ObjectTransfer

        org, leaf, oids = self._org_and_leaf()
        sched = OverlapScheduler()
        pool = self._spy_pool(sched)
        transfer = ObjectTransfer(org, pool)
        transfer.fetch_group(leaf, oids)
        assert pool.in_operation and all(pool.in_operation)  # one scope
        assert not sched.in_operation  # closed again
        # ... of its own: the fetch's client has waited for its plans
        assert sched.clock.client_time("join.transfer") > 0
        assert transfer.object_requests == len(set(oids))

    def test_enclosing_scope_suppresses_auto_grouping(self):
        from repro.iosched import OverlapScheduler
        from repro.join.object_access import ObjectTransfer

        org, leaf, oids = self._org_and_leaf()
        sched = OverlapScheduler()
        pool = self._spy_pool(sched)
        auto = ObjectTransfer(org, pool)
        with sched.operation("outer"):
            auto.fetch_group(leaf, oids)
            assert all(pool.in_operation) and sched.in_operation
            # No scope of the fetch's own opened and closed: nobody has
            # waited yet, the plans complete when the outer scope does.
            assert sched.clock.client_time("join.transfer") == 0
            assert sched.clock.client_time("outer") == 0
        assert sched.clock.client_time("outer") > 0
