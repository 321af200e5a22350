"""The geometry column (``repro.geometry.column``): every organization
keeps it coherent with its objects and its tree through insert, delete,
queries, reorganization and a save / open cycle, and the window kernel
that gathers from it answers as the scalar predicate does."""

from __future__ import annotations

import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from perf.oracle import Oracle
from repro.database import SpatialDatabase
from repro.geometry.column import GeometryColumn
from repro.geometry.feature import SpatialObject
from repro.geometry.intersect import polyline_intersects_rect, polylines_intersect_rects
from repro.geometry.polyline import Polyline
from repro.geometry.rect import Rect
from repro.reorg import Reorganizer

from tests.conftest import make_objects
from tests.scalar_reference import scalar_loops
from tests.test_intersect import lattice_line, window_test

SMAX = 4 * 4096

CONFIGS = {
    "secondary": dict(organization="secondary"),
    "primary": dict(organization="primary"),
    "cluster": dict(smax_bytes=SMAX),
}


def check_column(org) -> None:
    """The column holds exactly the live objects, in object-table order;
    each data entry's row holds its object's vertices, size and flags;
    no entry points at a tombstone; each leaf's cached rows are its
    entries' rows."""
    column = org.column
    assert column.oids.take(column.live()).tolist() == list(org.objects)
    seen = []
    for leaf in org.tree.leaves():
        assert leaf.rows().tolist() == [e.row for e in leaf.entries]
        for entry in leaf.entries:
            row, obj = entry.row, org.objects[entry.oid]
            assert column.oids[row] == entry.oid  # not a tombstone
            geometry = obj.geometry
            start, count = column.starts[row], column.counts[row]
            assert column.vertices[start:start + count].tolist() == geometry.coords().tolist()
            assert column.sizes[row] == obj.size_bytes
            assert column.tight[row] == (obj.mbr_override is None)
            assert column.boxes[row].tolist() == list(geometry.mbr.as_tuple())
            seen.append(entry.oid)
    assert sorted(seen) == sorted(org.objects)
    rows = column.rows_of(np.array(seen, dtype=np.int64))
    assert column.oids.take(rows).tolist() == seen


def pool_objects(n: int) -> list[SpatialObject]:
    """Objects to insert: polylines, closed rings (borders), overrides and
    one object larger than ``SMAX`` (an extent of its own in every
    organization)."""
    out = []
    for k, base in enumerate(make_objects(n, seed=29)):
        oid = 1000 + k
        vertices = base.geometry.vertices
        if k % 4 == 1 and len(set(vertices)) >= 3:
            ring = Polyline(vertices + vertices[:1])
            out.append(SpatialObject(oid, ring, size_bytes=base.size_bytes + 16))
        elif k % 4 == 2:
            m = base.geometry.mbr
            override = Rect(m.xmin - 25, m.ymin - 5, m.xmax + 10, m.ymax + 30)
            out.append(SpatialObject(oid, base.geometry, base.size_bytes, override))
        elif k == 3:
            out.append(SpatialObject(oid, base.geometry, size_bytes=SMAX + 3000))
        else:
            out.append(SpatialObject(oid, base.geometry, size_bytes=base.size_bytes))
    return out


INITIAL = make_objects(60, seed=17)
POOL = pool_objects(24)
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert")),
        st.tuples(st.just("delete"), st.integers(0, 10**6)),
        st.tuples(
            st.just("window"),
            st.floats(0, 9000), st.floats(0, 9000), st.floats(1, 3000), st.floats(1, 3000),
        ),
        st.tuples(st.just("point"), st.integers(0, 10**6), st.integers(0, 10**6)),
        st.tuples(st.just("reorg")),
        st.tuples(st.just("reopen")),
    ),
    max_size=14,
)
PROBE = Rect(2000, 2000, 7000, 7000)


class TestColumnCoherence:
    """D(1)'s first slice: after every step of a generated lifecycle the
    column is coherent and the answers are the brute-force scan's."""

    def _run(self, name: str, steps) -> None:
        db = SpatialDatabase(**CONFIGS[name])
        db.build(INITIAL)
        oracle = Oracle(INITIAL, extra=POOL)
        live, pool = [o.oid for o in INITIAL], list(POOL)
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "db.img")
            for step in steps:
                kind = step[0]
                if kind == "insert" and pool:
                    obj = pool.pop(0)
                    db.insert(obj)
                    oracle.insert(obj)
                    live.append(obj.oid)
                elif kind == "delete" and live:
                    oid = live.pop(step[1] % len(live))
                    db.delete(oid)
                    oracle.delete(oid)
                elif kind == "window":
                    _, x, y, w, h = step
                    rect = Rect(x, y, x + w, y + h)
                    got = db.window_query(*rect.as_tuple())
                    assert {o.oid for o in got.objects} == oracle.window(rect)
                elif kind == "point" and live:
                    obj = db.storage.objects[live[step[1] % len(live)]]
                    vertices = obj.geometry.vertices
                    x, y = vertices[step[2] % len(vertices)]
                    got = db.point_query(x, y)
                    assert {o.oid for o in got.objects} == oracle.point(x, y)
                elif kind == "reorg" and name == "cluster":
                    Reorganizer(db, min_dead_fraction=0.0).step()
                elif kind == "reopen":
                    db.save(path)
                    db = SpatialDatabase.open(path)
                check_column(db.storage)
                got = db.window_query(*PROBE.as_tuple())
                assert {o.oid for o in got.objects} == oracle.window(PROBE)

    @settings(max_examples=25, deadline=None)
    @given(STEPS)
    def test_secondary(self, steps):
        self._run("secondary", steps)

    @settings(max_examples=25, deadline=None)
    @given(STEPS)
    def test_primary(self, steps):
        self._run("primary", steps)

    @settings(max_examples=25, deadline=None)
    @given(STEPS)
    def test_cluster(self, steps):
        self._run("cluster", steps)

    def test_every_step_kind_at_least_once(self):
        steps = [("insert",)] * 6 + [
            ("delete", 3), ("window", 1000.0, 1000.0, 3000.0, 3000.0),
            ("point", 5, 1), ("reorg",), ("reopen",), ("insert",), ("delete", 0),
            ("reopen",), ("point", 2, 0),
        ]
        for name in CONFIGS:
            self._run(name, steps)


class TestGrowth:
    def test_appends_double_the_capacity_and_delete_leaves_a_tombstone(self):
        column = GeometryColumn.of([])
        objects = make_objects(40, seed=5)
        capacities = set()
        for obj in objects:
            row = column.append(obj)
            assert row == obj.oid
            capacities.add(len(column.flushed().oids))
        assert sorted(capacities) == [1, 2, 4, 8, 16, 32, 64]
        assert column.n_vertices == sum(len(o.geometry) for o in objects)
        column.delete(7)
        assert column.oids[7] == -1 and column.counts[7] == len(objects[7].geometry)
        assert 7 not in column.live().tolist() and len(column.live()) == 39

    def test_queued_appends_fill_as_one_by_one_appends_do(self):
        objects = make_objects(30, seed=8) + POOL[:8]
        one_by_one, batched = GeometryColumn.of([]), GeometryColumn.of([])
        for obj in objects[:5]:
            one_by_one.append(obj)
            batched.append(obj)
        one_by_one.flushed()
        batched.flushed()
        rows = [batched.append(obj) for obj in objects[5:]]
        assert rows == list(range(5, len(objects)))
        assert batched.n_rows == 5  # queued, not yet filled
        for obj in objects[5:]:
            one_by_one.append(obj)
            one_by_one.flushed()
        batched.flushed()
        for name in ("oids", "sizes", "tight", "boxes", "starts", "counts"):
            got, want = (getattr(c, name)[:len(objects)] for c in (batched, one_by_one))
            np.testing.assert_array_equal(got, want, err_msg=name)
        n = one_by_one.n_vertices
        assert batched.n_vertices == n
        np.testing.assert_array_equal(batched.vertices[:n], one_by_one.vertices[:n])

    def test_a_reopened_column_is_the_catalogs(self, tmp_path):
        db = SpatialDatabase(smax_bytes=SMAX)
        db.build(INITIAL)
        path = str(tmp_path / "db.img")
        db.save(path)
        column = SpatialDatabase.open(path).storage.column
        # The vertices are the catalog's column itself, read-only.
        assert not column.vertices.flags.writeable
        assert column.vertices.tolist() == db.storage.column.vertices[
            :db.storage.column.n_vertices
        ].tolist()


# ----------------------------------------------------------------------
# the row-form window kernel against the scalar predicate
# ----------------------------------------------------------------------
@st.composite
def row_tests(draw):
    """Lattice lines — some with one vertex or none — as column rows, and
    tests that gather them out of order and repeat them: ``(lines,
    rows, rects)``, one rectangle per test."""
    lines = draw(st.lists(lattice_line, min_size=1, max_size=6))
    lines += draw(st.lists(st.sampled_from([[], [(2.0, 2.0)]]), max_size=2))
    tests = draw(
        st.lists(
            st.tuples(st.integers(0, len(lines) - 1), window_test()),
            min_size=1,
            max_size=12,
        )
    )
    rows = [r for r, _ in tests]
    # A window test's rectangle was drawn for its own line: aim it at
    # the row's line now and then, so the edges touch that line too.
    rects = [
        Rect.from_points(lines[r]) if lines[r] and k % 3 == 0 else rect
        for k, (r, (_line, rect)) in enumerate(tests)
    ]
    return lines, np.array(rows, dtype=np.int64), rects


def scalar(lines, rows, rects) -> list[bool]:
    with scalar_loops():
        return [polyline_intersects_rect(lines[r], rect) for r, rect in zip(rows, rects)]


class TestWindowKernelTwin:
    @settings(deadline=None)
    @given(row_tests())
    def test_a_rect_per_row(self, case):
        lines, rows, rects = case
        column = GeometryColumn.of([np.array(line, dtype=np.float64).reshape(-1, 2) for line in lines])
        matrix = np.array([rect.as_tuple() for rect in rects])
        got = polylines_intersect_rects(column, rows, matrix)
        assert got.tolist() == scalar(lines, rows, rects)

    @settings(deadline=None)
    @given(row_tests())
    def test_one_rect_for_every_row(self, case):
        lines, rows, rects = case
        column = GeometryColumn.of([np.array(line, dtype=np.float64).reshape(-1, 2) for line in lines])
        rect = rects[0]
        got = polylines_intersect_rects(column, rows, rect.as_tuple())
        assert got.tolist() == scalar(lines, rows, [rect] * len(rows))

    def test_single_and_zero_vertex_rows_out_of_order(self):
        lines = [[(0.0, 0.0), (4.0, 4.0)], [(2.0, 2.0)], [], [(5.0, 0.0), (5.0, 4.0)]]
        column = GeometryColumn.of([np.array(line, dtype=np.float64).reshape(-1, 2) for line in lines])
        rows = np.array([3, 2, 1, 0, 1, 3, 2])
        # A point window on the diagonal, and the single vertex itself.
        for rect in (Rect(1.0, 1.0, 1.0, 1.0), Rect(2.0, 2.0, 2.0, 2.0)):
            got = polylines_intersect_rects(column, rows, rect.as_tuple())
            assert got.tolist() == scalar(lines, rows, [rect] * len(rows))
        got = polylines_intersect_rects(column, rows, (2.0, 2.0, 2.0, 2.0))
        assert got.tolist() == [False, False, True, True, True, False, False]

    def test_eps_boundary_segments(self):
        """Diagonals passing a point window at ~1e-13 (inside the
        tolerance) and ~2e-12 (outside it), and a segment ending 1e-13
        short of it: the scalar rule's answers, row by row."""
        lines = [
            [(0.0, 1e-13), (2.0, 2.0 + 1e-13)],
            [(0.0, 2e-12), (2.0, 2.0 + 2e-12)],
            [(3.0, 1.0), (1.0 + 1e-13, 1.0)],
        ]
        column = GeometryColumn.of([np.array(line) for line in lines])
        rows = np.array([2, 0, 1, 0])
        rect = Rect(1.0, 1.0, 1.0, 1.0)
        got = polylines_intersect_rects(column, rows, rect.as_tuple())
        assert got.tolist() == scalar(lines, rows, [rect] * 4) == [False, True, False, True]
