"""The geometry column (``repro.geometry.column``): how it grows, what
a reopen adopts, and the window kernel that gathers from it answering
as the scalar predicate does.  That every organization keeps it
coherent with its objects and its tree is ``SpatialDatabase.check()``'s
column stage, run after every rule of ``tests/test_lifecycle.py``."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.database import SpatialDatabase
from repro.geometry.column import GeometryColumn
from repro.geometry.intersect import polyline_intersects_rect, polylines_intersect_rects
from repro.geometry.rect import Rect

from tests.conftest import make_objects
from tests.scalar_reference import scalar_loops
from tests.test_intersect import lattice_line, window_test
from tests.test_lifecycle import extra_objects


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
        objects = make_objects(30, seed=8) + extra_objects(8)
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
        db = SpatialDatabase(smax_bytes=4 * 4096)
        db.build(make_objects(60, seed=17))
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
