"""Tests for the exact geometric predicates (repro.geometry.intersect)."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import GeometryError
from repro.geometry import intersect
from repro.geometry.column import GeometryColumn
from repro.geometry.intersect import (
    orientation,
    points_in_polygon,
    polyline_intersects_rect,
    polylines_intersect,
    polylines_intersect_pairs,
    polylines_intersect_rects,
    polylines_intersect_rows,
    segment_intersects_rect,
    segments_intersect,
)
from repro.geometry.rect import Rect

from tests.scalar_reference import scalar_loops

coord = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
point = st.tuples(coord, coord)


class TestOrientation:
    def test_counter_clockwise(self):
        assert orientation(0, 0, 1, 0, 0, 1) == 1

    def test_clockwise(self):
        assert orientation(0, 0, 0, 1, 1, 0) == -1

    def test_collinear(self):
        assert orientation(0, 0, 1, 1, 2, 2) == 0


class TestSegments:
    def test_crossing(self):
        assert segments_intersect((0, 0), (2, 2), (0, 2), (2, 0))

    def test_parallel_disjoint(self):
        assert not segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))

    def test_collinear_overlapping(self):
        assert segments_intersect((0, 0), (2, 0), (1, 0), (3, 0))

    def test_collinear_disjoint(self):
        assert not segments_intersect((0, 0), (1, 0), (2, 0), (3, 0))

    def test_t_junction(self):
        assert segments_intersect((0, 0), (2, 0), (1, 0), (1, 1))

    def test_shared_endpoint(self):
        assert segments_intersect((0, 0), (1, 1), (1, 1), (2, 0))

    def test_near_miss(self):
        assert not segments_intersect((0, 0), (1, 1), (0, 0.01), (-1, 1))

    # Both were hits before the box pretest: every orientation of the
    # second segment against the first is within eps of zero, or the
    # first segment's line splits a sub-eps second one.
    def test_near_collinear_segments_half_apart(self):
        assert not segments_intersect((0, 0), (1, 0), (1.5, 0), (2.5, 1.5e-12))

    def test_sub_eps_segment_far_away(self):
        tiny = ((-1.4, 5e-13), (-1.4 + 8e-13, 1.1e-12))  # 1e-12 long
        assert not segments_intersect((0, 0), (1, 0), *tiny)
        assert not segments_intersect(*tiny, (0, 0), (1, 0))

    @given(point, point, point, point)
    def test_symmetry(self, a, b, c, d):
        assert segments_intersect(a, b, c, d) == segments_intersect(c, d, a, b)

    @given(point, point)
    def test_segment_intersects_itself(self, a, b):
        assert segments_intersect(a, b, a, b)


class TestSegmentRect:
    RECT = Rect(0, 0, 10, 10)

    def test_fully_inside(self):
        assert segment_intersects_rect((1, 1), (2, 2), self.RECT)

    def test_crossing_through(self):
        assert segment_intersects_rect((-5, 5), (15, 5), self.RECT)

    def test_outside(self):
        assert not segment_intersects_rect((20, 20), (30, 30), self.RECT)

    def test_touching_edge(self):
        assert segment_intersects_rect((-5, 10), (5, 10), self.RECT)

    def test_diagonal_corner_clip(self):
        assert segment_intersects_rect((-1, 1), (1, -1), self.RECT)

    def test_diagonal_near_corner_miss(self):
        assert not segment_intersects_rect((-2, 1), (1, -2), self.RECT)

    @given(point, point)
    def test_consistent_with_endpoints(self, a, b):
        rect = Rect(-50, -50, 50, 50)
        if rect.contains_point(*a) or rect.contains_point(*b):
            assert segment_intersects_rect(a, b, rect)


def _four_edge_test(a, b, rect):
    """``segment_intersects_rect`` as it tested every rectangle,
    points included: the pretests, then all four edges."""
    if rect.contains_point(*a) or rect.contains_point(*b):
        return True
    seg_mbr = Rect(min(a[0], b[0]), min(a[1], b[1]), max(a[0], b[0]), max(a[1], b[1]))
    if not rect.intersects(seg_mbr):
        return False
    corners = list(rect.corners())
    return any(segments_intersect(a, b, corners[i], corners[(i + 1) % 4]) for i in range(4))


_EPS_OFFSETS = st.sampled_from([0.0, 5e-13, -5e-13, 1e-12, -1e-12, 2e-12, -2e-12, 1e-9])


@st.composite
def _segment_and_probe(draw):
    """A segment (zero-length ones included) and a point on, near or
    off it: a vertex, a point on its line, either of those moved by
    about the predicates' eps, or anywhere."""
    a = draw(point)
    b = draw(st.one_of(st.just(a), point))
    how = draw(st.sampled_from(["vertex", "collinear", "free"]))
    if how == "vertex":
        p = draw(st.sampled_from([a, b]))
    elif how == "collinear":
        t = draw(st.sampled_from([0.5, 0.25, -0.5, 1.5]) | st.floats(-1, 2))
        p = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
    else:
        p = draw(point)
    dx, dy = draw(_EPS_OFFSETS), draw(_EPS_OFFSETS)
    return a, b, (p[0] + dx, p[1] + dy)


class TestPointRectTwin:
    """A point rectangle's four edges are one zero-length segment:
    testing it once decides what the four edge tests decided."""

    @given(_segment_and_probe())
    @example(((0.0, 0.0), (2.0, 2.0), (1.0, 1.0)))
    @example(((0.0, 0.0), (2.0, 2.0), (1.0, 1.0 + 1e-12)))
    @example(((0.0, 0.0), (2.0, 0.0), (3.0, 0.0)))
    @example(((1.0, 1.0), (1.0, 1.0), (1.0, 1.0 + 5e-13)))
    def test_one_corner_test_is_the_four_edge_test(self, case):
        a, b, (x, y) = case
        rect = Rect(x, y, x, y)
        assert segment_intersects_rect(a, b, rect) == _four_edge_test(a, b, rect)

    def test_a_point_rectangle_tests_one_edge(self, monkeypatch):
        calls = []
        scalar = intersect.segments_intersect

        def spy(*args):
            calls.append(args)
            return scalar(*args)

        monkeypatch.setattr(intersect, "segments_intersect", spy)
        assert segment_intersects_rect((0.0, 0.0), (2.0, 2.0), Rect(1.0, 1.0, 1.0, 1.0))
        assert not segment_intersects_rect((0.0, 0.0), (2.0, 2.0), Rect(1.0, 1.5, 1.0, 1.5))
        assert len(calls) == 2


class TestPointsInPolygon:
    """``points_in_polygon``, kept as a named entry point of the
    wall-clock benchmark, one point at a time."""

    SQUARE = [(0, 0), (10, 0), (10, 10), (0, 10)]

    @staticmethod
    def inside(x, y, ring) -> bool:
        return bool(points_in_polygon([x], [y], ring)[0])

    def test_inside(self):
        assert self.inside(5, 5, self.SQUARE)

    def test_outside(self):
        assert not self.inside(15, 5, self.SQUARE)

    def test_on_edge(self):
        assert self.inside(5, 0, self.SQUARE)

    def test_on_vertex(self):
        assert self.inside(0, 0, self.SQUARE)

    def test_concave_ring(self):
        # A "U" shape: the notch is outside.
        u_shape = [(0, 0), (10, 0), (10, 10), (6, 10), (6, 4), (4, 4), (4, 10), (0, 10)]
        assert self.inside(2, 8, u_shape)
        assert not self.inside(5, 8, u_shape)
        assert self.inside(5, 2, u_shape)

    def test_degenerate_too_few_vertices(self):
        assert not self.inside(0, 0, [(0, 0), (1, 1)])


class TestPolylineRect:
    def test_single_vertex(self):
        assert polyline_intersects_rect([(1, 1)], Rect(0, 0, 2, 2))
        assert not polyline_intersects_rect([(5, 5)], Rect(0, 0, 2, 2))

    def test_chain_crossing(self):
        chain = [(-5, 1), (1, 1), (1, -5)]
        assert polyline_intersects_rect(chain, Rect(0, 0, 2, 2))

    def test_chain_outside(self):
        chain = [(5, 5), (6, 6), (7, 5)]
        assert not polyline_intersects_rect(chain, Rect(0, 0, 2, 2))

    def test_chain_surrounding_but_not_touching(self):
        # A chain circling the rect without entering it.
        ring = [(-1, -1), (3, -1), (3, 3), (-1, 3), (-1, -1)]
        assert not polyline_intersects_rect(ring, Rect(0.5, 0.5, 1.5, 1.5))


class TestPolylines:
    def test_crossing_chains(self):
        a = [(0, 0), (10, 10)]
        b = [(0, 10), (10, 0)]
        assert polylines_intersect(a, b)

    def test_disjoint_chains(self):
        a = [(0, 0), (1, 0)]
        b = [(0, 5), (1, 5)]
        assert not polylines_intersect(a, b)

    def test_single_points(self):
        assert polylines_intersect([(1, 1)], [(1, 1)])
        assert not polylines_intersect([(1, 1)], [(2, 2)])

    def test_point_on_chain(self):
        assert polylines_intersect([(5, 5)], [(0, 0), (10, 10)])

    @given(
        st.lists(point, min_size=2, max_size=5),
        st.lists(point, min_size=2, max_size=5),
    )
    def test_symmetry(self, a, b):
        assert polylines_intersect(a, b) == polylines_intersect(b, a)

    @given(st.lists(point, min_size=2, max_size=6))
    def test_chain_intersects_itself(self, chain):
        assert polylines_intersect(chain, chain)


# ----------------------------------------------------------------------
# the cross-pair / cross-candidate kernels against the scalar predicates
# ----------------------------------------------------------------------
# Vertices on a 5 x 5 lattice, nudged by offsets on both sides of _EPS
# (a cross product here is a nudge times a segment length of 1..4):
# shared endpoints, collinear overlaps, touches and T-junctions are the
# common case in these batches, not the rare one.  Half the lines
# also get a segment shorter than _EPS after one of their vertices.
nudge = st.sampled_from([0.0] * 4 + [1e-13, -1e-13, 1e-12, -1e-12, 2e-12, -2e-12])
sub_eps = st.sampled_from([0.0, 1e-13, -1e-13, 5e-13, -5e-13])
lattice_coord = st.builds(lambda i, d: i + d, st.integers(0, 4), nudge)
lattice_point = st.tuples(lattice_coord, lattice_coord)


@st.composite
def lattice_lines(draw):
    line = draw(st.lists(lattice_point, min_size=1, max_size=7))
    if draw(st.booleans()):
        k = draw(st.integers(0, len(line) - 1))
        x, y = line[k]
        line.insert(k + 1, (x + draw(sub_eps), y + draw(sub_eps)))
    return line


lattice_line = lattice_lines()
pair_batch = st.lists(st.tuples(lattice_line, lattice_line), max_size=12)
# Chunk budgets of 1..16 cells split most pairs by their a-segments.
budget_cells = st.sampled_from([1, 3, 16, intersect._CHUNK_CELLS])


def eps_boxes_meet(a, b, c, d) -> bool:
    """The closed boxes of segments a-b and c-d, widened by _EPS, meet."""
    eps = intersect._EPS
    return all(
        min(a[k], b[k]) <= max(c[k], d[k]) + eps
        and min(c[k], d[k]) <= max(a[k], b[k]) + eps
        for k in (0, 1)
    )


class TestSegmentRule:
    @given(lattice_point, lattice_point, lattice_point, lattice_point)
    def test_a_hit_has_meeting_boxes_on_the_lattice(self, a, b, c, d):
        assert not segments_intersect(a, b, c, d) or eps_boxes_meet(a, b, c, d)

    @given(point, point, point, point)
    def test_a_hit_has_meeting_boxes(self, a, b, c, d):
        assert not segments_intersect(a, b, c, d) or eps_boxes_meet(a, b, c, d)


@st.composite
def window_test(draw):
    """A lattice line and one rectangle for it: a point window at one of
    its vertices or inside one of its segments, nudged on both sides of
    _EPS, or the bounding box of another lattice line (often a
    degenerate one whose edges touch or overlap the line's segments)."""
    line = draw(lattice_line)
    kind = draw(st.sampled_from(["vertex", "segment", "box"]))
    if kind == "box":
        return line, Rect.from_points(draw(lattice_line))
    if kind == "vertex" or len(line) == 1:
        x, y = draw(st.sampled_from(line))
    else:
        k = draw(st.integers(0, len(line) - 2))
        t = draw(st.sampled_from([0.25, 0.5, 0.75]))
        (ax, ay), (bx, by) = line[k], line[k + 1]
        x, y = ax + t * (bx - ax), ay + t * (by - ay)
    x, y = x + draw(nudge), y + draw(nudge)
    return line, Rect(x, y, x, y)

NAMED_PAIRS = [
    ([(0, 0), (2, 2)], [(2, 2), (4, 0)]),  # shared endpoint
    ([(0, 0), (3, 0)], [(1, 0), (5, 0)]),  # collinear, overlapping
    ([(0, 0), (1, 0)], [(2, 0), (3, 0)]),  # collinear, apart
    ([(0, 0), (2, 0)], [(2, 0), (2, 3)]),  # touching at an end of each
    ([(0, 0), (4, 0)], [(2, 0), (2, 3)]),  # T-junction
    ([(0, 0), (4, 0)], [(2, 1e-13), (2, 3)]),  # T short by less than eps
    ([(0, 0), (4, 0)], [(2, -1e-13), (2, 3)]),  # ... long by less
    ([(0, 0), (4, 0)], [(2, 1e-12), (2, 3)]),  # cross 4e-12: a miss
    ([(0, 0), (1, 0)], [(0.5, 1e-12), (0.5, 3)]),  # cross == _EPS: a touch
    ([(0, 0), (4, 0)], [(4 + 1e-13, 0), (6, 1)]),  # past the end, within eps
    ([(0, 0), (4, 0)], [(4 + 2e-12, 0), (6, 1)]),  # past the end, beyond it
    ([(0, 0), (4, 4)], [(0, 4), (4, 0)]),  # proper crossing
    ([(0, 0), (1, 1), (2, 0), (3, 1)], [(0, 3), (1, 2), (3, 3)]),  # apart
    ([(1, 1)], [(0, 0), (2, 2)]),  # single vertex on a segment
    ([(1, 1)], [(1, 1)]),  # single vertices
]


def scalar_pairs(batch) -> list[bool]:
    with scalar_loops():
        return [polylines_intersect(a, b) for a, b in batch]


def vector_pairs(batch, budget=intersect._CHUNK_CELLS) -> list[bool]:
    """The pair kernel with its cells per chunk set to ``budget``."""
    with mock.patch.object(intersect, "_CHUNK_CELLS", budget):
        return polylines_intersect_pairs(
            [np.array(a, dtype=np.float64) for a, _ in batch],
            [np.array(b, dtype=np.float64) for _, b in batch],
        ).tolist()


@st.composite
def row_batch(draw):
    """Two lists of lattice lines and pairs of their rows in which rows
    repeat on both sides: ``(lines_a, rows_a, lines_b, rows_b)``."""
    lines_a = draw(st.lists(lattice_line, min_size=1, max_size=6))
    lines_b = draw(st.lists(lattice_line, min_size=1, max_size=6))
    rows = st.lists(
        st.tuples(st.integers(0, len(lines_a) - 1), st.integers(0, len(lines_b) - 1)),
        max_size=16,
    )
    pairs = np.array(draw(rows), dtype=np.int64).reshape(-1, 2)
    return lines_a, pairs[:, 0], lines_b, pairs[:, 1]


def table_rows(lines_a, rows_a, lines_b, rows_b, budget=intersect._CHUNK_CELLS):
    """The row kernel over one table per list of lines."""
    with mock.patch.object(intersect, "_CHUNK_CELLS", budget):
        return polylines_intersect_rows(
            GeometryColumn.of([np.array(a, dtype=np.float64) for a in lines_a]), rows_a,
            GeometryColumn.of([np.array(b, dtype=np.float64) for b in lines_b]), rows_b,
        ).tolist()


def as_window_tests(batch):
    """The same cases for the polyline/rect kernel: each pair's first
    line against the bounding box of its second (often a degenerate
    one, whose edges touch or overlap the line's segments)."""
    return [(a, Rect.from_points(b)) for a, b in batch]


def scalar_rects(tests) -> list[bool]:
    with scalar_loops():
        return [polyline_intersects_rect(a, rect) for a, rect in tests]


def listed_rects(coords_list, rects) -> np.ndarray:
    """The window kernel over a list of vertex matrices, row ``k`` the
    ``k``-th, each with its own rectangle."""
    column = GeometryColumn.of(coords_list)
    rects = np.array(rects, dtype=np.float64).reshape(-1, 4)
    return polylines_intersect_rects(column, np.arange(len(coords_list)), rects)


def vector_rects(tests) -> list[bool]:
    return listed_rects(
        [np.array(a, dtype=np.float64).reshape(-1, 2) for a, _ in tests],
        [rect.as_tuple() for _, rect in tests],
    ).tolist()


class TestBatchKernelsMatchScalar:
    @settings(deadline=None)
    @given(pair_batch, budget_cells)
    def test_pairs_property(self, batch, budget):
        assert vector_pairs(batch, budget) == scalar_pairs(batch)

    @settings(deadline=None)
    @given(row_batch(), budget_cells)
    def test_table_rows_equal_the_list_form(self, batch, budget):
        """The join's form — rows of one table per side, a row in many
        pairs — answers each pair as the list form does."""
        lines_a, rows_a, lines_b, rows_b = batch
        listed = [(lines_a[r], lines_b[s]) for r, s in zip(rows_a, rows_b)]
        want = vector_pairs(listed, budget)
        assert table_rows(*batch, budget) == want == scalar_pairs(listed)

    def test_column_boxes_are_the_tight_mbrs(self):
        lines = [line for pair in NAMED_PAIRS for line in pair]
        column = GeometryColumn.of([np.array(line, dtype=np.float64) for line in lines])
        assert column.boxes.tolist() == [
            list(Rect.from_points(line).as_tuple()) for line in lines
        ]
        assert column.counts.tolist() == [len(line) for line in lines]
        for r, line in enumerate(lines):
            start = column.starts[r]
            row = column.vertices[start:start + column.counts[r]]
            assert row.tolist() == [list(p) for p in line]

    @settings(deadline=None)
    @given(st.lists(window_test(), max_size=12))
    def test_rects_property(self, tests):
        assert vector_rects(tests) == scalar_rects(tests)

    @pytest.mark.parametrize("where", [0, 40, 79])
    def test_a_row_without_vertices(self, where):
        """The rectangle kernel answers False for it, as the scalar
        predicate does; the pair kernel refuses it by row number."""
        line = np.array([(5.0, 5.0), (6.0, 6.0)])
        coords = [line] * 80
        coords[where] = np.empty((0, 2))
        rects = [(0.0, 0.0, 10.0, 10.0)] * 80
        want = [k != where for k in range(80)]
        assert listed_rects(coords, rects).tolist() == want
        assert not polyline_intersects_rect([], Rect(*rects[0]))
        for pairs in ((coords, [line] * 80), ([line] * 80, coords)):
            with pytest.raises(GeometryError, match=f"pair {where}:"):
                polylines_intersect_pairs(*pairs)

    def test_rows_without_vertices_only(self):
        out = listed_rects([np.empty((0, 2))] * 3, [(0.0, 0.0, 1.0, 1.0)] * 3)
        assert out.tolist() == [False] * 3

    @pytest.mark.parametrize("budget", [1, 3, 16, intersect._CHUNK_CELLS])
    def test_named_cases(self, budget):
        batch = NAMED_PAIRS * 12
        want = scalar_pairs(batch)
        assert want[: len(NAMED_PAIRS)] == [
            True, True, False, True, True, True, True, False,
            True, True, False, True, False, True, True,
        ]
        assert vector_pairs(batch, budget) == want
        # Single-vertex sides on both sides of every other pair.
        turned = [(b, a) if k % 2 else (a, b) for k, (a, b) in enumerate(batch)]
        assert vector_pairs(turned, budget) == scalar_pairs(turned) == want
        tests = as_window_tests(batch)
        assert vector_rects(tests) == scalar_rects(tests)

    @staticmethod
    def walk(rng, n):
        start = rng.uniform(0, 60, 2)
        return (start + np.cumsum(rng.uniform(-3, 3, (n, 2)), axis=0)).tolist()

    def test_pairs_larger_than_the_budget(self):
        # Pairs of ~1600 cells against budgets that hold a few a-segments
        # of one: every pair is split across chunks.
        rng = np.random.default_rng(29)
        batch = [(self.walk(rng, 41), self.walk(rng, 41)) for _ in range(30)]
        want = scalar_pairs(batch)
        assert any(want) and not all(want)
        for budget in (40, 500, intersect._CHUNK_CELLS):
            assert vector_pairs(batch, budget) == want

    @staticmethod
    def spy_cells(monkeypatch):
        """Record every chunk ``(live_segments, i, j)`` the pair kernel
        enumerates."""
        chunks = []
        cells = intersect._cells

        def spy(owner, n):
            for i, j in cells(owner, n):
                chunks.append((len(owner), i, j))
                yield i, j

        monkeypatch.setattr(intersect, "_cells", spy)
        return chunks

    def test_corner_overlap_enumerates_live_cells_only(self, monkeypatch):
        # Zigzags in [0, 10]^2 and [8, 18]^2: 10 x 10 segment pairs, of
        # which a-segments 7..9 (x in [7, 10]) and b-segments 0..2
        # (y in [8, 11]) reach the other's box.
        a = [(float(i), 10.0 * (i % 2)) for i in range(11)]
        b = [(8.0 + 10.0 * (k % 2), 8.0 + k) for k in range(11)]
        chunks = self.spy_cells(monkeypatch)
        assert vector_pairs([(a, b)]) == [True]
        assert scalar_pairs([(a, b)]) == [True]
        [(live, i, j)] = chunks
        assert live == 6
        assert len(i) == len(set(zip(i.tolist(), j.tolist()))) == 3 * 3
        assert len(set(i.tolist())) == len(set(j.tolist())) == 3

    def test_long_pairs_past_the_real_budget(self, monkeypatch):
        # Two 600-vertex staircases 2 apart in y: nearly every segment
        # lies in the other's box, so ~340 k cells per pair are
        # enumerated in chunks, and none hits.  A last b-segment that
        # crosses ``a`` near its end is a hit in the pair's last chunk.
        rng = np.random.default_rng(37)
        steps = np.arange(600) * 0.1
        a = np.column_stack((steps, steps + rng.uniform(-0.3, 0.3, 600))).tolist()
        b = [(x, y + 2.0) for x, y in a]
        crossing = b[:-1] + [(b[-1][0], b[-1][1] - 4.0)]
        chunks = self.spy_cells(monkeypatch)
        batch = [(a, b), (a, crossing)]
        assert vector_pairs(batch) == [False, True]
        assert scalar_pairs(batch) == [False, True]
        sizes = [len(i) for _, i, _ in chunks]
        assert sum(sizes) > 8 * intersect._CHUNK_CELLS
        assert max(sizes) <= intersect._CHUNK_CELLS

    def test_empty_batch(self):
        assert polylines_intersect_pairs([], []).shape == (0,)

    def test_single_vertex_sides_run_scalar_loop_on_python_floats(
        self, monkeypatch
    ):
        batch = NAMED_PAIRS[-2:] * 3  # no segment pair to enumerate
        seen = []
        scalar = intersect.segments_intersect

        def spy(a, b, c, d):
            seen.extend([*a, *b, *c, *d])
            return scalar(a, b, c, d)

        monkeypatch.setattr(intersect, "segments_intersect", spy)
        monkeypatch.setattr(
            intersect,
            "_cells",
            lambda *operands: pytest.fail("cells of a single-vertex side"),
        )
        assert vector_pairs(batch) == [True, True] * 3
        assert seen and all(type(v) is float for v in seen)
