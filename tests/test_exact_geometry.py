"""The exact step against exact arithmetic (``tests/exact_geometry.py``).

Every kernel the exact step runs — the scalar ``SpatialObject``
predicates ``perf/oracle.py`` refines with, the windows' column kernel
``polylines_intersect_rects``, the join's ``polylines_intersect_rows``
and an organization's point path — is decided on generated
near-degenerate inputs: shared endpoints, T-junctions, collinear
overlaps and vertices on window edges, on lattices from unit steps to
coordinates of 10^6, some vertices nudged by a few units in the last
place up to 1e-4.  Outside the band every kernel gives the exact
answer; inside it every kernel gives the scalar predicate's.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.geometry.column import GeometryColumn
from repro.geometry.feature import SpatialObject
from repro.geometry.intersect import (
    polylines_intersect,
    polylines_intersect_rects,
    polylines_intersect_rows,
)
from repro.geometry.polyline import Polyline
from repro.geometry.rect import Rect
from repro.join import multistep

from tests import exact_geometry as exact
from tests.conftest import build_org
from tests.test_join import relation

# (origin, step): a 5 x 5 lattice from ``origin`` in steps of ``step``.
# The integer frames are exact in float64 (nothing is in the band there
# but what a nudge puts there); the others round every lattice point.
FRAMES = [
    (0.0, 1.0),
    (0.0, 1000.0),
    (0.0, 250_000.0),  # 0 .. 10^6
    (999_990.0, 1.0),  # unit steps at 10^6
    (0.0, 0.1),
    (123_456.7, 3.7),
    (996_000.3, 999.9),
]
# Mostly none; else a few ulps at 10^6, both sides of _EPS, and more.
NUDGES = [0.0] * 6 + [1e-13, 1e-12, 3e-12, 1.2e-10, 4e-10, 1e-9, 1e-7, 1e-4]
ALONG = [0.25, 1 / 3, 0.5, 0.7]


@st.composite
def frames(draw):
    return draw(st.sampled_from(FRAMES))


@st.composite
def near_points(draw, frame, others: list):
    """A lattice point, a vertex of ``others`` (a shared endpoint) or a
    point along one of their segments (a T-junction, exact on integer
    lattices at the midpoint), perhaps nudged."""
    origin, step = frame
    kinds = ["lattice"] + ["vertex", "along"] * bool(others)
    kind = draw(st.sampled_from(kinds))
    if kind == "lattice":
        i, j = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        x, y = origin + i * step, origin + j * step
    elif kind == "vertex":
        x, y = draw(st.sampled_from(others))
    else:
        k = draw(st.integers(0, len(others) - 1))
        (ax, ay), (bx, by) = others[k], others[(k + 1) % len(others)]
        t = draw(st.sampled_from(ALONG))
        x, y = ax + t * (bx - ax), ay + t * (by - ay)
    dx, dy = draw(st.sampled_from(NUDGES)), draw(st.sampled_from(NUDGES))
    signs = draw(st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]))
    return (x + signs[0] * dx, y + signs[1] * dy)


@st.composite
def chains(draw, frame, others: list):
    return draw(st.lists(near_points(frame, others), min_size=2, max_size=5))


@st.composite
def windows(draw, frame, others: list):
    """A window whose corners are near points (a point window one time
    in four)."""
    a = draw(near_points(frame, others))
    b = a if draw(st.integers(0, 3)) == 0 else draw(near_points(frame, others))
    return (min(a[0], b[0]), min(a[1], b[1]), max(a[0], b[0]), max(a[1], b[1]))


@st.composite
def window_cases(draw):
    """Chains and one window per chain, each built near the others."""
    frame = draw(frames())
    lines, rects, seen = [], [], []
    for _ in range(draw(st.integers(1, 4))):
        line = draw(chains(frame, seen))
        seen += line
        lines.append(line)
        rects.append(draw(windows(frame, line)))
    return lines, rects


@st.composite
def pair_cases(draw):
    """Pairs of chains, the second built near the first."""
    frame = draw(frames())
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        a = draw(chains(frame, []))
        pairs.append((a, draw(chains(frame, a))))
    return pairs


@st.composite
def point_cases(draw):
    """Chains and points near them (vertices, points along segments)."""
    frame = draw(frames())
    lines, seen = [], []
    for _ in range(draw(st.integers(1, 5))):
        line = draw(chains(frame, seen))
        seen += line
        lines.append(line)
    points = draw(st.lists(near_points(frame, seen), min_size=1, max_size=6))
    return lines, points


def column_of(lines) -> GeometryColumn:
    return GeometryColumn.of([np.array(line, dtype=np.float64) for line in lines])


def settle(band: bool, want: bool, scalar: bool, *kernels: bool) -> None:
    """Every kernel answers as the scalar predicate; outside the band
    the scalar predicate answers as exact arithmetic."""
    assert all(got == scalar for got in kernels), (scalar, kernels)
    if not band:
        assert scalar == want


class TestAgainstExactArithmetic:
    @settings(max_examples=150, deadline=None)
    @given(window_cases())
    def test_window_kernels(self, case):
        """``SpatialObject.intersects_rect`` (the oracle's) and
        ``polylines_intersect_rects`` with one rect per row and with
        the one rect of a row."""
        lines, rects = case
        column = column_of(lines)
        rows = np.arange(len(lines))
        per_row = polylines_intersect_rects(column, rows, np.array(rects)).tolist()
        for k, (line, rect) in enumerate(zip(lines, rects)):
            one = polylines_intersect_rects(column, rows[k:k + 1], rect)[0]
            scalar = SpatialObject(k, Polyline(line)).intersects_rect(Rect(*rect))
            settle(
                exact.in_band(line, exact.rect_ring(rect)),
                exact.polyline_intersects_rect(line, rect),
                scalar, per_row[k], bool(one),
            )

    @settings(max_examples=150, deadline=None)
    @given(pair_cases())
    def test_pair_kernels(self, pairs):
        """The join's exact step (``multistep._refine``: the tight MBRs'
        mask, then ``polylines_intersect_rows``) against
        ``SpatialObject.intersects`` (the oracle's join predicate, MBRs
        first too), and the pair kernel alone against the scalar
        ``polylines_intersect`` it batches."""
        sides = [
            relation([
                SpatialObject(base + k, Polyline(pair[side])) for k, pair in enumerate(pairs)
            ])
            for side, base in ((0, 0), (1, 1000))
        ]
        ids = np.arange(len(pairs))
        joined = multistep._refine(*sides, np.column_stack((ids, ids + 1000))).tolist()
        kernel = polylines_intersect_rows(sides[0].column, ids, sides[1].column, ids).tolist()
        for k, (a, b) in enumerate(pairs):
            band, want = exact.in_band(a, b), exact.polylines_intersect(a, b)
            scalar = sides[0].objects[k].intersects(sides[1].objects[1000 + k])
            settle(band, want, scalar, joined[k])
            settle(band, want, polylines_intersect(a, b), kernel[k])

    @settings(max_examples=60, deadline=None)
    @given(point_cases())
    def test_point_path(self, case):
        """An organization's point queries (filter, then the point rows
        of ``polylines_intersect_rects``) and
        ``SpatialObject.contains_point`` (the oracle's), per object."""
        lines, points = case
        objects = [SpatialObject(k, Polyline(line)) for k, line in enumerate(lines)]
        org = build_org("secondary", objects, max_entries=4)
        results = org.point_query_batch(points)
        for (x, y), result in zip(points, results):
            answers = {obj.oid for obj in result.objects}
            for obj, line in zip(objects, lines):
                settle(
                    exact.in_band(line, [(x, y)]),
                    exact.point_on_polyline((x, y), line),
                    obj.contains_point(x, y),
                    obj.oid in answers,
                )


class TestTheBand:
    """Named cases on either side of the band: what the float kernels
    are held to, and what they are not."""

    def test_a_lattice_t_junction_at_map_scale_is_exact(self):
        a, b = [(0.0, 0.0), (1_000_000.0, 500_000.0)], [(500_000.0, 250_000.0), (0.0, 1e6)]
        assert not exact.in_band(a, b)
        assert exact.polylines_intersect(a, b)
        assert Polyline(a).intersects(Polyline(b))

    def test_a_lattice_collinear_overlap_is_exact(self):
        a = [(999_990.0, 999_990.0), (999_992.0, 999_992.0)]
        b = [(999_991.0, 999_991.0), (999_994.0, 999_994.0)]
        assert not exact.in_band(a, b)
        assert exact.polylines_intersect(a, b) and Polyline(a).intersects(Polyline(b))

    def test_a_point_a_tenth_of_eps_off_a_segment_is_in_the_band(self):
        """Its cross product is below ``_EPS``: the float kernels call it
        collinear, and the point on the segment."""
        line, p = [(0.0, 0.0), (1.0, 1.0)], (0.5, 0.5 + 1e-13)
        assert exact.in_band(line, [p])
        assert not exact.point_on_polyline(p, line)
        assert Polyline(line).contains_point(*p)

    def test_a_point_rounded_onto_a_segment_at_map_scale_is_not(self):
        """Rounding the point's coordinates moves it off the segment's
        line by far more than the cross product's own rounding: the
        float orientation is the exact one."""
        a, b = (123_456.7, 654_321.1), (124_500.3, 655_000.9)
        p = (a[0] + 0.3 * (b[0] - a[0]), a[1] + 0.3 * (b[1] - a[1]))
        assert exact.cross(a, b, p) != 0
        assert not exact.in_band([a, b], [p])
        assert not exact.point_on_polyline(p, [a, b])
        assert not Polyline([a, b]).contains_point(*p)

    def test_segments_half_eps_apart_are_in_the_band(self):
        """The pair kernel and the scalar loop take ``_EPS`` for a
        touch; a pair's exact MBR test, first on every path that
        decides pairs, does not."""
        a, b = [(0.0, 0.0), (1.0, 0.0)], [(1.0 + 5e-13, 0.0), (2.0, 0.0)]
        assert exact.in_band(a, b)
        assert not exact.polylines_intersect(a, b)
        assert polylines_intersect(a, b)
        assert not Polyline(a).intersects(Polyline(b))

    def test_segments_a_micrometre_apart_at_map_scale_are_not(self):
        a = [(999_000.0, 999_000.0), (999_500.0, 999_500.0)]
        b = [(999_500.0 + 1e-6, 999_500.0), (999_900.0, 999_000.0)]
        assert not exact.in_band(a, b)
        assert not exact.polylines_intersect(a, b)
        assert not Polyline(a).intersects(Polyline(b))
        one = np.arange(1)
        assert not polylines_intersect_rows(column_of([a]), one, column_of([b]), one)[0]

    def test_a_vertex_on_a_window_edge_is_an_answer(self):
        line = [(123_456.7, 200.5), (123_400.0, 100.0)]
        rect = (123_456.7, 150.0, 123_500.0, 250.0)
        assert not exact.in_band(line, exact.rect_ring(rect))
        assert exact.polyline_intersects_rect(line, rect)
        assert Polyline(line).intersects_rect(Rect(*rect))
