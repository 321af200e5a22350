"""Exact geometric predicates on segments and polylines.

These routines implement the *refinement* step of spatial query
processing (Section 4.2.2 of the paper): after the R*-tree filter has
produced candidate objects via their MBRs, the exact representation is
tested against the query condition.  All predicates are closed-set
predicates ("sharing points" counts as intersecting), matching the
window-query definition of Section 2.

The scalar predicates (:func:`segments_intersect` and the loops over
it) are the reference.  The polyline predicates — the refinement hot
spots — have batch forms.  The window queries' rectangle test
(:func:`polylines_intersect_rects`, also a long polyline's) decides
almost every row by one outcode comparison per vertex and hands the
few segments left to :func:`segment_intersects_rect` itself.  The
join's pair test (:func:`polylines_intersect_rows`) drops the
segments whose box misses the other polyline's eps-widened MBR, and
sends the cells left through the one vector form of the segment hit
rule (``_segments_intersect_mask``), with the identical float64
comparisons and ``_EPS`` tolerances.  Both read polylines as rows of
a :class:`~repro.geometry.column.GeometryColumn` — an organization's,
or one built from a list of vertex matrices for the list forms
(:func:`polylines_intersect_pairs`, a long polyline's window test) —
and gather a call's vertices by row.  Either way the boolean answers
agree with the scalar predicates on every input, eps-boundary cases
included.

The hit rule starts with a box pretest (segments whose eps-closed boxes
are disjoint never meet), so every cell a kernel prunes by a box is a
cell the rule rejects.

The contract against exact arithmetic, as ``tests/test_exact_geometry.py``
checks it with rational numbers.  A decision is *in the band* when a
quantity it compares with zero (a cross product, a coordinate gap) is
within ``_EPS`` plus its own float rounding of zero.  Outside the band
every kernel here gives the exact answer.  Inside it either answer is
allowed; ``_EPS`` stays an absolute ``1e-12``, because no input outside
the band has disagreed with exact arithmetic.  The paths that decide
objects start with the exact, tolerance-free MBR test, and so agree
with one another inside the band too: ``SpatialObject.intersects`` and
the join's ``_refine`` for pairs, ``SpatialObject.intersects_rect`` /
``contains_point`` and the organizations' window and point paths.
Called bare, :func:`polylines_intersect` and
:func:`polylines_intersect_rows` have no such test and may take two
chains within ``_EPS`` of each other for touching although their boxes
are disjoint (``TestTheBand::test_segments_half_eps_apart_are_in_the_band``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import GeometryError
from repro.geometry.rect import Rect

__all__ = [
    "orientation",
    "on_segment",
    "segments_intersect",
    "segment_intersects_rect",
    "points_in_polygon",
    "polyline_intersects_rect",
    "polylines_intersect_rects",
    "polylines_intersect",
    "polylines_intersect_pairs",
    "polylines_intersect_rows",
    "mbr_intersect_mask",
]


def mbr_intersect_mask(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise closed-set MBR intersection over two ``(n, 4)`` matrices
    (``xmin, ymin, xmax, ymax`` columns).

    ``out[k]`` is True iff rectangles ``a[k]`` and ``b[k]`` share at
    least one point — the same comparisons as
    :meth:`~repro.geometry.rect.Rect.intersects`, batched.  This is the
    multi-step join's refinement prefilter: candidate pairs whose exact
    geometries have disjoint (tight) bounding boxes cannot intersect,
    so the expensive exact test runs only on the surviving rows.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return (
        (a[:, 0] <= b[:, 2])
        & (b[:, 0] <= a[:, 2])
        & (a[:, 1] <= b[:, 3])
        & (b[:, 1] <= a[:, 3])
    )

_EPS = 1e-12


def orientation(
    ax: float, ay: float, bx: float, by: float, cx: float, cy: float
) -> int:
    """Orientation of the ordered triple (a, b, c).

    Returns ``1`` for counter-clockwise, ``-1`` for clockwise and ``0``
    for (numerically) collinear points.
    """
    cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    if cross > _EPS:
        return 1
    if cross < -_EPS:
        return -1
    return 0


def on_segment(
    ax: float, ay: float, bx: float, by: float, px: float, py: float
) -> bool:
    """True if point p lies on the closed segment a-b, assuming the three
    points are collinear."""
    return (
        min(ax, bx) - _EPS <= px <= max(ax, bx) + _EPS
        and min(ay, by) - _EPS <= py <= max(ay, by) + _EPS
    )


def segments_intersect(
    a: tuple[float, float],
    b: tuple[float, float],
    c: tuple[float, float],
    d: tuple[float, float],
) -> bool:
    """True if the closed segments a-b and c-d share at least one point;
    segments whose eps-closed boxes are disjoint never do."""
    if (
        max(a[0], b[0]) + _EPS < min(c[0], d[0])
        or max(c[0], d[0]) + _EPS < min(a[0], b[0])
        or max(a[1], b[1]) + _EPS < min(c[1], d[1])
        or max(c[1], d[1]) + _EPS < min(a[1], b[1])
    ):
        return False
    o1 = orientation(*a, *b, *c)
    o2 = orientation(*a, *b, *d)
    o3 = orientation(*c, *d, *a)
    o4 = orientation(*c, *d, *b)
    return (
        (o1 != o2 and o3 != o4)
        or (o1 == 0 and on_segment(*a, *b, *c))
        or (o2 == 0 and on_segment(*a, *b, *d))
        or (o3 == 0 and on_segment(*c, *d, *a))
        or (o4 == 0 and on_segment(*c, *d, *b))
    )


def segment_intersects_rect(
    a: tuple[float, float], b: tuple[float, float], rect: Rect
) -> bool:
    """True if the closed segment a-b shares a point with the rectangle.

    Uses the Cohen-Sutherland style trivial accept/reject before falling
    back to the four edge tests.  A point rectangle's four edges are the
    same zero-length segment, so it is tested once.
    """
    if rect.contains_point(*a) or rect.contains_point(*b):
        return True
    seg_mbr = Rect(
        min(a[0], b[0]), min(a[1], b[1]), max(a[0], b[0]), max(a[1], b[1])
    )
    if not rect.intersects(seg_mbr):
        return False
    corners = list(rect.corners())
    if rect.xmin == rect.xmax and rect.ymin == rect.ymax:
        return segments_intersect(a, b, corners[0], corners[0])
    for i in range(4):
        if segments_intersect(a, b, corners[i], corners[(i + 1) % 4]):
            return True
    return False


def points_in_polygon(
    xs: Sequence[float] | np.ndarray,
    ys: Sequence[float] | np.ndarray,
    vertices: Sequence[tuple[float, float]],
) -> np.ndarray:
    """Which points ``(xs[k], ys[k])`` lie in the closed area bounded by
    the ring ``vertices`` (a closing edge from the last vertex back to
    the first is implied): boundary points are inside, the crossing
    parity of the upward ray decides the rest.

    One broadcast over the ``(points, edges)`` grid, with
    :func:`orientation`'s ``_EPS`` thresholds and :func:`on_segment`'s
    box for the boundary.  No stored geometry is an area, so nothing
    in the library calls it; it stays a named entry point of the
    wall-clock benchmark's wrap table (``perf/shim.py``).
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if len(vertices) < 3 or len(xs) == 0:
        return np.zeros(len(xs), dtype=bool)
    ring = np.asarray(vertices, dtype=np.float64)
    closing = np.roll(ring, -1, axis=0)  # edge i: ring[i] -> ring[i+1 mod n]
    ax, ay = ring[None, :, 0], ring[None, :, 1]
    bx, by = closing[None, :, 0], closing[None, :, 1]
    px, py = xs[:, None], ys[:, None]
    left, right = _sides((bx - ax) * (py - ay) - (by - ay) * (px - ax))
    on_edge = ~(left | right) & _on_segment_mask(ax, ay, bx, by, px, py)
    crossing = (ay > py) != (by > py)
    # Horizontal edges never satisfy ``crossing`` but still divide by
    # zero on the broadcast grid; their lanes are masked out below.
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = ax + (py - ay) * (bx - ax) / (by - ay)
        toggles = crossing & (px < x_cross)
    inside = (toggles.sum(axis=1) & 1).astype(bool)
    return on_edge.any(axis=1) | inside


def polyline_intersects_rect(
    vertices: Sequence[tuple[float, float]], rect: Rect
) -> bool:
    """True if any segment of the open polyline shares a point with the
    rectangle; a single-vertex "polyline" degenerates to a point test."""
    if len(vertices) == 1:
        return rect.contains_point(*vertices[0])
    for i in range(len(vertices) - 1):
        if segment_intersects_rect(vertices[i], vertices[i + 1], rect):
            return True
    return False


def polylines_intersect_rects(
    column, rows: np.ndarray, rects: tuple[float, float, float, float] | np.ndarray
) -> np.ndarray:
    """Batched :func:`polyline_intersects_rect` over rows of a
    :class:`~repro.geometry.column.GeometryColumn`: ``out[k]`` is True
    iff the polyline in row ``rows[k]`` shares a point with its
    rectangle — ``rects[k]`` of a ``(k, 4)`` array, or the one
    ``(xmin, ymin, xmax, ymax)`` tuple ``rects`` for every row; a row
    without vertices is False.  Rows may repeat and come in any order:
    their vertices are gathered from the column by one index.

    The window-refinement hot path, batched across the candidates and
    queries of one call.  One Cohen-Sutherland outcode per vertex — a
    flag each for left of, below, right of and above its rectangle —
    decides nearly every row: a vertex with code 0 lies in the closed
    rectangle (``Rect.contains_point``) and accepts its row, and a
    segment whose two codes share a flag has a box that misses the
    rectangle (the scalar per-segment pretest, ``Rect.intersects``,
    for every non-NaN float) and is rejected.  The few segments left —
    none in most calls on map data — run :func:`segment_intersects_rect`
    itself, so the booleans are the scalar predicate's by construction,
    ``_EPS`` edge tests included.
    """
    n = len(rows)
    out = np.zeros(n, dtype=bool)
    if not n:
        return out
    index, ends = column.vertex_index(rows)
    if not ends[-1]:
        return out
    pts = column.vertices.take(index, axis=0)
    x, y = pts.T
    one = isinstance(rects, tuple)
    if one:
        xmin, ymin, xmax, ymax = rects
    else:
        rects = np.asarray(rects, dtype=np.float64)
        xmin, ymin, xmax, ymax = rects.T.repeat(np.diff(ends, prepend=0), axis=1)
    # One flag byte per side, four to a vertex: the uint32 view is the
    # outcode (zero inside).
    outside = np.empty((len(pts), 4), dtype=bool)
    np.less(x, xmin, out=outside[:, 0])
    np.less(y, ymin, out=outside[:, 1])
    np.greater(x, xmax, out=outside[:, 2])
    np.greater(y, ymax, out=outside[:, 3])
    code = outside.view(np.uint32).ravel()
    inside = code == 0
    out[ends.searchsorted(inside.nonzero()[0], side="right")] = True
    if np.count_nonzero(out) == n:  # a point query at a vertex, typically
        return out
    # Every flag on an inside vertex: its row is decided, its segments
    # are not tested.  (An empty row's ``ends - 1`` is another row's
    # last vertex.)
    code[inside] = 0x01010101
    seg = _live_segments(outside, ends)
    if not len(seg):
        return out
    row = ends.searchsorted(seg, side="right")
    boxes = [rects] * len(row) if one else rects[row].tolist()
    window = Rect(*rects) if one else None  # one rectangle: built once
    # Plain Python floats: numpy scalars would make every scalar
    # comparison several times slower.  A row may have been decided by
    # a vertex away from this segment.
    for r, a, b, box in zip(row.tolist(), pts[seg].tolist(), pts[seg + 1].tolist(), boxes):
        if not out[r] and segment_intersects_rect(a, b, window or Rect(*box)):
            out[r] = True
    return out


def polylines_intersect(
    a: Sequence[tuple[float, float]],
    b: Sequence[tuple[float, float]],
    coords_a=None,
    coords_b=None,
) -> bool:
    """True if two open polylines share at least one point.

    This is the exact-geometry predicate of the intersection join for
    line-shaped TIGER objects (streets vs. rivers/rails).  The naive
    all-pairs segment test is quadratic; a pair with at least
    ``_VECTOR_MIN_CELLS`` segment-pair cells runs as a batch of one
    through :func:`polylines_intersect_pairs`, smaller pairs run the
    early-exiting double loop, and callers still pre-filter with MBRs,
    as the multi-step join of [BKSS94] does.  ``coords_a``/``coords_b``
    optionally provide the vertex matrices (zero-argument callables,
    evaluated only on the vectorized path).
    """
    if len(a) == 1 and len(b) == 1:
        return abs(a[0][0] - b[0][0]) <= _EPS and abs(a[0][1] - b[0][1]) <= _EPS
    if (
        len(a) >= 2
        and len(b) >= 2
        and (len(a) - 1) * (len(b) - 1) >= _VECTOR_MIN_CELLS
    ):
        pts_a = coords_a() if coords_a is not None else np.asarray(
            a, dtype=np.float64
        )
        pts_b = coords_b() if coords_b is not None else np.asarray(
            b, dtype=np.float64
        )
        return bool(polylines_intersect_pairs([pts_a], [pts_b])[0])
    for i in range(max(len(a) - 1, 1)):
        sa = (a[i], a[min(i + 1, len(a) - 1)])
        for j in range(max(len(b) - 1, 1)):
            sb = (b[j], b[min(j + 1, len(b) - 1)])
            if segments_intersect(sa[0], sa[1], sb[0], sb[1]):
                return True
    return False


def polylines_intersect_pairs(
    coords_a: Sequence[np.ndarray], coords_b: Sequence[np.ndarray]
) -> np.ndarray:
    """Batched :func:`polylines_intersect` over *independent* pairs:
    ``out[k]`` is True iff polylines ``coords_a[k]`` and ``coords_b[k]``
    (``(n, 2)`` float64 vertex matrices) share a point.

    The list form of :func:`polylines_intersect_rows`: one
    :class:`~repro.geometry.column.GeometryColumn` per list, pair ``k``
    is row ``k`` of each.  A pair with a single-vertex side runs
    :func:`polylines_intersect`; one with a side without vertices
    raises :class:`GeometryError`.
    """
    from repro.geometry.column import GeometryColumn

    rows = np.arange(len(coords_a))
    return polylines_intersect_rows(
        GeometryColumn.of(coords_a), rows, GeometryColumn.of(coords_b), rows
    )


def polylines_intersect_rows(column_a, rows_a: np.ndarray, column_b, rows_b: np.ndarray) -> np.ndarray:
    """Batched :func:`polylines_intersect` over *independent* pairs of
    column rows: ``out[k]`` is True iff polyline ``rows_a[k]`` of
    ``column_a`` and ``rows_b[k]`` of ``column_b`` share a point (each
    a :class:`~repro.geometry.column.GeometryColumn`: vertices, their
    rows and each row's tight MBR).

    The join-refinement hot path, batched **across candidate pairs**
    and restricted, as [BKS93b] restricts the MBR join, to each pair's
    box intersection: a segment whose eps-closed box misses the other
    polyline's eps-widened MBR is dropped (:func:`_segments_near`),
    the cells live-a x live-b are enumerated flat (:func:`_cells`), and
    the cells whose segment boxes meet take
    :func:`_segments_intersect_mask`.  Every cell left out fails the
    rule's box pretest.  A pair with a single-vertex side runs
    :func:`polylines_intersect`; one with a side without vertices
    raises :class:`GeometryError`.
    """
    n = len(rows_a)
    out = np.zeros(n, dtype=bool)
    na, nb = column_a.counts[rows_a], column_b.counts[rows_b]
    empty = np.flatnonzero((na == 0) | (nb == 0))
    if len(empty):
        raise GeometryError(f"pair {empty[0]}: a polyline without vertices")
    # A single-vertex "polyline" has no segment to enumerate.  Plain
    # Python floats for its scalar loop: walking numpy rows would run
    # every comparison on np.float64 scalars.
    scalar = ((na == 1) | (nb == 1)).nonzero()[0]
    for k in scalar.tolist():
        sa, sb = column_a.starts[rows_a[k]], column_b.starts[rows_b[k]]
        out[k] = polylines_intersect(
            column_a.vertices[sa:sa + na[k]].tolist(),
            column_b.vertices[sb:sb + nb[k]].tolist(),
        )
    if len(scalar) == n:
        return out
    # Live segments of the a sides, then of the b sides: the owner of
    # an a-segment is its pair p, of a b-segment n + p.
    owner_a, sides_a = _segments_near(column_a, rows_a, column_b.boxes[rows_b])
    owner_b, sides_b = _segments_near(column_b, rows_b, column_a.boxes[rows_a])
    owner = np.concatenate((owner_a, owner_b + n))
    ax, ay, bx, by, lo_x, lo_y, hi_x, hi_y = map(np.concatenate, zip(sides_a, sides_b))
    for i, j in _cells(owner, n):
        meet = hi_x.take(i) >= lo_x.take(j)
        meet &= hi_x.take(j) >= lo_x.take(i)
        meet &= hi_y.take(i) >= lo_y.take(j)
        meet &= hi_y.take(j) >= lo_y.take(i)
        i, j = i[meet], j[meet]
        hit = _segments_intersect_mask(
            ax.take(i), ay.take(i), bx.take(i), by.take(i),
            ax.take(j), ay.take(j), bx.take(j), by.take(j),
        )
        out[owner.take(i[hit])] = True
    return out


def _segments_near(
    column, rows: np.ndarray, other: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The segments ``v -> v + 1`` of row ``rows[k]`` whose eps-closed
    boxes meet the eps-widened box ``other[k]`` (a tight ``(k, 4)`` MBR
    row), for every ``k``: their ``k`` and their endpoints and boxes
    (``ax, ay, bx, by, lo_x, lo_y, hi_x, hi_y``, one array each, high
    sides with ``_EPS`` as in the hit rule's pretest), by ``k`` then
    segment.  A segment outside lies wholly left of, below, right of or
    above the box, so the pretest rejects it against every segment
    inside."""
    per_row = column.counts[rows] - 1
    owner = np.arange(len(rows)).repeat(per_row)
    seg = (column.starts[rows] - per_row.cumsum() + per_row).take(owner)
    seg += np.arange(len(seg))
    # One complex per vertex: a gather takes x and y at once.
    points = column.vertices.view(np.complex128).ravel()
    a, b = points.take(seg), points.take(seg + 1)
    # max(x + _EPS) is max(x) + _EPS: rounding is monotone.
    lo_x, lo_y = np.minimum(a.real, b.real), np.minimum(a.imag, b.imag)
    hi_x, hi_y = np.maximum(a.real, b.real) + _EPS, np.maximum(a.imag, b.imag) + _EPS
    # The other box's high sides carry _EPS, as every segment's do.
    xmin, ymin, xmax, ymax = other.T
    live = hi_x >= xmin.take(owner)
    live &= lo_x <= (xmax + _EPS).take(owner)
    live &= hi_y >= ymin.take(owner)
    live &= lo_y <= (ymax + _EPS).take(owner)
    live = live.nonzero()[0]
    a, b = a.take(live), b.take(live)
    sides = [a.real.copy(), a.imag.copy(), b.real.copy(), b.imag.copy()]
    return owner.take(live), sides + [v.take(live) for v in (lo_x, lo_y, hi_x, hi_y)]


def _live_segments(outside: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Segments ``v -> v + 1`` (no polyline's last ``v``; ``ends`` are
    cumulative vertex counts) whose vertices share no ``outside`` flag:
    left of, below, right of, above the box, one bool byte each."""
    code = outside.view(np.uint32).ravel()
    live = np.empty(len(code), dtype=bool)
    np.equal(code[:-1] & code[1:], 0, out=live[:-1])
    live[ends - 1] = False
    return live.nonzero()[0]


def _cells(owner: np.ndarray, n: int):
    """Each live a-segment ``i`` with every live b-segment ``j`` of its
    pair (``owner``: sorted polylines, pair ``p`` is ``p`` and
    ``n + p``) as index arrays ``(i, j)``, in chunks of at most
    ``_CHUNK_CELLS`` cells or one a-segment."""
    split = int(owner.searchsorted(n))
    live_b = np.bincount(owner[split:] - n, minlength=n)
    row = live_b[owner[:split]]  # cells per a-segment
    first = (split + live_b.cumsum() - live_b)[owner[:split]]
    ends = row.cumsum()
    start = 0
    while start < split:
        base = ends[start] - row[start]
        stop = max(int(ends.searchsorted(base + _CHUNK_CELLS, "right")), start + 1)
        lens = row[start:stop]
        # Chunk cell k in the row of s: j = first[s] + k - (ends[s] - row[s] - base).
        j = (first[start:stop] + base - ends[start:stop] + lens).repeat(lens)
        j += np.arange(len(j))
        yield np.arange(start, stop).repeat(lens), j
        start = stop


# ----------------------------------------------------------------------
# vectorized kernels
# ----------------------------------------------------------------------
_CHUNK_CELLS = 65536
"""Cells per chunk of :func:`_cells`, which enumerates the cells of
:func:`polylines_intersect_rows`: bounds its index and coordinate
arrays, nothing else."""

_VECTOR_MIN_CELLS = 128
"""A :func:`polylines_intersect` pair with fewer segment-pair cells
runs the scalar double loop (more go to
:func:`polylines_intersect_pairs` as a batch of one).  Numpy call
overhead dominates small batches (measured crossover ~100-200 cells).
Purely a performance heuristic — both paths return identical
booleans."""

def _on_segment_mask(ax, ay, bx, by, px, py) -> np.ndarray:
    """Vectorized :func:`on_segment` (collinearity assumed)."""
    return (
        (np.minimum(ax, bx) - _EPS <= px)
        & (px <= np.maximum(ax, bx) + _EPS)
        & (np.minimum(ay, by) - _EPS <= py)
        & (py <= np.maximum(ay, by) + _EPS)
    )


def _sides(cross: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where :func:`orientation` of this cross product is ``1`` and
    where it is ``-1``; both False is its collinear ``0``."""
    return cross > _EPS, cross < -_EPS


def _segments_intersect_mask(ax, ay, bx, by, cx, cy, dx, dy) -> np.ndarray:
    """Vectorized :func:`segments_intersect`, the one vector form of its
    hit rule: closed segments ``a-b`` against ``c-d``, one boolean per
    element of the equal-length operands.

    The box pretest and the four cross products are the float64
    expressions of the scalar rule (each segment's deltas taken once),
    and only the products' signs are kept; the four :func:`on_segment`
    clauses run on the cells they can decide — boxes meeting, some
    orientation zero, no proper crossing — which on map data is none
    or a handful."""
    meet = ~(
        (np.maximum(ax, bx) + _EPS < np.minimum(cx, dx))
        | (np.maximum(cx, dx) + _EPS < np.minimum(ax, bx))
        | (np.maximum(ay, by) + _EPS < np.minimum(cy, dy))
        | (np.maximum(cy, dy) + _EPS < np.minimum(ay, by))
    )
    abx, aby = bx - ax, by - ay
    cdx, cdy = dx - cx, dy - cy
    left1, right1 = _sides(abx * (cy - ay) - aby * (cx - ax))  # a, b, c
    left2, right2 = _sides(abx * (dy - ay) - aby * (dx - ax))  # a, b, d
    left3, right3 = _sides(cdx * (ay - cy) - cdy * (ax - cx))  # c, d, a
    left4, right4 = _sides(cdx * (by - cy) - cdy * (bx - cx))  # c, d, b
    # o1 != o2 and o3 != o4: a proper crossing.
    hit = meet & ((left1 != left2) | (right1 != right2)) & (
        (left3 != left4) | (right3 != right4)
    )
    turns = (left1 | right1, left2 | right2, left3 | right3, left4 | right4)
    undecided = meet & ~(hit | (turns[0] & turns[1] & turns[2] & turns[3]))
    if undecided.any():
        ax, ay, bx, by, cx, cy, dx, dy = (
            v[undecided] for v in (ax, ay, bx, by, cx, cy, dx, dy)
        )
        zero1, zero2, zero3, zero4 = (~turn[undecided] for turn in turns)
        hit[undecided] = (
            (zero1 & _on_segment_mask(ax, ay, bx, by, cx, cy))
            | (zero2 & _on_segment_mask(ax, ay, bx, by, dx, dy))
            | (zero3 & _on_segment_mask(cx, cy, dx, dy, ax, ay))
            | (zero4 & _on_segment_mask(cx, cy, dx, dy, bx, by))
        )
    return hit
