"""Exact geometric predicates on segments, polylines and polygons.

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
join's pair test (:func:`polylines_intersect_rows`) reads polylines
as rows of a :class:`PolylineTable` — one vertex column, each row's
tight MBR and each segment's eps-closed box, built once per distinct
polyline — drops the segments whose box misses the other polyline's
eps-widened MBR, and sends the cells left through the one vector form
of the segment hit rule (``_segments_intersect_mask``), with the
identical float64 comparisons and ``_EPS`` tolerances
(:func:`polylines_intersect_pairs` is its form over two lists of
vertex matrices).  Either way the boolean answers agree with the
scalar predicates on every input, eps-boundary cases included.

The hit rule starts with a box pretest (segments whose eps-closed boxes
are disjoint never meet), so every cell a kernel prunes by a box is a
cell the rule rejects.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

from repro.errors import GeometryError
from repro.geometry.rect import Rect

__all__ = [
    "orientation",
    "on_segment",
    "segments_intersect",
    "segment_intersects_rect",
    "point_in_polygon",
    "points_in_polygon",
    "polyline_intersects_rect",
    "polylines_intersect_rects",
    "polylines_intersect",
    "polylines_intersect_pairs",
    "polylines_intersect_rows",
    "PolylineTable",
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
    back to the four edge tests.
    """
    if rect.contains_point(*a) or rect.contains_point(*b):
        return True
    seg_mbr = Rect(
        min(a[0], b[0]), min(a[1], b[1]), max(a[0], b[0]), max(a[1], b[1])
    )
    if not rect.intersects(seg_mbr):
        return False
    corners = list(rect.corners())
    for i in range(4):
        if segments_intersect(a, b, corners[i], corners[(i + 1) % 4]):
            return True
    return False


def point_in_polygon(
    x: float, y: float, vertices: Sequence[tuple[float, float]]
) -> bool:
    """Closed point-in-polygon test (ray casting with boundary handling).

    ``vertices`` is the polygon ring; a closing edge from the last vertex
    back to the first is implied.  Points on the boundary are inside.
    """
    n = len(vertices)
    if n < 3:
        return False
    inside = False
    for i in range(n):
        ax, ay = vertices[i]
        bx, by = vertices[(i + 1) % n]
        # Boundary check: the point lies on the edge a-b.
        if orientation(ax, ay, bx, by, x, y) == 0 and on_segment(
            ax, ay, bx, by, x, y
        ):
            return True
        # Ray casting: count crossings of the upward ray.
        if (ay > y) != (by > y):
            x_cross = ax + (y - ay) * (bx - ax) / (by - ay)
            if x < x_cross:
                inside = not inside
    return inside


def points_in_polygon(
    xs: Sequence[float] | np.ndarray,
    ys: Sequence[float] | np.ndarray,
    vertices: Sequence[tuple[float, float]],
) -> np.ndarray:
    """Batched :func:`point_in_polygon`: ``out[k]`` equals
    ``point_in_polygon(xs[k], ys[k], vertices)`` for every ``k``.

    The vectorized path broadcasts the crossing-number test over a
    ``(points, edges)`` grid with the identical float64 arithmetic,
    ``_EPS`` thresholds and boundary convention as the scalar loop
    (boundary points are inside; crossing parity decides the rest —
    the scalar early-return on a boundary edge only short-circuits an
    answer that is True either way).  Small batches run the scalar
    loop point by point.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    n_points = len(xs)
    n_edges = len(vertices)
    if n_edges < 3 or n_points == 0:
        return np.zeros(n_points, dtype=bool)
    if n_points * n_edges < _VECTOR_MIN_CELLS:
        return np.fromiter(
            (
                point_in_polygon(float(x), float(y), vertices)
                for x, y in zip(xs, ys)
            ),
            dtype=bool,
            count=n_points,
        )
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
    vertices: Sequence[tuple[float, float]],
    rect: Rect,
    coords=None,
) -> bool:
    """True if any segment of the open polyline shares a point with the
    rectangle; a single-vertex "polyline" degenerates to a point test.

    ``coords`` optionally provides the vertices as an ``(n, 2)``
    float64 matrix — a zero-argument callable, so geometry objects can
    hand in their cached matrix without the scalar path ever building
    one."""
    if len(vertices) == 1:
        return rect.contains_point(*vertices[0])
    if len(vertices) >= _VECTOR_MIN_VERTICES:
        pts = coords() if coords is not None else np.asarray(
            vertices, dtype=np.float64
        )
        return bool(polylines_intersect_rects([pts], [rect.as_tuple()])[0])
    for i in range(len(vertices) - 1):
        if segment_intersects_rect(vertices[i], vertices[i + 1], rect):
            return True
    return False


def polylines_intersect_rects(
    coords_list: Sequence[np.ndarray],
    rects: Sequence[tuple[float, float, float, float]] | np.ndarray,
) -> np.ndarray:
    """Batched :func:`polyline_intersects_rect` over *independent* pairs:
    ``out[k]`` is True iff polyline ``coords_list[k]`` (an ``(n_k, 2)``
    float64 vertex matrix) shares a point with rectangle ``rects[k]``
    (an ``(xmin, ymin, xmax, ymax)`` row); a row without vertices is
    False.

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
    n = len(coords_list)
    out = np.zeros(n, dtype=bool)
    counts = np.fromiter(map(len, coords_list), dtype=np.int64, count=n)
    ends = counts.cumsum()  # row r: vertices ends[r] - counts[r] to ends[r] - 1
    if not n or not ends[-1]:
        return out
    rects = np.fromiter(
        chain.from_iterable(rects), dtype=np.float64, count=4 * n
    ).reshape(n, 4)
    pts = np.concatenate(coords_list)
    x, y = pts.T
    xmin, ymin, xmax, ymax = rects.T.repeat(counts, axis=1)
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
    # Every flag on an inside vertex: its row is decided, its segments
    # are not tested.  (An empty row's ``ends - 1`` is another row's
    # last vertex.)
    code[inside] = 0x01010101
    seg = _live_segments(outside, ends)
    if not len(seg):
        return out
    row = ends.searchsorted(seg, side="right")
    # Plain Python floats: numpy scalars would make every scalar
    # comparison several times slower.  A row may have been decided by
    # a vertex away from this segment.
    for r, a, b, rect in zip(
        row.tolist(), pts[seg].tolist(), pts[seg + 1].tolist(), rects[row].tolist()
    ):
        if not out[r] and segment_intersects_rect(a, b, Rect(*rect)):
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
    :class:`PolylineTable` per list, pair ``k`` is row ``k`` of each.
    A pair with a single-vertex side runs :func:`polylines_intersect`;
    one with a side without vertices raises :class:`GeometryError`.
    """
    rows = np.arange(len(coords_a))
    return polylines_intersect_rows(
        PolylineTable(coords_a), rows, PolylineTable(coords_b), rows
    )


class PolylineTable:
    """Polylines as rows over one vertex column — what the join's pair
    kernel gathers from, so a polyline that takes part in many pairs is
    copied, boxed and segmented once.

    ``column`` is the ``(2, V)`` x/y matrix of every row's vertices in
    row order, row ``r`` is ``column[:, starts[r]:starts[r] + counts[r]]``,
    ``boxes[r]`` its tight MBR (``xmin, ymin, xmax, ymax``; NaN for a
    row without vertices) and ``segments[:, v]`` the eps-closed box of
    segment ``v -> v + 1`` (``lo_x, lo_y, hi_x, hi_y``, high sides
    with ``_EPS`` as in the hit rule's pretest; meaningless for a row's
    last ``v``).
    """

    __slots__ = ("column", "starts", "counts", "boxes", "segments")

    def __init__(self, coords_list: Sequence[np.ndarray]):
        n = len(coords_list)
        self.counts = np.fromiter(map(len, coords_list), dtype=np.int64, count=n)
        ends = self.counts.cumsum()
        self.starts = ends - self.counts
        self.boxes = np.full((n, 4), np.nan)
        if not n or not ends[-1]:
            self.column = np.empty((2, 0))
            self.segments = np.empty((4, 0))
            return
        self.column = np.concatenate(coords_list, dtype=np.float64).T.copy()
        x, y = self.column
        full = self.counts > 0
        self.boxes[full] = np.column_stack([
            bound.reduceat(v, self.starts[full])
            for bound, v in ((np.minimum, x), (np.minimum, y), (np.maximum, x), (np.maximum, y))
        ])
        # max(x + _EPS) is max(x) + _EPS: rounding is monotone.
        self.segments = np.empty((4, len(x) - 1))
        lo_x, lo_y, hi_x, hi_y = self.segments
        np.minimum(x[:-1], x[1:], out=lo_x)
        np.minimum(y[:-1], y[1:], out=lo_y)
        np.maximum(x[:-1], x[1:], out=hi_x)
        np.maximum(y[:-1], y[1:], out=hi_y)
        self.segments[2:] += _EPS

    def gather(self, seg: np.ndarray) -> list[np.ndarray]:
        """Segments ``seg``: their endpoints ``ax, ay, bx, by`` and their
        boxes ``lo_x, lo_y, hi_x, hi_y``, one array each."""
        (x, y), after = self.column, seg + 1
        return [
            x.take(seg), y.take(seg), x.take(after), y.take(after),
            *(side.take(seg) for side in self.segments),
        ]

    def live_segments(
        self, rows: np.ndarray, other: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The segments of row ``rows[k]`` whose eps-closed boxes meet
        the eps-widened box ``other[k]`` (a tight ``(k, 4)`` MBR row),
        for every ``k``: ``(segment, k)`` index arrays, by ``k`` then
        segment.  A segment outside lies wholly left of, below, right
        of or above the box, so the hit rule's pretest rejects it
        against every segment inside."""
        per_row = self.counts[rows] - 1
        owner = np.arange(len(rows)).repeat(per_row)
        seg = (self.starts[rows] - per_row.cumsum() + per_row).take(owner)
        seg += np.arange(len(seg))
        # The other box's high sides carry _EPS, as every segment's do.
        xmin, ymin = other[:, 0], other[:, 1]
        xmax, ymax = other[:, 2] + _EPS, other[:, 3] + _EPS
        lo_x, lo_y, hi_x, hi_y = self.segments
        live = hi_x.take(seg) >= xmin.take(owner)
        live &= lo_x.take(seg) <= xmax.take(owner)
        live &= hi_y.take(seg) >= ymin.take(owner)
        live &= lo_y.take(seg) <= ymax.take(owner)
        live = live.nonzero()[0]
        return seg.take(live), owner.take(live)


def polylines_intersect_rows(
    table_a: PolylineTable,
    rows_a: np.ndarray,
    table_b: PolylineTable,
    rows_b: np.ndarray,
) -> np.ndarray:
    """Batched :func:`polylines_intersect` over *independent* pairs of
    table rows: ``out[k]`` is True iff polyline ``rows_a[k]`` of
    ``table_a`` and ``rows_b[k]`` of ``table_b`` share a point.

    The join-refinement hot path, batched **across candidate pairs**
    and restricted, as [BKS93b] restricts the MBR join, to each pair's
    box intersection: a segment whose eps-closed box misses the other
    polyline's eps-widened MBR is dropped
    (:meth:`PolylineTable.live_segments`), the cells live-a x live-b
    are enumerated flat (:func:`_cells`), and the cells whose segment
    boxes meet take :func:`_segments_intersect_mask`.  Every cell left
    out fails the rule's box pretest.  A pair with a single-vertex side
    runs :func:`polylines_intersect`; one with a side without vertices
    raises :class:`GeometryError`.
    """
    n = len(rows_a)
    out = np.zeros(n, dtype=bool)
    na, nb = table_a.counts[rows_a], table_b.counts[rows_b]
    empty = np.flatnonzero((na == 0) | (nb == 0))
    if len(empty):
        raise GeometryError(f"pair {empty[0]}: a polyline without vertices")
    # A single-vertex "polyline" has no segment to enumerate.  Plain
    # Python floats for its scalar loop: walking numpy rows would run
    # every comparison on np.float64 scalars.
    scalar = ((na == 1) | (nb == 1)).nonzero()[0]
    for k in scalar.tolist():
        sa, sb = table_a.starts[rows_a[k]], table_b.starts[rows_b[k]]
        out[k] = polylines_intersect(
            table_a.column[:, sa:sa + na[k]].T.tolist(),
            table_b.column[:, sb:sb + nb[k]].T.tolist(),
        )
    if len(scalar) == n:
        return out
    # Live segments of the a sides, then of the b sides: the owner of
    # an a-segment is its pair p, of a b-segment n + p.
    seg_a, owner_a = table_a.live_segments(rows_a, table_b.boxes[rows_b])
    seg_b, owner_b = table_b.live_segments(rows_b, table_a.boxes[rows_a])
    owner = np.concatenate((owner_a, owner_b + n))
    ax, ay, bx, by, lo_x, lo_y, hi_x, hi_y = (
        np.concatenate(sides)
        for sides in zip(table_a.gather(seg_a), table_b.gather(seg_b))
    )
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
"""Cells per chunk of :func:`polylines_intersect_pairs`: bounds its
index and coordinate arrays, nothing else."""

_VECTOR_MIN_CELLS = 128
"""A batch with fewer cells runs the scalar loops in the two
predicates that still have them: the segment pairs of one
:func:`polylines_intersect` pair (more go to
:func:`polylines_intersect_pairs` as a batch of one) and the point x
edge grid of :func:`points_in_polygon`.  Numpy call overhead dominates
small batches (measured crossover ~100-200 cells).  Purely a
performance heuristic — both paths return identical booleans."""

_VECTOR_MIN_VERTICES = 64
"""A :func:`polyline_intersects_rect` test below this many vertices
runs the scalar loop (it early-exits after a handful of cheap
per-segment checks; measured crossover ~64 vertices), a longer one
is a batch of one through :func:`polylines_intersect_rects`.  Purely a
performance heuristic — both paths return identical booleans."""


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
