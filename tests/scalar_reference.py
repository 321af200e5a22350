"""The entry-at-a-time bodies the vector kernels replaced: the
equivalence oracles of ``tests/test_kernels.py``.  They shipped in
``repro`` behind a kernel-mode switch until nothing but the tests
selected them.

Each function takes the arguments of the shipped name it stands for, so
a test can patch it over that name (:data:`PATCHES` lists the targets):

* :func:`window_leaves` / :func:`window_leaves_batch` — the tree walk
  that tests entry by entry, one query at a time, and :func:`reach`,
  the block traversal as such walks (``RStarTree``), and
  :func:`find_leaf`, delete's descent the same way;
* :func:`rstar_split` — the split over sorted entry lists and ``Rect``
  unions (``repro.rtree.rstar``);
* :func:`mbr_join_run` — the join's synchronized traversal as the
  recursion over node pairs, with :func:`intersecting_pairs`, the pair
  list from a double loop and a stable ``sort`` (``MBRJoin.run``);
* :func:`sort_by_hilbert` — a stable ``sorted`` on a per-object key
  (``repro.core.hilbert``);
* :func:`refine` / :func:`join_refine` — the window / join refinement
  that asks each candidate's own predicate (``SpatialOrganization``,
  ``repro.join.multistep``);
* and the geometry predicates' scalar loops, forced by size crossovers
  no input reaches (``repro.geometry.intersect``; :func:`scalar_loops`
  alone; :data:`SCALAR_LOOPS` names the predicates).

:func:`point_in_polygon` is the per-point loop that
``intersect.points_in_polygon`` broadcasts; no shipped name calls it.

Inside :func:`installed` all of them are in place at once.
"""

from __future__ import annotations

import sys
from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np

from repro.core import hilbert
from repro.core.hilbert import point_key
from repro.errors import TreeError
from repro.geometry import intersect
from repro.geometry.rect import Rect
from repro.join import multistep
from repro.join.mbr_join import MBRJoin
from repro.rtree import rstar
from repro.rtree.entry import Entry
from repro.rtree.rstar import Reach, RStarTree
from repro.storage.base import SpatialOrganization


# ----------------------------------------------------------------------
# the filter step
# ----------------------------------------------------------------------
def window_leaves(tree, window, read=None):
    """``RStarTree.window_leaves``, testing entry by entry."""
    read = read or tree._read
    groups = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        read(node)
        if node.is_leaf:
            matches = [i for i, e in enumerate(node.entries) if e.rect.intersects(window)]
            if matches:
                groups.append((node, np.array(matches, dtype=np.int64)))
        else:
            for entry in node.entries:
                if entry.rect.intersects(window):
                    assert entry.child is not None
                    stack.append(entry.child)
    return groups


def window_leaves_batch(tree, rects, groups_limit=None):
    """``RStarTree.window_leaves_batch`` as a loop of entry-at-a-time
    walks, equally unpriced, and stopped as early by ``groups_limit``."""
    per_query = []
    for rect in rects:
        visited = []
        groups = window_leaves(tree, rect, visited.append)
        per_query.append((visited, groups))
        if groups_limit is not None and sum(len(g) for _v, g in per_query) >= groups_limit:
            break
    return per_query


def reach(tree, rects):
    """``RStarTree._reach`` as a loop of entry-at-a-time walks, one
    query after the other: a data page two queries hit is reached once
    per query, each time with its own run."""
    visited, leaves = [], []
    for query, rect in enumerate(rects):
        visited.append([])
        for leaf, hits in window_leaves(tree, rect, visited[-1].append):
            leaves.append((leaf, hits, [(query, len(hits))]))
    return Reach(visited, leaves, sum(len(hits) for _leaf, hits, _runs in leaves))


def find_leaf(tree, node, oid, rect, q):
    """``RStarTree._find_leaf``, asking each directory entry's
    ``Rect.contains`` in turn (``q`` unused)."""
    tree._read(node)
    if node.is_leaf:
        for entry in node.entries:
            if entry.oid == oid and entry.rect == rect:
                return node, entry
        return None
    for entry in node.entries:
        if entry.rect.contains(rect):
            assert entry.child is not None
            found = find_leaf(tree, entry.child, oid, rect, q)
            if found is not None:
                return found
    return None


# ----------------------------------------------------------------------
# the R*-tree split
# ----------------------------------------------------------------------
def _prefix_mbrs(entries: list[Entry]) -> list[Rect]:
    """``out[i]`` = MBR of ``entries[: i + 1]``."""
    out: list[Rect] = []
    current: Rect | None = None
    for entry in entries:
        current = entry.rect if current is None else current.union(entry.rect)
        out.append(current)
    return out


def _distributions(
    entries: list[Entry], m: int
) -> list[tuple[int, Rect, Rect, list[Entry]]]:
    """All legal split positions for one sort order.

    Yields ``(k, mbr_first, mbr_second, sorted_entries)`` where the first
    group is ``sorted_entries[:k]``.
    """
    n = len(entries)
    prefix = _prefix_mbrs(entries)
    suffix = _prefix_mbrs(entries[::-1])[::-1]  # suffix[i] = MBR of entries[i:]
    result = []
    for k in range(m, n - m + 1):
        result.append((k, prefix[k - 1], suffix[k], entries))
    return result


def rstar_split(rects, min_fill_fraction=0.4):
    """``repro.rtree.split.rstar_split`` over sorted entry lists: the
    matrix rows become entries numbered by position, and the chosen
    order comes back as those numbers."""
    entries = [Entry(Rect(*row), oid=i) for i, row in enumerate(rects.tolist())]
    n = len(entries)
    if n < 2:
        raise TreeError(f"cannot split a node with {n} entries")
    m = max(1, min(int(min_fill_fraction * n), n // 2))
    # ------------------------------------------------------------------
    # ChooseSplitAxis: minimum margin sum over both sort orders per axis.
    # ------------------------------------------------------------------
    best_axis_dists = None
    best_margin_sum = None
    for axis in (0, 1):  # 0 = x, 1 = y
        if axis == 0:
            by_lower = sorted(entries, key=lambda e: (e.rect.xmin, e.rect.xmax))
            by_upper = sorted(entries, key=lambda e: (e.rect.xmax, e.rect.xmin))
        else:
            by_lower = sorted(entries, key=lambda e: (e.rect.ymin, e.rect.ymax))
            by_upper = sorted(entries, key=lambda e: (e.rect.ymax, e.rect.ymin))
        dists = _distributions(by_lower, m) + _distributions(by_upper, m)
        # each side's margin (half perimeter), summed side by side
        margin_sum = sum(
            (r1.width + r1.height) + (r2.width + r2.height) for _, r1, r2, _ in dists
        )
        if best_margin_sum is None or margin_sum < best_margin_sum:
            best_margin_sum = margin_sum
            best_axis_dists = dists

    assert best_axis_dists is not None

    # ------------------------------------------------------------------
    # ChooseSplitIndex: least overlap, ties by least combined area.
    # ------------------------------------------------------------------
    best_key = None
    best = None
    for k, r1, r2, ordered in best_axis_dists:
        key = (r1.overlap_area(r2), r1.area() + r2.area())
        if best_key is None or key < best_key:
            best_key = key
            best = (k, ordered)
    assert best is not None
    k, ordered = best
    return [e.oid for e in ordered], k


# ----------------------------------------------------------------------
# the join's candidate pairs, Hilbert loading, refinement
# ----------------------------------------------------------------------
def intersecting_pairs(nr, ns) -> list[tuple[int, int]]:
    """The recursion's pair list of one node pair: row-major
    candidates, stable sort on ``max(xmin, xmin)``."""
    pairs = [
        (i, j)
        for i, er in enumerate(nr.entries)
        for j, es in enumerate(ns.entries)
        if er.rect.intersects(es.rect)
    ]
    pairs.sort(
        key=lambda ij: max(
            nr.entries[ij[0]].rect.xmin, ns.entries[ij[1]].rect.xmin
        )
    )
    return pairs


def mbr_join_run(self):
    """``MBRJoin.run`` as the recursion over node pairs, each group's
    entry pairs handed on as the ``(k, 2)`` oid array of a
    ``LeafGroup``."""
    if not self.tree_r.root.entries or not self.tree_s.root.entries:
        return
    self._access(self.tree_r.root)
    self._access(self.tree_s.root)
    for nr, ns, pairs in mbr_join_recursion(self, self.tree_r.root, self.tree_s.root):
        yield nr, ns, np.array(
            [(er.oid, es.oid) for er, es in pairs], dtype=np.int64
        ).reshape(-1, 2)


def mbr_join_recursion(self, nr, ns):
    """``MBRJoin._join``: the synchronized traversal of [BKS93b], one
    node pair per call."""
    if not nr.entries or not ns.entries:
        return
    if not nr.mbr().intersects(ns.mbr()):
        return
    if nr.level == ns.level:
        if nr.is_leaf:
            pairs = [
                (nr.entries[i], ns.entries[j])
                for i, j in intersecting_pairs(nr, ns)
            ]
            if pairs:
                self.candidate_pairs += len(pairs)
                yield nr, ns, pairs
            return
        for i, j in intersecting_pairs(nr, ns):
            child_r = nr.entries[i].child
            child_s = ns.entries[j].child
            assert child_r is not None and child_s is not None
            self._access(child_r)
            self._access(child_s)
            yield from mbr_join_recursion(self, child_r, child_s)
    elif nr.level > ns.level:
        # Descend only the taller tree, window-querying with ns.
        window = ns.mbr()
        for entry in nr.entries:
            if entry.rect.intersects(window):
                assert entry.child is not None
                self._access(entry.child)
                yield from mbr_join_recursion(self, entry.child, ns)
    else:
        window = nr.mbr()
        for entry in ns.entries:
            if entry.rect.intersects(window):
                assert entry.child is not None
                self._access(entry.child)
                yield from mbr_join_recursion(self, nr, entry.child)


def hilbert_sort_key(obj, data_space: float, order: int = 16) -> int:
    """Hilbert index of the object's MBR center on a ``2^order`` grid
    over the square data space."""
    return point_key(*obj.mbr.center(), data_space, order)


def sort_by_hilbert(objects, data_space: float, order: int = 16):
    """``repro.core.hilbert.sort_by_hilbert`` with the per-object key."""
    return sorted(objects, key=lambda o: hilbert_sort_key(o, data_space, order))


def refine(org, candidates, points: bool):
    """``SpatialOrganization._refine`` candidate by candidate: each row
    is looked up as its object, the containment shortcut asks
    ``rect.contains(obj.mbr)`` (``sides`` are never read), every other
    candidate its own predicate."""
    rects, owners, rows, _sides = candidates
    accepted, tests = [], [0] * len(rects)
    for i, oid in enumerate(org.column.oids[rows].tolist()):
        query = 0 if owners is None else int(owners[i])
        rect, obj = rects[query], org.objects[oid]
        if points:
            tests[query] += 1
            accepted.append(obj.contains_point(rect.xmin, rect.ymin))
        elif rect.contains(obj.mbr):
            accepted.append(True)
        else:
            tests[query] += 1
            accepted.append(obj.intersects_rect(rect))
    return np.array(accepted, dtype=bool), tests


def join_refine(org_r, org_s, pairs) -> np.ndarray:
    """``repro.join.multistep._refine``: the exact predicate on every
    candidate pair, one verdict each."""
    return np.array(
        [
            org_r.objects[oid_r].intersects(org_s.objects[oid_s])
            for oid_r, oid_s in pairs.tolist()
        ],
        dtype=bool,
    )


def point_in_polygon(x: float, y: float, vertices) -> bool:
    """Closed point-in-ring test (ray casting with boundary handling),
    the scalar form of ``intersect.points_in_polygon``: ``vertices`` is
    the ring, a closing edge from the last vertex back to the first is
    implied, and points on the boundary are inside."""
    n = len(vertices)
    if n < 3:
        return False
    inside = False
    for i in range(n):
        ax, ay = vertices[i]
        bx, by = vertices[(i + 1) % n]
        # Boundary check: the point lies on the edge a-b.
        if intersect.orientation(ax, ay, bx, by, x, y) == 0 and intersect.on_segment(
            ax, ay, bx, by, x, y
        ):
            return True
        # Ray casting: count crossings of the upward ray.
        if (ay > y) != (by > y):
            x_cross = ax + (y - ay) * (bx - ax) / (by - ay)
            if x < x_cross:
                inside = not inside
    return inside


#: ``(target, attribute, value)`` — the size crossover of
#: :func:`polylines_intersect` (cells), forced so no input reaches it.
#: Forced, a polyline
#: pair tests every segment pair, box pretest first, where
#: :func:`polylines_intersect_pairs` (no crossover) enumerates only the
#: segments inside the other polyline's box.
#: :func:`polyline_intersects_rect` is the scalar loop at every size,
#: and ``polylines_intersect_rects`` has no crossover either; the
#: segments its outcodes leave run the scalar test anyway.
SCALAR_LOOPS = ((intersect, "_VECTOR_MIN_CELLS", sys.maxsize),)

#: ``(target, attribute, reference)`` — everything a test patches to
#: run the entry-at-a-time path end to end.
PATCHES = (
    (RStarTree, "window_leaves", window_leaves),
    (RStarTree, "_reach", reach),
    (RStarTree, "_find_leaf", find_leaf),
    (rstar, "rstar_split", rstar_split),
    (MBRJoin, "run", mbr_join_run),
    (hilbert, "sort_by_hilbert", sort_by_hilbert),
    (SpatialOrganization, "_refine", refine),
    (multistep, "_refine", join_refine),
    *SCALAR_LOOPS,
)


@contextmanager
def _patched(patches):
    with ExitStack() as stack:
        for target, name, value in patches:
            stack.enter_context(mock.patch.object(target, name, value))
        yield


def scalar_loops():
    """While entered, the geometry predicates run their scalar loops
    for every input size."""
    return _patched(SCALAR_LOOPS)


def installed():
    """While entered, every reference of :data:`PATCHES` is in place."""
    return _patched(PATCHES)
