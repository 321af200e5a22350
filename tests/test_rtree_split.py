"""Tests for R*-tree split, chooser criteria, capacity policies."""

from __future__ import annotations

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, TreeError
from repro.geometry.rect import Rect
from repro.rtree.capacity import ByteCapacity, CountCapacity, CountOrByteCapacity
from repro.rtree.chooser import (
    CANDIDATES,
    insertion_vector,
    least_area_enlargement,
    least_overlap_enlargement,
)
from repro.rtree.entry import Entry
from repro.rtree.node import Node
from repro.rtree.split import rstar_split
from tests import scalar_reference as reference


def entries_from(rects: list[Rect]) -> list[Entry]:
    return [Entry(r, oid=i) for i, r in enumerate(rects)]


def split_groups(entries: list[Entry], min_fill_fraction: float = 0.4, split=rstar_split):
    """``split``'s two groups of ``entries``, read off its ``(order, k)``."""
    rects = np.array([e.rect.as_tuple() for e in entries], dtype=np.float64)
    order, k = split(rects.reshape(len(entries), 4), min_fill_fraction)
    return [entries[i] for i in order[:k]], [entries[i] for i in order[k:]]


def node_of(rects) -> Node:
    """A directory node with one entry per ``(xmin, ymin, xmax, ymax)``
    row: its block is what ChooseSubtree reads."""
    rows = np.asarray(rects, dtype=np.float64).reshape(-1, 4).tolist()
    return Node(0, 1, [Entry(Rect(*row)) for row in rows])


def overlap_choice(rects, new: Rect, candidates: int = CANDIDATES) -> int:
    node = node_of(rects)
    return least_overlap_enlargement(
        node.query_matrix(), node.areas(), insertion_vector(new), candidates
    )


def area_choice(rects, new: Rect) -> int:
    node = node_of(rects)
    return least_area_enlargement(node.query_matrix(), node.areas(), insertion_vector(new))


class TestSplit:
    def test_preserves_entries(self):
        entries = entries_from([Rect(i, 0, i + 1, 1) for i in range(10)])
        g1, g2 = split_groups(entries)
        assert sorted(e.oid for e in g1 + g2) == list(range(10))
        assert g1 and g2

    def test_min_fill_respected(self):
        entries = entries_from([Rect(i, 0, i + 1, 1) for i in range(100)])
        g1, g2 = split_groups(entries, min_fill_fraction=0.4)
        assert min(len(g1), len(g2)) >= 40

    def test_two_entries(self):
        entries = entries_from([Rect(0, 0, 1, 1), Rect(5, 5, 6, 6)])
        g1, g2 = split_groups(entries)
        assert len(g1) == len(g2) == 1

    def test_single_entry_rejected(self):
        with pytest.raises(TreeError):
            split_groups(entries_from([Rect(0, 0, 1, 1)]))

    def test_separates_two_clusters(self):
        left = [Rect(i, 0, i + 0.5, 1) for i in np.linspace(0, 5, 10)]
        right = [Rect(i, 0, i + 0.5, 1) for i in np.linspace(100, 105, 10)]
        entries = entries_from(left + right)
        g1, g2 = split_groups(entries)
        xs1 = {e.rect.xmin for e in g1}
        xs2 = {e.rect.xmin for e in g2}
        assert max(xs1) < 50 < min(xs2) or max(xs2) < 50 < min(xs1)

    def test_chooses_better_axis(self):
        # Entries separated along y: the split must use the y axis.
        bottom = [Rect(i, 0, i + 1, 1) for i in range(10)]
        top = [Rect(i, 100, i + 1, 101) for i in range(10)]
        g1, g2 = split_groups(entries_from(bottom + top))
        r1 = reduce(Rect.union, (e.rect for e in g1))
        r2 = reduce(Rect.union, (e.rect for e in g2))
        assert r1.overlap_area(r2) == 0.0

    def test_identical_rects(self):
        entries = entries_from([Rect(0, 0, 1, 1)] * 8)
        g1, g2 = split_groups(entries)
        assert len(g1) + len(g2) == 8

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0, 100, allow_nan=False),
                st.floats(0, 100, allow_nan=False),
                st.floats(0, 10, allow_nan=False),
                st.floats(0, 10, allow_nan=False),
            ),
            min_size=2,
            max_size=60,
        )
    )
    def test_partition_property(self, raw):
        entries = entries_from([Rect(x, y, x + w, y + h) for x, y, w, h in raw])
        g1, g2 = split_groups(entries)
        assert len(g1) + len(g2) == len(entries)
        assert {id(e) for e in g1}.isdisjoint({id(e) for e in g2})
        assert {id(e) for e in g1} | {id(e) for e in g2} == {id(e) for e in entries}


class TestChooser:
    def matrix(self, rects: list[Rect]) -> np.ndarray:
        return np.array([r.as_tuple() for r in rects])

    def test_area_picks_containing(self):
        rects = [Rect(0, 0, 10, 10), Rect(20, 20, 21, 21)]
        idx = area_choice(self.matrix(rects), Rect(1, 1, 2, 2))
        assert idx == 0

    def test_area_tie_breaks_by_area(self):
        # Both need zero enlargement; the smaller one wins.
        rects = [Rect(0, 0, 10, 10), Rect(0, 0, 5, 5)]
        idx = area_choice(self.matrix(rects), Rect(1, 1, 2, 2))
        assert idx == 1

    def test_overlap_avoids_creating_overlap(self):
        # Candidate 0 would have to grow across candidate 1's region;
        # candidate 2 can take the rect with no new overlap.
        rects = [Rect(0, 0, 4, 4), Rect(4, 0, 8, 4), Rect(8, 0, 12, 4)]
        new = Rect(8.5, 1, 9, 2)
        idx = overlap_choice(self.matrix(rects), new)
        assert idx == 2

    def test_overlap_single_entry(self):
        assert overlap_choice(self.matrix([Rect(0, 0, 1, 1)]), Rect(2, 2, 3, 3)) == 0

    def test_candidate_cap_still_valid(self):
        rects = [Rect(i, 0, i + 1, 1) for i in range(50)]
        idx = overlap_choice(self.matrix(rects), Rect(25.2, 0.2, 25.4, 0.4), candidates=4)
        assert rects[idx].contains(Rect(25.2, 0.2, 25.4, 0.4))

    @given(
        st.lists(
            st.tuples(st.floats(0, 50, allow_nan=False), st.floats(0, 50, allow_nan=False)),
            min_size=1,
            max_size=40,
        ),
        st.tuples(st.floats(0, 50, allow_nan=False), st.floats(0, 50, allow_nan=False)),
    )
    def test_chooser_returns_valid_index(self, origins, new_origin):
        rects = [Rect(x, y, x + 5, y + 5) for x, y in origins]
        new = Rect(new_origin[0], new_origin[1], new_origin[0] + 1, new_origin[1] + 1)
        m = self.matrix(rects)
        assert 0 <= area_choice(m, new) < len(rects)
        assert 0 <= overlap_choice(m, new) < len(rects)


# ----------------------------------------------------------------------
# The ChooseSubtree criteria as they stood before the covering shortcut
# (PR 23's ``rtree/chooser.py``, bodies verbatim): the oracle of
# TestChooserEqualsReference here and of tests/test_rstar.py's
# same-trees test.  Nothing under src/ can select them.
# ----------------------------------------------------------------------
def _ref_areas(rects: np.ndarray) -> np.ndarray:
    return (rects[:, 2] - rects[:, 0]) * (rects[:, 3] - rects[:, 1])


def _ref_unions(rects: np.ndarray, rect: Rect) -> np.ndarray:
    out = rects.copy()
    np.minimum(out[:, 0], rect.xmin, out=out[:, 0])
    np.minimum(out[:, 1], rect.ymin, out=out[:, 1])
    np.maximum(out[:, 2], rect.xmax, out=out[:, 2])
    np.maximum(out[:, 3], rect.ymax, out=out[:, 3])
    return out


def _ref_overlap_sums(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    w = np.minimum(lhs[:, None, 2], rhs[None, :, 2]) - np.maximum(
        lhs[:, None, 0], rhs[None, :, 0]
    )
    h = np.minimum(lhs[:, None, 3], rhs[None, :, 3]) - np.maximum(
        lhs[:, None, 1], rhs[None, :, 1]
    )
    np.clip(w, 0.0, None, out=w)
    np.clip(h, 0.0, None, out=h)
    return (w * h).sum(axis=1)


def reference_least_area_enlargement(rects: np.ndarray, rect: Rect) -> int:
    rects = np.asarray(rects, dtype=np.float64)
    areas = _ref_areas(rects)
    unions = _ref_unions(rects, rect)
    enlargements = _ref_areas(unions) - areas
    best = np.flatnonzero(enlargements == enlargements.min())
    if len(best) == 1:
        return int(best[0])
    return int(best[np.argmin(areas[best])])


def reference_least_overlap_enlargement(
    rects: np.ndarray, rect: Rect, candidates: int = CANDIDATES
) -> int:
    rects = np.asarray(rects, dtype=np.float64)
    n = len(rects)
    if n == 1:
        return 0
    areas = _ref_areas(rects)
    unions = _ref_unions(rects, rect)
    enlargements = _ref_areas(unions) - areas
    if candidates < n:
        cand = np.argpartition(enlargements, candidates)[:candidates]
    else:
        cand = np.arange(n)

    delta = _ref_overlap_sums(unions[cand], rects) - _ref_overlap_sums(
        rects[cand], rects
    )
    order = np.lexsort((areas[cand], enlargements[cand], delta))
    return int(cand[order[0]])


def on_block(reference):
    """``reference`` — a criterion over an ``(n, 4)`` rect matrix and a
    ``Rect`` — called the way the tree calls the shipped criteria: with
    a node's query block, its areas and the new rectangle's insertion
    vector (negation is lossless both ways)."""

    def criterion(query: np.ndarray, areas: np.ndarray, q: np.ndarray, *args) -> int:
        rects = query.copy()
        np.negative(rects[:, 2:], out=rects[:, 2:])
        return reference(rects, Rect(q[0], q[1], -q[2], -q[3]), *args)

    return criterion


# A small grid, so nesting, duplicates, shared edges, zero-width and
# zero-height rectangles and exact ties are common; 0.1 / 0.3 / 0.7
# round, and 1e7 beside 1e-7 puts huge rectangles next to tiny ones.
_GRID = st.sampled_from(
    [0.0, 1e-7, 0.1, 0.3, 0.7, 1.0, 2.0, 3.0, 4.5, 6.0, 8.0, 1e7, 1e7 + 1.0]
)


@st.composite
def grid_rects(draw) -> Rect:
    x = sorted((draw(_GRID), draw(_GRID)))
    y = sorted((draw(_GRID), draw(_GRID)))
    return Rect(x[0], y[0], x[1], y[1])


@st.composite
def chooser_cases(draw) -> tuple[np.ndarray, Rect]:
    """``(matrix, new)``: ``new`` is a grid rectangle (inside several,
    one or none of the rows, degenerate or not) or shrunk into one row
    by exact halving (inside that row and whatever contains it)."""
    rects = draw(st.lists(grid_rects(), min_size=1, max_size=120))
    if draw(st.booleans()):
        new = draw(grid_rects())
    else:
        host = rects[draw(st.integers(0, len(rects) - 1))]
        cx, cy = host.center()
        new = draw(
            st.sampled_from(
                [
                    host,
                    Rect(host.xmin, host.ymin, cx, cy),
                    Rect(cx, cy, host.xmax, host.ymax),
                    Rect(cx, cy, cx, cy),
                    Rect(host.xmin, cy, host.xmax, cy),
                ]
            )
        )
    return np.array([r.as_tuple() for r in rects]), new


class TestChooserEqualsReference:
    """The covering shortcut, the single stacked ``_overlap_sums``, the
    clamp without ``np.clip`` and reading the node's block (query form,
    kept areas) change no answer: index for index the criteria equal
    the bodies they replaced."""

    def matrix(self, rows) -> np.ndarray:
        return np.array(rows, dtype=np.float64)

    @settings(max_examples=300, deadline=None)
    @given(chooser_cases(), st.sampled_from([4, 32]))
    def test_overlap_criterion(self, case, candidates):
        rects, new = case
        assert overlap_choice(
            rects, new, candidates
        ) == reference_least_overlap_enlargement(rects, new, candidates)

    @settings(max_examples=150, deadline=None)
    @given(chooser_cases())
    def test_area_criterion(self, case):
        rects, new = case
        assert area_choice(rects, new) == reference_least_area_enlargement(
            rects, new
        )

    def test_default_candidates_is_the_reference_default(self):
        rng = np.random.default_rng(24)
        lo = rng.uniform(0, 90, size=(200, 2))
        rects = np.hstack((lo, lo + rng.uniform(0, 10, size=(200, 2))))
        for x, y in rng.uniform(0, 95, size=(50, 2)):
            new = Rect(x, y, x + 1, y + 1)
            assert overlap_choice(
                rects, new
            ) == reference_least_overlap_enlargement(rects, new)

    def test_zero_enlargement_by_rounding_is_not_covering(self):
        # Row 0 needs "no" area enlargement only because one ulp of
        # width rounds away against its area; it does not cover the new
        # rectangle, its overlap with rows 1 and 2 grows, and although
        # it is smaller than the covering row 3, row 3 wins.
        top = float(np.nextafter(100.0, np.inf))
        rects = self.matrix(
            [
                (0.0, 0.0, 100.0, 1.43),
                (98.81, 1.0, 104.5, 2.33),
                (98.22, 0.44, 102.87, 1.36),
                (-1.0, -1.0, 200.0, 1.43 + 1),
            ]
        )
        new = Rect(99.0, 0.23, top, 1.05)
        enlargements = _ref_areas(_ref_unions(rects, new)) - _ref_areas(rects)
        assert enlargements[0] == 0.0 == enlargements[3]
        assert not Rect(*rects[0]).contains(new) and Rect(*rects[3]).contains(new)
        assert _ref_areas(rects)[0] < _ref_areas(rects)[3]
        assert reference_least_overlap_enlargement(rects, new) == 3
        assert overlap_choice(rects, new) == 3

    def test_collinear_degenerate_entry_wins_without_covering(self):
        # Row 0 has zero height and the new rectangle lies on its line:
        # the union has area 0 too, so enlargement and overlap
        # enlargement are 0.0 without containment — and area 0 beats
        # the covering row 1 in the reference, hence here.
        rects = self.matrix([(0, 5, 4, 5), (5, 4, 9, 6), (20, 20, 21, 21)])
        new = Rect(6, 5, 8, 5)
        assert not Rect(*rects[0]).contains(new) and Rect(*rects[1]).contains(new)
        assert reference_least_overlap_enlargement(rects, new) == 0
        assert overlap_choice(rects, new) == 0

    # One case per exit of the covering rule: the premise is asserted on
    # the reference's own enlargements, the answer is the reference's.
    def zeros(self, rects: np.ndarray, new: Rect) -> np.ndarray:
        enlargements = _ref_areas(_ref_unions(rects, new)) - _ref_areas(rects)
        return np.flatnonzero(enlargements == 0.0)

    def test_lone_zero_row_that_does_not_cover_takes_the_full_criterion(self):
        # Row 1 is the only zero enlargement: the new rectangle passes
        # its right edge by one ulp of 1e9, which rounds away against
        # its area.  The scalar covering test refuses it, and the full
        # criterion picks row 0, whose growth adds less overlap.
        far, far1, far2 = _FAR
        rects = self.matrix(
            [(3.0, 1e-7, far1, 1.0), (1.0, 1e-7, far1, 1e7 + 1.0), (far1, 4.5, far2, 1e7)]
        )
        new = Rect(2.0, 0.1, far2, 1.0)
        assert list(self.zeros(rects, new)) == [1]
        assert not Rect(*rects[1]).contains(new)
        assert reference_least_overlap_enlargement(rects, new) == 0
        assert overlap_choice(rects, new) == 0

    def test_covering_area_tie_past_the_candidates_is_ranked(self):
        # n > candidates and three covering rows share the smallest
        # area: the winner is the first of them among the candidates,
        # in the order the partition ranks them (with 4 candidates, not
        # the first by index).
        rows = [(50 + 2 * i, 50, 51 + 2 * i, 51) for i in range(53)]
        rows[10], rows[14], rows[32] = (0, 0, 4, 4), (1, 1, 5, 5), (0.5, 0.5, 4.5, 4.5)
        rects, new = self.matrix(rows), Rect(2, 2, 3, 3)
        assert list(self.zeros(rects, new)) == [10, 14, 32]
        for candidates in (4, 32):
            assert overlap_choice(rects, new, candidates) == (
                reference_least_overlap_enlargement(rects, new, candidates)
            )

    def test_more_zero_rows_than_candidates_take_the_full_criterion(self):
        # 33 nested rows all cover the new rectangle, the smallest last:
        # more zero enlargements than candidates, so the smallest may
        # not even be a candidate, and the overlap sums rank the
        # partition's pick.
        rects = self.matrix(
            [(-k, -k, 10 + k, 10 + k) for k in range(32, 0, -1)] + [(0, 0, 10, 10)]
        )
        new = Rect(4, 4, 6, 6)
        assert len(self.zeros(rects, new)) == len(rects) > CANDIDATES
        for candidates in (4, 32):
            assert overlap_choice(rects, new, candidates) == (
                reference_least_overlap_enlargement(rects, new, candidates)
            )

    def test_one_row(self):
        rects = self.matrix([(0, 0, 1, 1)])
        for new in (Rect(2, 2, 3, 3), Rect(0.2, 0.2, 0.4, 0.4)):
            assert overlap_choice(rects, new) == 0
            assert overlap_choice(rects, new, 4) == 0
            assert area_choice(rects, new) == 0

    @pytest.mark.parametrize("candidates", [2, 4, 32])
    def test_equal_area_covering_duplicates_first_candidate_wins(self, candidates):
        rects = self.matrix(
            [(9, 9, 12, 12), (0, 0, 4, 4), (0, 0, 4, 4), (0, 0, 8, 8), (0, 0, 4, 4)]
        )
        new = Rect(1, 1, 2, 2)
        expected = reference_least_overlap_enlargement(rects, new, candidates)
        assert overlap_choice(rects, new, candidates) == expected
        if candidates >= len(rects):
            assert expected == 1


#: Coordinates of the twin's matrices: a coarse grid (zero widths and
#: heights, shared edges, duplicates), three adjacent floats at 1e9 and
#: -1e9, so a band from -1e9 to 1e9 gains less than half an ulp of area
#: when its edge moves by one ulp of 1e9.
_FAR = [1e9 + k * float(np.spacing(1e9)) for k in range(3)]
_TWIN_GRID = st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0, -1e9, *_FAR])


@st.composite
def twin_rects(draw) -> Rect:
    x = sorted((draw(_TWIN_GRID), draw(_TWIN_GRID)))
    y = sorted((draw(_GRID), draw(_GRID)))
    return Rect(x[0], y[0], x[1], y[1])


class TestBlockCriteriaTwin:
    """Both criteria read a block written row by row by ``Node.add``,
    and answer what the rect-matrix references answer on the matrix
    itself, on up to 90 rows — a full page (``PAGE_CAPACITY``, 89) and
    its transient overflow row, past the 32 candidates — where zero
    widths and heights, shared edges, duplicates and enlargements that
    round away are common."""

    @staticmethod
    def added(rects: list[Rect]) -> Node:
        node = Node(0, 1)
        for rect in rects:
            node.add(Entry(rect))
        return node

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(twin_rects(), min_size=1, max_size=90),
        st.one_of(twin_rects(), st.integers(0, 89)),
        st.sampled_from([4, 32]),
    )
    def test_block_criteria_equal_the_references(self, rects, new, candidates):
        if isinstance(new, int):  # a row of the matrix itself: covered at least once
            new = rects[new % len(rects)]
        node = self.added(rects)
        matrix = np.array([r.as_tuple() for r in rects])
        q = insertion_vector(new)
        assert least_overlap_enlargement(
            node.query_matrix(), node.areas(), q, candidates
        ) == reference_least_overlap_enlargement(matrix, new, candidates)
        assert least_area_enlargement(
            node.query_matrix(), node.areas(), q
        ) == reference_least_area_enlargement(matrix, new)


#: Coordinates of the split twin: a coarse grid (zero widths and
#: heights, shared edges) and the edges of the data type's useful range,
#: beside arbitrary floats in it.
_SPLIT_COORD = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0, -1e9, 1e9, *_FAR]),
    st.floats(-1e9, 1e9, allow_nan=False),
)


@st.composite
def split_matrices(draw) -> np.ndarray:
    """2 to 90 rectangles, a share of them repeats of earlier ones."""
    rows = []
    for _ in range(draw(st.integers(2, 90))):
        if rows and draw(st.integers(0, 3)) == 0:
            rows.append(rows[draw(st.integers(0, len(rows) - 1))])
            continue
        x = sorted((draw(_SPLIT_COORD), draw(_SPLIT_COORD)))
        y = sorted((draw(_SPLIT_COORD), draw(_SPLIT_COORD)))
        rows.append((x[0], y[0], x[1], y[1]))
    return np.array(rows, dtype=np.float64)


class TestSplitTwin:
    """The one-pass split over the stack of all four sort orders picks
    the ``(order, k)`` of the sorted-list original
    (``tests/scalar_reference.py``) on matrices full of ties: duplicate
    rectangles, zero widths and heights, shared edges, coordinates at
    +-1e9, every legal minimum fill."""

    @settings(deadline=None)
    @given(split_matrices(), st.floats(0.1, 0.5))
    def test_split_equals_the_reference(self, rects, min_fill_fraction):
        assert rstar_split(rects, min_fill_fraction) == reference.rstar_split(
            rects, min_fill_fraction
        )


class TestCapacityPolicies:
    def leaf_with(self, loads: list[int]) -> Node:
        node = Node(0, 0)
        for i, load in enumerate(loads):
            node.add(Entry(Rect(i, 0, i + 1, 1), oid=i, load=load))
        return node

    def test_count_capacity(self):
        policy = CountCapacity(3)
        assert not policy.is_overflow(self.leaf_with([1, 1, 1]))
        assert policy.is_overflow(self.leaf_with([1, 1, 1, 1]))

    def test_count_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            CountCapacity(1)

    def test_byte_capacity(self):
        policy = ByteCapacity(100)
        assert not policy.is_overflow(self.leaf_with([60, 40]))
        assert policy.is_overflow(self.leaf_with([60, 41]))

    def test_byte_capacity_single_entry_never_overflows(self):
        policy = ByteCapacity(100)
        assert not policy.is_overflow(self.leaf_with([5000]))

    def test_byte_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            ByteCapacity(0)

    def test_count_or_byte(self):
        policy = CountOrByteCapacity(3, 100)
        assert policy.is_overflow(self.leaf_with([1, 1, 1, 1]))  # count
        assert policy.is_overflow(self.leaf_with([80, 30]))  # bytes
        assert not policy.is_overflow(self.leaf_with([50, 30]))

    def test_count_or_byte_validation(self):
        with pytest.raises(ConfigurationError):
            CountOrByteCapacity(1, 100)
        with pytest.raises(ConfigurationError):
            CountOrByteCapacity(3, 0)


class TestNode:
    def test_add_sets_parent(self):
        parent = Node(0, 1)
        child = Node(1, 0)
        parent.add(Entry(Rect(0, 0, 1, 1), child=child))
        assert child.parent is parent

    def test_entry_index_and_lookup(self):
        parent = Node(0, 1)
        children = [Node(i + 1, 0) for i in range(3)]
        for i, c in enumerate(children):
            parent.add(Entry(Rect(i, 0, i + 1, 1), child=c))
        assert parent.entry_index(children[1]) == 1
        assert parent.entry_for_child(children[2]).child is children[2]

    def test_entry_index_missing_raises(self):
        with pytest.raises(KeyError):
            Node(0, 1).entry_index(Node(1, 0))

    def test_mbr_and_load(self):
        node = Node(0, 0)
        node.add(Entry(Rect(0, 0, 1, 1), oid=1, load=10))
        node.add(Entry(Rect(5, 5, 6, 6), oid=2, load=20))
        assert node.mbr() == Rect(0, 0, 6, 6)
        assert node.load() == 30

    def test_rect_matrix_caches_and_patches(self):
        node = Node(0, 0)
        node.add(Entry(Rect(0, 0, 1, 1), oid=1))
        m1 = node.rect_matrix()
        assert m1.shape == (1, 4)
        node.patch_rect(0, Rect(2, 2, 3, 3))
        assert list(node.rect_matrix()[0]) == [2, 2, 3, 3]

    def test_rect_matrix_rebuild_after_append(self):
        node = Node(0, 0)
        node.add(Entry(Rect(0, 0, 1, 1), oid=1))
        node.rect_matrix()
        node.add(Entry(Rect(9, 9, 10, 10), oid=2))
        assert node.rect_matrix().shape == (2, 4)

    def test_walk_preorder(self):
        root = Node(0, 1)
        a, b = Node(1, 0), Node(2, 0)
        root.add(Entry(Rect(0, 0, 1, 1), child=a))
        root.add(Entry(Rect(1, 1, 2, 2), child=b))
        assert [n.node_id for n in root.walk()] == [0, 1, 2]
