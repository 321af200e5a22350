"""Vectorised ChooseSubtree criteria of the R*-tree [BKSS90].

On the level directly above the data pages, the R*-tree picks the entry
whose rectangle needs the *least overlap enlargement* to include the new
rectangle (ties: least area enlargement, then smallest area).  On higher
levels the cheaper *least area enlargement* criterion is used.

The overlap criterion is quadratic in the node fan-out; as proposed by
[BKSS90] we restrict the overlap computation to the ``CANDIDATES`` (32)
entries with the least area enlargement.

Both criteria read the block a node keeps current
(:mod:`repro.rtree.node`): its query matrix ``(xmin, ymin, -xmax,
-ymax)`` and its areas.  The new rectangle comes in the same form
(:func:`insertion_vector`), so every entry's union with it is one
``np.minimum`` and its enlargement three operations on the union's 1-D
columns (:func:`_enlargements`): one short pass, and nothing re-derived
per call.  Every value they compare equals, bit for bit up to the sign
of a zero, what the rect-matrix form computed (the reference bodies in
``tests/test_rtree_split.py``), so they pick the same entries.

Most new rectangles already lie inside a data-page MBR, and an entry
that covers the rectangle cannot gain overlap (the rule, its proof and
its trap: :func:`least_overlap_enlargement`).  The zero-enlargement
rows come out as a list; most calls have exactly one, and its covering
test is four comparisons of Python floats.  Only what covering leaves
undecided (about 7 % of the calls of a build) ranks the candidates and
computes the overlap sums, and those are untouched: a row's sum is
numpy's pairwise sum over all the siblings, and summing fewer terms (say
only the siblings that meet the union) would group the additions
differently, round differently and so may build a different tree.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.rect import Rect

__all__ = [
    "insertion_vector",
    "least_area_enlargement",
    "least_overlap_enlargement",
    "CANDIDATES",
]

CANDIDATES = 32
"""Number of least-area-enlargement entries examined by the overlap
criterion, as recommended in [BKSS90] for large fan-out."""


def insertion_vector(rect: Rect) -> np.ndarray:
    """``rect`` in the block's query form ``(xmin, ymin, -xmax, -ymax)``
    — built once per insert, compared against every level's block."""
    return np.array((rect.xmin, rect.ymin, -rect.xmax, -rect.ymax))


def _enlargements(query: np.ndarray, areas: np.ndarray, q: np.ndarray):
    """Per entry, its union with the new rectangle in query form and the
    area enlargement.  Over the union's 1-D columns, ``xmin + (-xmax)``
    is exactly ``-(xmax - xmin)``, so the product of the two side sums is
    the union's area bit for bit (up to the sign of a zero, which no
    comparison sees)."""
    unions = np.minimum(query, q)
    columns = unions.T
    return unions, (columns[0] + columns[2]) * (columns[1] + columns[3]) - areas


def least_area_enlargement(query: np.ndarray, areas: np.ndarray, q: np.ndarray) -> int:
    """Index of the entry needing the least area enlargement to include
    the rectangle ``q`` (ties resolved by the smallest area)."""
    return int(np.lexsort((areas, _enlargements(query, areas, q)[1]))[0])


def _overlap_sums(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``out[i]`` = sum over j of the overlap area of ``lhs[i]`` with
    ``rhs[j]``, both in query form (including j where rows coincide;
    callers correct for self-overlap analytically).  A side is
    ``max(-xmax, -xmax') + max(xmin, xmin')``, exactly the negated
    ``min(xmax, xmax') - max(xmin, xmin')``; clamped at zero from above
    and multiplied, the two negations cancel."""
    w = np.maximum(lhs[:, None, 2], rhs[None, :, 2]) + np.maximum(
        lhs[:, None, 0], rhs[None, :, 0]
    )
    h = np.maximum(lhs[:, None, 3], rhs[None, :, 3]) + np.maximum(
        lhs[:, None, 1], rhs[None, :, 1]
    )
    np.minimum(w, 0.0, out=w)
    np.minimum(h, 0.0, out=h)
    w *= h
    return w.sum(axis=1)


def least_overlap_enlargement(
    query: np.ndarray, areas: np.ndarray, q: np.ndarray, candidates: int = CANDIDATES
) -> int:
    """Index of the entry whose inclusion of the rectangle ``q`` causes
    the least *overlap* enlargement against its siblings.

    Ties are resolved by least area enlargement, then by smallest area.
    The computation is one-shot vectorised: with ``u_i`` the union of
    entry ``i`` and the new rectangle,

    ``delta_i = sum_j!=i ovl(u_i, r_j) - sum_j!=i ovl(r_i, r_j)``

    and since ``r_i`` is contained in ``u_i`` the self-overlap terms are
    both ``area(r_i)`` and cancel, so the ``j != i`` restriction can be
    dropped.  ``candidates`` bounds the number of least-area-enlargement
    entries examined (the [BKSS90] shortcut for large fan-out).

    **Covering rule.**  A candidate that covers the new rectangle (its
    query row is ``<= q`` everywhere) has ``u_i == r_i``, so its
    ``delta_i`` is the difference of two identical float computations:
    exactly zero.  No ``delta_j`` and no enlargement is negative
    (``u_j`` contains ``r_j``; min, max, multiply and the same-length
    pairwise sum are monotone in floating point).  So when every
    zero-enlargement candidate covers, the three keys pick the smallest
    of them (ties: first among the candidates, as the stable sort does)
    and no overlap is computed.  *Every*, because zero area enlargement
    is not covering: a zero-width or zero-height MBR unioned with a
    collinear rectangle, or an enlargement that rounds away against a
    large area, is zero without containment, and such an entry's
    ``delta`` may be positive *or* zero at a smaller area than the
    covering one's — that mixed case takes the full criterion.
    """
    n = len(query)
    if n == 1:
        return 0
    unions, enlargements = _enlargements(query, areas, q)
    # With at most ``candidates`` zero enlargements, all of them are
    # candidates (nothing ranks below zero), so the covering rule can
    # be decided before the ranking; only a tie on the smallest area
    # needs the candidates' order.
    zero = (enlargements == 0.0).nonzero()[0].tolist()
    if len(zero) == 1:
        # The common case: one zero row, its covering test on floats.
        x0, y0, x1, y1 = query[zero[0]].tolist()
        qx0, qy0, qx1, qy1 = q.tolist()
        if x0 <= qx0 and y0 <= qy0 and x1 <= qx1 and y1 <= qy1:
            return zero[0]
        covered = False
    else:
        covered = 0 < len(zero) <= candidates and bool((query[zero] <= q).all())
        if covered:
            smallest = areas[zero]
            best = smallest.argmin()
            if n <= candidates or np.count_nonzero(smallest == smallest[best]) == 1:
                return zero[best]

    if candidates < n:
        cand = np.argpartition(enlargements, candidates)[:candidates]
    else:
        cand = np.arange(n)
    if covered:
        ties = cand[enlargements[cand] == 0.0]
        return int(ties[areas[ties].argmin()])
    # Rows are summed independently: one broadcast, both sums, same bits.
    stacked = np.concatenate((unions[cand], query[cand]))
    sums = _overlap_sums(stacked, query).reshape(2, -1)
    delta = sums[0] - sums[1]
    order = np.lexsort((areas[cand], enlargements[cand], delta))
    return int(cand[order[0]])
