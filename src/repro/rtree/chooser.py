"""Vectorised ChooseSubtree criteria of the R*-tree [BKSS90].

On the level directly above the data pages, the R*-tree picks the entry
whose rectangle needs the *least overlap enlargement* to include the new
rectangle (ties: least area enlargement, then smallest area).  On higher
levels the cheaper *least area enlargement* criterion is used.

The overlap criterion is quadratic in the node fan-out; as proposed by
[BKSS90] we restrict the overlap computation to the ``CANDIDATES`` (32)
entries with the least area enlargement.  All criteria are vectorised
with numpy over the node's cached rectangle matrix.

Most new rectangles already lie inside a data-page MBR, and an entry
that covers the rectangle cannot gain overlap: the overlap sums are
computed only when covering candidates do not decide the answer (the
rule, its proof and its trap: :func:`least_overlap_enlargement`).
"""

from __future__ import annotations

import numpy as np

from repro.geometry.rect import Rect

__all__ = ["least_area_enlargement", "least_overlap_enlargement", "CANDIDATES"]

CANDIDATES = 32
"""Number of least-area-enlargement entries examined by the overlap
criterion, as recommended in [BKSS90] for large fan-out."""


def _areas(rects: np.ndarray) -> np.ndarray:
    return (rects[:, 2] - rects[:, 0]) * (rects[:, 3] - rects[:, 1])


def _unions(rects: np.ndarray, rect: Rect) -> np.ndarray:
    """Union of every row with ``rect``."""
    out = rects.copy()
    np.minimum(out[:, 0], rect.xmin, out=out[:, 0])
    np.minimum(out[:, 1], rect.ymin, out=out[:, 1])
    np.maximum(out[:, 2], rect.xmax, out=out[:, 2])
    np.maximum(out[:, 3], rect.ymax, out=out[:, 3])
    return out


def least_area_enlargement(rects: np.ndarray, rect: Rect) -> int:
    """Index of the entry needing the least area enlargement to include
    ``rect`` (ties resolved by the smallest area)."""
    rects = np.asarray(rects, dtype=np.float64)
    areas = _areas(rects)
    unions = _unions(rects, rect)
    enlargements = _areas(unions) - areas
    best = np.flatnonzero(enlargements == enlargements.min())
    if len(best) == 1:
        return int(best[0])
    return int(best[np.argmin(areas[best])])


def _overlap_sums(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``out[i]`` = sum over j of the overlap area of ``lhs[i]`` with
    ``rhs[j]`` (including j where rows coincide; callers correct for
    self-overlap analytically)."""
    w = np.minimum(lhs[:, None, 2], rhs[None, :, 2]) - np.maximum(
        lhs[:, None, 0], rhs[None, :, 0]
    )
    h = np.minimum(lhs[:, None, 3], rhs[None, :, 3]) - np.maximum(
        lhs[:, None, 1], rhs[None, :, 1]
    )
    np.maximum(w, 0.0, out=w)
    np.maximum(h, 0.0, out=h)
    w *= h
    return w.sum(axis=1)


def least_overlap_enlargement(
    rects: np.ndarray, rect: Rect, candidates: int = CANDIDATES
) -> int:
    """Index of the entry whose inclusion of ``rect`` causes the least
    *overlap* enlargement against its siblings.

    Ties are resolved by least area enlargement, then by smallest area.
    The computation is one-shot vectorised: with ``u_i`` the union of
    entry ``i`` and the new rectangle,

    ``delta_i = sum_j!=i ovl(u_i, r_j) - sum_j!=i ovl(r_i, r_j)``

    and since ``r_i`` is contained in ``u_i`` the self-overlap terms are
    both ``area(r_i)`` and cancel, so the ``j != i`` restriction can be
    dropped.  ``candidates`` bounds the number of least-area-enlargement
    entries examined (the [BKSS90] shortcut for large fan-out).

    **Covering rule.**  A candidate that covers ``rect`` has ``u_i ==
    r_i``, so its ``delta_i`` is the difference of two identical float
    computations: exactly ``0.0``.  No ``delta_j`` and no enlargement is
    negative (``u_j`` contains ``r_j``; min, max, multiply and the
    same-length pairwise sum are monotone in floating point).  So when
    every zero-enlargement candidate covers, the three keys pick the
    smallest of them (ties: first among the candidates, as the stable
    sort does) and no overlap is computed.  *Every*, because zero area
    enlargement is not covering: a zero-width or zero-height MBR
    unioned with a collinear rectangle, or an enlargement that rounds
    away against a large area, is ``0.0`` without containment, and such
    an entry's ``delta`` may be positive *or* zero at a smaller area
    than the covering one's — that mixed case takes the full criterion.
    """
    rects = np.asarray(rects, dtype=np.float64)
    n = len(rects)
    if n == 1:
        return 0
    areas = _areas(rects)
    unions = _unions(rects, rect)
    enlargements = _areas(unions) - areas
    if candidates < n:
        cand = np.argpartition(enlargements, candidates)[:candidates]
    else:
        cand = np.arange(n)

    zero = cand[enlargements[cand] == 0.0]
    if len(zero) and (unions[zero] == rects[zero]).all():
        return int(zero[areas[zero].argmin()])

    # Rows are summed independently: one broadcast, both sums, same bits.
    stacked = np.concatenate((unions[cand], rects[cand]))
    sums = _overlap_sums(stacked, rects).reshape(2, -1)
    delta = sums[0] - sums[1]
    order = np.lexsort((areas[cand], enlargements[cand], delta))
    return int(cand[order[0]])
