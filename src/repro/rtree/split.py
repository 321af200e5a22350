"""The R*-tree split algorithm [BKSS90].

The split proceeds in two steps:

1. **ChooseSplitAxis** — for each axis, sort the entries by their lower
   and by their upper boundary and generate all legal distributions
   (first group sizes ``m .. n - m``); the axis with the minimum *margin
   sum* over all its distributions wins.
2. **ChooseSplitIndex** — along the winning axis, pick the distribution
   with the least overlap between the two group MBRs; ties are resolved
   by the least combined area.

The same routine performs the *cluster split* of Section 4.2.2: when a
cluster unit outgrows ``Smax``, its data page is "split into exactly two
cluster units and the objects are distributed onto these cluster units
according to the R*-tree split algorithm".

Sort orders, prefix/suffix MBRs, margins, overlaps and areas are numpy
operations over the entries' rectangle matrix, one pass over a stack of
all four sort orders.  The result is
bit-identical to the entry-at-a-time original (kept as the oracle in
``tests/scalar_reference.py``): every arithmetic step runs the same
float64 operations in the same element order, sums and argmins
replicate the sequential tie-breaking exactly, and both sorts are
stable — so both always produce the same two groups in the same order.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TreeError

__all__ = ["rstar_split", "SplitResult"]

SplitResult = tuple[list[int], int]


def _overlaps(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Row-wise overlap area, replicating ``Rect.overlap_area`` (exactly
    0.0 for disjoint or merely touching group MBRs)."""
    w = np.minimum(first[:, 2], second[:, 2]) - np.maximum(first[:, 0], second[:, 0])
    h = np.minimum(first[:, 3], second[:, 3]) - np.maximum(first[:, 1], second[:, 1])
    return np.where((w > 0.0) & (h > 0.0), w * h, 0.0)


def _areas(group: np.ndarray) -> np.ndarray:
    return (group[:, 2] - group[:, 0]) * (group[:, 3] - group[:, 1])


def rstar_split(rects: np.ndarray, min_fill_fraction: float = 0.4) -> SplitResult:
    """Split an overflowing node per [BKSS90].

    Parameters
    ----------
    rects:
        The ``(n, 4)`` float64 matrix of the entry rectangles, ``n >= 2``
        (a node's :meth:`~repro.rtree.node.Node.rect_matrix`).
    min_fill_fraction:
        Fraction of the entries that must land in each group (the
        R*-tree recommends 40 %).

    Returns
    -------
    ``(order, k)``: the entry positions in split order and the size of
    the first group — the groups are ``order[:k]`` and ``order[k:]``,
    both non-empty.  :meth:`~repro.rtree.node.Node.take` hands each
    group its entries and block rows.
    """
    n = len(rects)
    if n < 2:
        raise TreeError(f"cannot split a node with {n} entries")
    m = max(1, min(int(min_fill_fraction * n), n // 2))

    # ------------------------------------------------------------------
    # The four sort orders — x by lower then upper boundary, x by upper
    # then lower, the same for y — as one (4, n) stack.  np.lexsort is
    # stable, so each matches Python's sorted(key=(lower, upper)).
    # ------------------------------------------------------------------
    perms = np.stack([
        np.lexsort((rects[:, 2], rects[:, 0])),
        np.lexsort((rects[:, 0], rects[:, 2])),
        np.lexsort((rects[:, 3], rects[:, 1])),
        np.lexsort((rects[:, 1], rects[:, 3])),
    ])
    # Per order, prefix[i] = MBR of rows [0 .. i] and suffix[i] = MBR of
    # rows [i .. n-1], for all four orders by one minimum-accumulate
    # each way over the rows in query form (xmin, ymin, -xmax, -ymax).
    # Negation and min / max are exact, so the group MBRs carry the bits
    # the per-column accumulates gave (where -0.0 and 0.0 meet, either
    # may win; no comparison below sees the sign of a zero).
    ordered = rects[perms]
    np.negative(ordered[..., 2:], out=ordered[..., 2:])
    prefix = np.minimum.accumulate(ordered, axis=1)
    suffix = np.minimum.accumulate(ordered[:, ::-1], axis=1)[:, ::-1]
    # Distribution i of an order puts m + i entries into the first group.
    firsts = prefix[:, m - 1:n - m]
    seconds = suffix[:, m:n - m + 1]
    np.negative(firsts[..., 2:], out=firsts[..., 2:])
    np.negative(seconds[..., 2:], out=seconds[..., 2:])

    # ------------------------------------------------------------------
    # ChooseSplitAxis: per distribution the two groups' margins (half
    # perimeters, ``width + height`` as Rect.margin computes them); an
    # axis's margin sum runs over its lower order's distributions, then
    # its upper order's, in sequence, exactly like a generator sum.
    # ------------------------------------------------------------------
    margins = (
        (firsts[..., 2] - firsts[..., 0]) + (firsts[..., 3] - firsts[..., 1])
    ) + ((seconds[..., 2] - seconds[..., 0]) + (seconds[..., 3] - seconds[..., 1]))
    axis = 1 if sum(margins[2:].ravel().tolist()) < sum(margins[:2].ravel().tolist()) else 0

    # ------------------------------------------------------------------
    # ChooseSplitIndex: least overlap, ties by least combined area, then
    # by position (lexsort is stable, so the first minimal distribution
    # wins — matching the sequential strict-< scan).
    # ------------------------------------------------------------------
    first = firsts[2 * axis:2 * axis + 2].reshape(-1, 4)
    second = seconds[2 * axis:2 * axis + 2].reshape(-1, 4)
    overlaps = _overlaps(first, second)
    areas = _areas(first) + _areas(second)
    pick = int(np.lexsort((areas, overlaps))[0])
    upper, k = divmod(pick, n - 2 * m + 1)
    return perms[2 * axis + upper].tolist(), m + k
