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
operations over the entries' rectangle matrix.  The result is
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


def _group_mbrs(
    rects: np.ndarray, perm: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per legal distribution of one sort order, the MBRs of the two
    groups as ``(d, 4)`` matrices (``d = n - 2m + 1`` distributions;
    distribution ``i`` puts ``m + i`` entries into the first group)."""
    ordered = rects[perm]
    # prefix[i] = MBR of rows [0 .. i], suffix[i] = MBR of rows [i .. n-1]
    prefix = np.empty_like(ordered)
    np.minimum.accumulate(ordered[:, 0], out=prefix[:, 0])
    np.minimum.accumulate(ordered[:, 1], out=prefix[:, 1])
    np.maximum.accumulate(ordered[:, 2], out=prefix[:, 2])
    np.maximum.accumulate(ordered[:, 3], out=prefix[:, 3])
    reverse = ordered[::-1]
    suffix = np.empty_like(ordered)
    np.minimum.accumulate(reverse[:, 0], out=suffix[:, 0])
    np.minimum.accumulate(reverse[:, 1], out=suffix[:, 1])
    np.maximum.accumulate(reverse[:, 2], out=suffix[:, 2])
    np.maximum.accumulate(reverse[:, 3], out=suffix[:, 3])
    suffix = suffix[::-1]
    n = len(rects)
    ks = np.arange(m, n - m + 1)
    return prefix[ks - 1], suffix[ks]


def _margins(group: np.ndarray) -> np.ndarray:
    """Row-wise margin (half perimeter), ``width + height`` exactly as
    :meth:`repro.geometry.rect.Rect.margin` computes it."""
    return (group[:, 2] - group[:, 0]) + (group[:, 3] - group[:, 1])


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
    # ChooseSplitAxis.  np.lexsort is stable, so the permutations match
    # Python's sorted(key=(lower, upper)); the margin sum runs over the
    # per-distribution values sequentially (lower order first), exactly
    # like a generator sum over the distributions.
    # ------------------------------------------------------------------
    best = None  # (margin_sum, perms, groups)
    for lo, hi in ((0, 2), (1, 3)):  # x axis, y axis
        perm_lower = np.lexsort((rects[:, hi], rects[:, lo]))
        perm_upper = np.lexsort((rects[:, lo], rects[:, hi]))
        f1, s1 = _group_mbrs(rects, perm_lower, m)
        f2, s2 = _group_mbrs(rects, perm_upper, m)
        margin_values = np.concatenate(
            [_margins(f1) + _margins(s1), _margins(f2) + _margins(s2)]
        )
        margin_sum = sum(margin_values.tolist())
        if best is None or margin_sum < best[0]:
            best = (margin_sum, (perm_lower, perm_upper), (f1, s1, f2, s2))

    assert best is not None
    (perm_lower, perm_upper) = best[1]
    f1, s1, f2, s2 = best[2]

    # ------------------------------------------------------------------
    # ChooseSplitIndex: least overlap, ties by least combined area, then
    # by position (lexsort is stable, so the first minimal distribution
    # wins — matching the sequential strict-< scan).
    # ------------------------------------------------------------------
    first = np.concatenate([f1, f2])
    second = np.concatenate([s1, s2])
    overlaps = _overlaps(first, second)
    areas = _areas(first) + _areas(second)
    pick = int(np.lexsort((areas, overlaps))[0])
    per_order = len(f1)
    if pick < per_order:
        perm, k = perm_lower, m + pick
    else:
        perm, k = perm_upper, m + pick - per_order
    return perm.tolist(), k
