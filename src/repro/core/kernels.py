"""Shared vector kernels of the query path.

The CPU side of query execution — node filtering, split distributions,
Hilbert keys, join candidate generation and refinement prefilters —
runs as numpy operations over a node's rectangle block instead
of entry-at-a-time Python loops.  Every kernel runs the same float64
comparisons in an order-preserving way, so result sets, orders and
therefore the I/O pricing (the paper's figures) are bit-identical to
the entry-at-a-time bodies they replaced; those bodies live on as the
equivalence oracles in ``tests/scalar_reference.py``.

This module holds the two mask kernels the tree traversals share.
"""

from __future__ import annotations

import numpy as np

__all__ = ["window_qvec", "qvec_mask"]


# ----------------------------------------------------------------------
# shared mask kernels over (n, 4) rectangle matrices
# ----------------------------------------------------------------------
# The query kernels work on a *negated* node matrix with columns
# ``(xmin, ymin, -xmax, -ymax)`` (Node.query_matrix).  Rectangle r
# intersects window w iff
#
#     xmin <= w.xmax  and  ymin <= w.ymax
#     and -xmax <= -w.xmin  and  -ymax <= -w.ymin
#
# i.e. one row-wise ``<=`` against the 4-vector
# ``(w.xmax, w.ymax, -w.xmin, -w.ymin)``, whose four bool bytes per row,
# read as one uint32, are all true exactly when it equals 0x01010101 —
# two numpy calls per node instead of seven.  Negation is exact in
# IEEE-754, so every comparison matches Rect.intersects /
# Rect.contains_point bit for bit.


def window_qvec(window) -> np.ndarray:
    """The window's comparison vector for the negated node matrix —
    computed once per query, reused for every visited node."""
    return np.array(
        (window.xmax, window.ymax, -window.xmin, -window.ymin),
        dtype=np.float64,
    )


def qvec_mask(query_matrix: np.ndarray, qvec: np.ndarray) -> np.ndarray:
    """Row mask of a node's negated matrix against a query vector."""
    return (query_matrix <= qvec).view(np.uint32).ravel() == _ALL_FOUR


#: Four true bool bytes read as one uint32 (the byte order does not matter).
_ALL_FOUR = 0x01010101
