"""Kernel-mode switch and shared vector kernels.

The CPU side of query execution — node filtering, split distributions,
Hilbert keys, join candidate generation and refinement prefilters — has
two implementations:

* the **vectorized** kernels (the default): one numpy operation over a
  node's cached rectangle matrix instead of an entry-at-a-time Python
  loop;
* the **scalar** fallback: the straightforward per-entry code.

Both produce *bit-identical* result sets and orders — every comparison
runs on the same float64 values in an order-preserving way — so the I/O
pricing (the paper's figures) does not depend on the mode.  The scalar
path is the reference the equivalence tests cross-check the vectorized
kernels against.

Select the mode with the ``REPRO_SCALAR_KERNELS`` environment variable
(any non-empty value other than ``0`` picks the scalar path), with
:func:`set_scalar_kernels`, or temporarily with the
:func:`scalar_kernels` context manager.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

import numpy as np

__all__ = [
    "vectorized",
    "set_scalar_kernels",
    "scalar_kernels",
    "window_qvec",
    "qvec_mask",
]

_SCALAR = os.environ.get("REPRO_SCALAR_KERNELS", "0") not in ("", "0")


def vectorized() -> bool:
    """True when the vectorized kernels are active (the default)."""
    return not _SCALAR


def set_scalar_kernels(scalar: bool) -> None:
    """Switch between the scalar fallback and the vectorized kernels."""
    global _SCALAR
    _SCALAR = bool(scalar)


@contextmanager
def scalar_kernels(scalar: bool = True) -> Iterator[None]:
    """Temporarily force the scalar (or vectorized) kernel path."""
    previous = _SCALAR
    set_scalar_kernels(scalar)
    try:
        yield
    finally:
        set_scalar_kernels(previous)


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
# ``(w.xmax, w.ymax, -w.xmin, -w.ymin)`` followed by ``all(axis=1)`` —
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
    return (query_matrix <= qvec).all(axis=1)
