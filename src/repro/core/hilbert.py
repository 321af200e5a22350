"""Hilbert space-filling curve — global *order* for global clustering.

The related work the paper builds on ([HSW88] "Globally Order
Preserving Multidimensional Linear Hashing", [HWZ91] "Global Order
Makes Spatial Access Faster") achieves global clustering through a
linear order on the data space.  This module provides the classic
Hilbert curve index and a sort key for spatial objects, used by the
``order="hilbert"`` bulk-loading extension: inserting objects in
Hilbert order makes consecutive insertions hit neighbouring data pages
and cluster units, which slashes construction I/O and tightens the
resulting R*-tree.

Keys come point by point (:func:`hilbert_index`, :func:`point_key`)
or from the batched :func:`hilbert_indices` / :func:`keys` kernels,
which run the same bit-interleaving recurrence over whole coordinate
arrays — one numpy pass per curve level instead of a Python loop per
point.  Both produce identical integer keys: spatial declustering pins
one extent at a time, Hilbert loading sorts a whole object list.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.feature import SpatialObject

__all__ = [
    "hilbert_index",
    "hilbert_indices",
    "grid_cells",
    "keys",
    "point_key",
    "sort_by_hilbert",
]


def hilbert_index(x: int, y: int, order: int) -> int:
    """Index of the cell ``(x, y)`` on the Hilbert curve of the given
    order (the grid is ``2^order`` cells per side).

    Classic iterative x,y → d conversion with quadrant rotation.
    """
    side = 1 << order
    if not (0 <= x < side and 0 <= y < side):
        raise ConfigurationError(
            f"cell ({x}, {y}) outside the {side}x{side} Hilbert grid"
        )
    rx = ry = 0
    d = 0
    s = side >> 1
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        # rotate the quadrant
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        s >>= 1
    return d


def hilbert_indices(gx: np.ndarray, gy: np.ndarray, order: int) -> np.ndarray:
    """Vectorized :func:`hilbert_index`: the curve positions of many
    grid cells at once.

    Runs the identical x,y → d recurrence with one numpy pass per curve
    level (``order`` passes total), so the result matches the scalar
    function bit for bit on every cell.
    """
    side = 1 << order
    x = np.asarray(gx, dtype=np.int64).copy()
    y = np.asarray(gy, dtype=np.int64).copy()
    if x.size and (
        x.min(initial=0) < 0
        or y.min(initial=0) < 0
        or x.max(initial=0) >= side
        or y.max(initial=0) >= side
    ):
        raise ConfigurationError(
            f"grid cells outside the {side}x{side} Hilbert grid"
        )
    d = np.zeros(x.shape, dtype=np.int64)
    s = side >> 1
    while s > 0:
        rx = ((x & s) > 0).astype(np.int64)
        ry = ((y & s) > 0).astype(np.int64)
        d += (s * s) * ((3 * rx) ^ ry)
        # rotate the quadrant (vectorized form of the scalar branches)
        flip = (ry == 0) & (rx == 1)
        x = np.where(flip, s - 1 - x, x)
        y = np.where(flip, s - 1 - y, y)
        swap = ry == 0
        x, y = np.where(swap, y, x), np.where(swap, x, y)
        s >>= 1
    return d


def grid_cells(
    points: np.ndarray, data_space: float, order: int = 16
) -> tuple[np.ndarray, np.ndarray]:
    """Snap an ``(n, 2)`` array of coordinates to the ``2^order`` grid
    over the square data space, clamping to the boundary cells — the
    batched form of the snap inside :func:`point_key`."""
    if data_space <= 0:
        raise ConfigurationError("data_space must be positive")
    side = 1 << order
    points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    scaled = (points / data_space * side).astype(np.int64)
    gx = np.clip(scaled[:, 0], 0, side - 1)
    gy = np.clip(scaled[:, 1], 0, side - 1)
    return gx, gy


def keys(
    points: np.ndarray, data_space: float, order: int = 16
) -> np.ndarray:
    """Hilbert keys of an ``(n, 2)`` array of points: grid snap plus
    curve index, all vectorized.  ``keys([[x, y]], ...)`` equals
    ``hilbert_index(*snap(x, y), order)`` for every point."""
    gx, gy = grid_cells(points, data_space, order)
    return hilbert_indices(gx, gy, order)


def point_key(x: float, y: float, data_space: float, order: int = 16) -> int:
    """Hilbert key of a single point: the scalar twin of :func:`keys`,
    sharing its grid snap.  Single-point callers (the spatial
    declustering placement pins one extent at a time) use this to stay
    off numpy's per-call overhead."""
    if data_space <= 0:
        raise ConfigurationError("data_space must be positive")
    side = 1 << order
    gx = min(side - 1, max(0, int(x / data_space * side)))
    gy = min(side - 1, max(0, int(y / data_space * side)))
    return hilbert_index(gx, gy, order)


def sort_by_hilbert(
    objects: list[SpatialObject], data_space: float, order: int = 16
) -> list[SpatialObject]:
    """The objects sorted along the Hilbert curve of their MBR centres
    on a ``2^order`` grid over the square data space (a new list).

    All keys come from the batched kernels and the sort is a stable
    argsort, so objects with equal keys keep their input order — the
    order a stable per-object ``sorted`` gives, on which Hilbert-loading
    construction I/O depends.
    """
    if not objects:
        return []
    centers = np.empty((len(objects), 2), dtype=np.float64)
    for i, obj in enumerate(objects):
        centers[i] = obj.mbr.center()
    order_keys = keys(centers, data_space, order)
    return [objects[i] for i in np.argsort(order_keys, kind="stable").tolist()]
