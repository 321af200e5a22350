"""Reference-machine time: a fixed calibration loop brackets every timed
repetition, and wall seconds are scaled by how fast the loop ran.

The shared 2-core box drifts 20-46 % between back-to-back runs of
identical work, so raw seconds cannot carry a 10 % regression bound.
The loop's instruction mix mirrors the program (slotted-object
allocation, dict stores, float multiplies, small numpy masks), so the
drift that slows the program slows the loop by about the same factor.

The loop is frozen: changing it changes the unit of every gated metric.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

__all__ = ["CAL_REF_S", "calibration_loop", "RefTimer"]

CAL_REF_S = 0.07
"""Seconds the calibration loop takes on the reference machine; a
wall-clock interval is reported as ``wall * CAL_REF_S / loop_seconds``."""

_ITERATIONS = 60_000
_KEYS = 1024
_MASK_EVERY = 16


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a = a
        self.b = b


def calibration_loop() -> float:
    """Run the frozen loop once; returns its wall seconds."""
    table: dict[int, _Pair] = {}
    rects = np.arange(64, dtype=np.float64).reshape(16, 4)
    acc = 0.0
    hits = 0
    start = perf_counter()
    for i in range(_ITERATIONS):
        pair = _Pair(i * 0.5, i + 1.0)
        table[i % _KEYS] = pair
        acc += pair.a * pair.b
        if i % _MASK_EVERY == 0:
            hits += int(((rects[:, 0] <= acc) & (rects[:, 2] >= 8.0)).sum())
    elapsed = perf_counter() - start
    if hits < 0 or acc < 0.0:  # keeps the results live
        raise AssertionError("calibration loop produced nonsense")
    return elapsed


class RefTimer:
    """Brackets timed regions with the calibration loop.

    ``factor()`` runs the loop and returns the reference-machine scale
    for the region timed since the previous call: ``CAL_REF_S`` over the
    mean of the loop time before and after the region.
    """

    def __init__(self) -> None:
        self._last = calibration_loop()
        self.loop_seconds: list[float] = [self._last]

    def factor(self) -> float:
        before, self._last = self._last, calibration_loop()
        self.loop_seconds.append(self._last)
        return CAL_REF_S / ((before + self._last) / 2.0)

    def median_loop_s(self) -> float:
        return statistics.median(self.loop_seconds)
