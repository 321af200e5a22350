"""Brute-force expected answers, independent of the code under test.

Nothing here goes through ``repro.rtree``, ``repro.storage``/``repro.core``,
``repro.buffer``, ``repro.iosched`` or ``repro.join``: a query is an
all-objects MBR scan (one numpy comparison over this module's own MBR
array) followed by the per-object exact predicate of ``repro.geometry``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Oracle", "join_counts", "mbr_rows", "meeting", "stream_totals"]


def mbr_rows(objects) -> np.ndarray:
    """The objects' MBRs as an ``(n, 4)`` matrix (xmin, ymin, xmax, ymax)."""
    return np.array([obj.mbr.as_tuple() for obj in objects], dtype=np.float64).reshape(-1, 4)


def meeting(mbrs: np.ndarray, xmin, ymin, xmax, ymax) -> np.ndarray:
    """Mask of the rows whose closed rectangle shares a point with the
    closed query rectangle."""
    return (
        (mbrs[:, 0] <= xmax) & (mbrs[:, 2] >= xmin) & (mbrs[:, 1] <= ymax) & (mbrs[:, 3] >= ymin)
    )


class Oracle:
    """The live object set with brute-force window and point queries."""

    def __init__(self, objects, extra=()):
        # ``extra`` objects get a row up front but start dead, so a
        # stream's inserts only flip a flag.
        self._objects = list(objects) + list(extra)
        self._rows = {obj.oid: i for i, obj in enumerate(self._objects)}
        self._mbrs = mbr_rows(self._objects)
        self._live = np.zeros(len(self._objects), dtype=bool)
        self._live[: len(objects)] = True

    def insert(self, obj) -> None:
        self._live[self._rows[obj.oid]] = True

    def delete(self, oid: int) -> None:
        self._live[self._rows[oid]] = False

    def _candidates(self, xmin, ymin, xmax, ymax):
        mask = self._live & meeting(self._mbrs, xmin, ymin, xmax, ymax)
        return [self._objects[i] for i in np.flatnonzero(mask)]

    def window(self, rect) -> frozenset[int]:
        return frozenset(
            obj.oid
            for obj in self._candidates(rect.xmin, rect.ymin, rect.xmax, rect.ymax)
            if obj.intersects_rect(rect)
        )

    def point(self, x: float, y: float) -> frozenset[int]:
        return frozenset(
            obj.oid
            for obj in self._candidates(x, y, x, y)
            if obj.contains_point(x, y)
        )

    def answer(self, op) -> frozenset[int]:
        """Expected oid set of a ``("window", Rect)`` / ``("point", x, y)`` op."""
        if op[0] == "window":
            return self.window(op[1])
        return self.point(op[1], op[2])


def stream_totals(oracle: Oracle, operations) -> dict[str, tuple[int, int]]:
    """Replay an operation stream against the oracle (inserts and
    deletes change the live set as they pass) and return the expected
    ``(operations, results)`` per kind, counted the way the workload
    reports do."""
    totals: dict[str, tuple[int, int]] = {}
    memo: dict[tuple, int] = {}  # pooled queries repeat; valid until a write
    for op in operations:
        kind = op[0]
        if kind in ("window", "point"):
            results = memo.get(op)
            if results is None:
                results = memo[op] = len(oracle.answer(op))
        elif kind == "insert":
            oracle.insert(op[1])
            memo.clear()
            results = 1
        elif kind == "delete":
            oracle.delete(op[1])
            memo.clear()
            results = 1
        else:
            raise ValueError(f"the oracle cannot replay a '{kind}' operation")
        count, total = totals.get(kind, (0, 0))
        totals[kind] = (count + 1, total + results)
    return totals


def join_counts(objects_r, objects_s) -> tuple[int, int]:
    """All-pairs MBR scan plus exact pair test: ``(candidate_pairs,
    result_pairs)`` of the intersection join."""
    s_mbrs = mbr_rows(objects_s)
    candidates = results = 0
    for obj_r in objects_r:
        for i in np.flatnonzero(meeting(s_mbrs, *obj_r.mbr.as_tuple())):
            candidates += 1
            if obj_r.intersects(objects_s[i]):
                results += 1
    return candidates, results
