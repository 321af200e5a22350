"""Persisted workload traces (JSONL), so runs are replayable.

:func:`save_trace` writes one JSON object per operation of a
:mod:`repro.workload` stream; :func:`load_trace` turns the file back
into the tuples the :class:`~repro.workload.engine.WorkloadEngine`
executes.  The format is line-oriented so traces can be inspected,
filtered and concatenated with ordinary text tools::

    {"op": "window", "rect": [10.0, 10.0, 250.0, 250.0]}
    {"op": "point", "x": 55.0, "y": 70.25}
    {"op": "insert", "oid": 7, "geometry": "polyline",
     "vertices": [[0.0, 0.0], [5.0, 4.0]], "size_bytes": 320}
    {"op": "delete", "oid": 3}
    {"op": "join", "technique": "complete"}

An insert's ``geometry`` is always ``"polyline"``, the one geometry
kind; a record naming any other is refused with a
:class:`~repro.errors.ConfigurationError`.  A ``join`` operation only
records the technique — the partner relation
is live state, not trace data — so replaying a trace that contains one
requires the ``join_with`` argument (the same database/organization
setup the recording run used).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.errors import ConfigurationError
from repro.geometry.feature import SpatialObject
from repro.geometry.polyline import Polyline
from repro.geometry.rect import Rect

__all__ = ["save_trace", "load_trace"]


def _encode(op: tuple) -> dict:
    if not isinstance(op, tuple) or not op:
        raise ConfigurationError(f"malformed workload operation: {op!r}")
    kind = op[0]
    if kind == "window":
        rect = op[1] if isinstance(op[1], Rect) else Rect(*op[1:5])
        return {"op": "window", "rect": list(rect.as_tuple())}
    if kind == "point":
        return {"op": "point", "x": op[1], "y": op[2]}
    if kind == "insert":
        obj = op[1]
        if not isinstance(obj, SpatialObject):
            raise ConfigurationError(
                f"insert operations carry a SpatialObject, got {obj!r}"
            )
        record = {
            "op": "insert",
            "oid": obj.oid,
            "geometry": "polyline",
            "vertices": [list(v) for v in obj.geometry.vertices],
            "size_bytes": obj.size_bytes,
        }
        if obj.mbr_override is not None:
            record["mbr"] = list(obj.mbr_override.as_tuple())
        return record
    if kind == "delete":
        return {"op": "delete", "oid": op[1]}
    if kind == "join":
        technique = op[2] if len(op) > 2 else "complete"
        return {"op": "join", "technique": technique}
    raise ConfigurationError(f"cannot trace unknown operation '{kind}'")


def _decode(record: dict, join_with) -> tuple:
    kind = record.get("op")
    if kind == "window":
        return ("window", Rect(*record["rect"]))
    if kind == "point":
        return ("point", record["x"], record["y"])
    if kind == "insert":
        if record.get("geometry") != "polyline":
            raise ConfigurationError(
                f"unknown geometry '{record.get('geometry')}' in trace"
            )
        mbr = record.get("mbr")
        obj = SpatialObject(
            record["oid"],
            Polyline([tuple(v) for v in record["vertices"]]),
            size_bytes=record["size_bytes"],
            mbr_override=Rect(*mbr) if mbr is not None else None,
        )
        return ("insert", obj)
    if kind == "delete":
        return ("delete", record["oid"])
    if kind == "join":
        if join_with is None:
            raise ConfigurationError(
                "trace contains a join operation; pass join_with= to "
                "rebind it to a partner relation"
            )
        return ("join", join_with, record.get("technique", "complete"))
    raise ConfigurationError(f"unknown operation '{kind}' in trace")


def save_trace(operations: Iterable[tuple], path) -> int:
    """Write a workload stream to ``path`` as JSONL; returns the number
    of operations recorded."""
    count = 0
    lines = []
    for op in operations:
        lines.append(json.dumps(_encode(op), separators=(", ", ": ")))
        count += 1
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
    return count


def load_trace(path, join_with=None) -> list[tuple]:
    """Read a JSONL trace back into an operation stream.

    ``join_with`` rebinds recorded join operations to a live partner
    database/organization; a trace without joins loads without it.
    """
    operations: list[tuple] = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{path}:{lineno}: not valid JSON: {exc}"
            ) from exc
        if not isinstance(record, dict):
            raise ConfigurationError(
                f"{path}:{lineno}: expected a JSON object, got {record!r}"
            )
        operations.append(_decode(record, join_with))
    return operations
