"""Batched workload execution over the shared buffer pool.

:class:`~repro.workload.engine.WorkloadEngine` runs mixed operation
streams (window/point queries, inserts, deletes, joins) against one
organization with all page traffic flowing through a single
:class:`~repro.buffer.pool.BufferPool`, and reports per-phase
:class:`~repro.disk.model.DiskStats` plus pool hit rates.
:func:`~repro.workload.streams.mixed_stream` builds deterministic
paper-style streams, and :mod:`repro.workload.trace` persists streams
as replayable JSONL traces.  The high-level entry points are
:meth:`repro.database.SpatialDatabase.run_workload` and — for
interleaved multi-client sessions over the I/O scheduler —
:meth:`repro.database.SpatialDatabase.run_sessions`.
"""

from repro.workload.engine import OP_KINDS, Row, RunReport, WorkloadEngine
from repro.workload.streams import mixed_stream
from repro.workload.trace import load_trace, save_trace
from repro.workload.traffic import (
    ARRIVALS,
    TrafficSession,
    class_of_session,
    make_traffic,
)

__all__ = [
    "OP_KINDS",
    "Row",
    "RunReport",
    "WorkloadEngine",
    "mixed_stream",
    "save_trace",
    "load_trace",
    "ARRIVALS",
    "TrafficSession",
    "class_of_session",
    "make_traffic",
]
