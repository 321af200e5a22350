"""Aggregated query metrics.

The paper normalises query cost to the amount of data queried, because
the individual queries vary strongly in their accessed volume: the
reported unit is **milliseconds of I/O per 4 KB of retrieved object
data** (Figures 8, 10 and 12).  Aggregation happens over the whole
workload: total I/O time divided by total retrieved volume.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import PAGE_SIZE
from repro.geometry.rect import Rect
from repro.storage.base import QueryResult, SpatialOrganization

__all__ = ["WorkloadAggregate", "run_window_queries", "run_point_queries"]


@dataclass(slots=True)
class WorkloadAggregate:
    """Sums over one query workload."""

    queries: int = 0
    io_ms: float = 0.0
    bytes_retrieved: int = 0
    answers: int = 0
    candidates: int = 0
    exact_tests: int = 0

    @property
    def ms_per_4kb(self) -> float:
        """The paper's normalised metric over the whole workload."""
        units = self.bytes_retrieved / PAGE_SIZE
        if units <= 0:
            return float("inf")
        return self.io_ms / units

    @property
    def answers_per_query(self) -> float:
        return self.answers / self.queries if self.queries else 0.0


def _accumulate(agg: WorkloadAggregate, result: QueryResult) -> None:
    agg.queries += 1
    agg.io_ms += result.io.total_ms
    agg.bytes_retrieved += result.bytes_retrieved
    agg.answers += len(result.objects)
    agg.candidates += result.candidates
    agg.exact_tests += result.exact_tests


def run_window_queries(
    org: SpatialOrganization, windows: list[Rect]
) -> WorkloadAggregate:
    """Execute a window workload and aggregate its costs.

    The workload runs through the organization's batch entry point
    (one tree walk per window, one refinement pass for all windows;
    per-query access plans merged where that is pricing-neutral); the
    per-query results — and therefore every aggregate — are identical
    to looping ``window_query`` under every configuration."""
    agg = WorkloadAggregate()
    for result in org.window_query_batch(windows):
        _accumulate(agg, result)
    return agg


def run_point_queries(
    org: SpatialOrganization, points: list[tuple[float, float]]
) -> WorkloadAggregate:
    """Execute a point workload and aggregate its costs (batched like
    :func:`run_window_queries`)."""
    agg = WorkloadAggregate()
    for result in org.point_query_batch(points):
        _accumulate(agg, result)
    return agg
