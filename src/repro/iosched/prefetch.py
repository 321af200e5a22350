"""Prefetch policies fed by the coalescing scheduler's runs.

After the pool executes a (non-prefetch) access plan, it asks its
:class:`Prefetcher` which page runs to read ahead.  Suggestions are
filtered against residency — only missing pages are transferred — and
loaded with a dedicated *non-blocking* plan: under the
:class:`~repro.iosched.scheduler.OverlapScheduler` the prefetch only
occupies device time (the client does not wait), so a later plan that
needs the pages finds them resident at no response cost; under the
default ``sync`` scheduler the prefetch is synchronous and simply
prices its transfer.

Two policies:

* ``sequential`` — read the ``depth`` pages following the last
  transferred run (classic read-ahead: the workload's window queries
  walk neighbouring cluster units under global clustering);
* ``cluster`` — cluster-unit-aware: a plan that carries its unit's
  extent prefetches the *rest of that unit* (a later query touching
  the same data page needs exactly those pages), and falls back to
  sequential read-ahead otherwise.

Prefetching needs frames to put pages into: on a pass-through pool
(capacity 0) the pool skips it entirely.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.errors import ConfigurationError
from repro.iosched.request import AccessPlan

__all__ = [
    "Prefetcher",
    "SequentialPrefetcher",
    "ClusterPrefetcher",
    "PREFETCHERS",
    "make_prefetcher",
]


@runtime_checkable
class Prefetcher(Protocol):
    """Suggests page runs to read ahead after an executed plan."""

    name: str

    def suggest(self, plan: AccessPlan) -> list[tuple[int, int]]:
        """``(start, npages)`` runs worth loading; the pool intersects
        them with the missing pages before transferring anything."""
        ...


class SequentialPrefetcher:
    """Read-ahead: the ``depth`` pages after the last transferred run."""

    name = "sequential"

    def __init__(self, depth: int = 8):
        if depth < 1:
            raise ConfigurationError(f"prefetch depth must be >= 1, got {depth}")
        self.depth = depth

    def suggest(self, plan: AccessPlan) -> list[tuple[int, int]]:
        run = plan.last_run()
        if run is None:
            return []
        start, npages = run
        return [(start + npages, self.depth)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(depth={self.depth})"


class ClusterPrefetcher(SequentialPrefetcher):
    """Cluster-unit-aware read-ahead: complete the unit the plan read
    from; sequential read-ahead for plans without an extent."""

    name = "cluster"

    def suggest(self, plan: AccessPlan) -> list[tuple[int, int]]:
        if plan.extent is not None and plan.extent.npages > 0:
            return [(plan.extent.start, plan.extent.npages)]
        return super().suggest(plan)


PREFETCHERS = ("none", "sequential", "cluster")
"""Valid prefetch-policy names for every ``prefetch=`` knob."""


def make_prefetcher(
    spec: "str | Prefetcher | None", depth: int = 8
) -> "Prefetcher | None":
    """Resolve a prefetcher name (``None``/``"none"`` disable it)."""
    if spec is None or spec == "none":
        return None
    if isinstance(spec, str):
        if spec == "sequential":
            return SequentialPrefetcher(depth)
        if spec == "cluster":
            return ClusterPrefetcher(depth)
        raise ConfigurationError(
            f"unknown prefetch policy '{spec}'; valid: {PREFETCHERS}"
        )
    if isinstance(spec, Prefetcher):
        return spec
    raise ConfigurationError(f"not a prefetch policy: {spec!r}")
