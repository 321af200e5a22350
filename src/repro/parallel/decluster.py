"""Multi-disk declustering of cluster units — the paper's future work.

Section 7 closes with: "The design of a parallel cluster organization is
the next challenge … multi-disk systems should be investigated in order
to organize the high data volume of spatial applications more
efficiently."  This module implements that extension on top of the
cluster organization.

Since the :mod:`repro.pagestore` subsystem, the reader is a thin
adapter: the disk bank, the unit→disk routing and the parallel pricing
(max-over-disks response time, sum-of-device-time totals) all live in
:class:`~repro.pagestore.store.ShardedPageStore`; the reader only
contributes the *assignment* of cluster units to disks:

* ``round_robin`` — units are dealt to the disks in creation order (a
  proxy for random placement);
* ``spatial`` — units sorted by their region's x-center, dealt
  round-robin, which guarantees that spatially adjacent units — exactly
  the ones a window query co-accesses — land on different disks.

For the *dynamic* variant — a live database whose whole page traffic
(all organizations, the R*-tree pager, the spatial join) runs
declustered — use ``SpatialDatabase(n_disks=..., placement=...)``,
which prices every placement-policy decision in the page store itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.organization import ClusterOrganization
from repro.core.unit import ClusterUnit
from repro.errors import ConfigurationError
from repro.geometry.rect import Rect
from repro.pagestore.store import ShardedPageStore, VectoredCost

__all__ = ["DECLUSTERING_POLICIES", "ParallelClusterReader", "ParallelQueryCost"]

DECLUSTERING_POLICIES = ("round_robin", "spatial")


@dataclass(slots=True)
class ParallelQueryCost(VectoredCost):
    """Cost of one window query on the declustered organization (a
    :class:`~repro.pagestore.store.VectoredCost` plus the number of
    cluster units transferred)."""

    units_read: int = 0


class ParallelClusterReader:
    """Window queries over cluster units declustered onto ``n_disks``.

    The reader leaves the underlying organization untouched — it builds
    its own unit→disk assignment and prices unit transfers on a private
    :class:`~repro.pagestore.store.ShardedPageStore`, so the same
    organization can be examined under several disk counts and
    policies.

    Parameters
    ----------
    org:
        A built cluster organization.
    n_disks:
        Number of independent disks.
    policy:
        ``"round_robin"`` or ``"spatial"`` (see module docstring).
    """

    def __init__(
        self,
        org: ClusterOrganization,
        n_disks: int,
        policy: str = "spatial",
    ):
        if policy not in DECLUSTERING_POLICIES:
            raise ConfigurationError(
                f"unknown policy '{policy}'; valid: {DECLUSTERING_POLICIES}"
            )
        self.org = org
        self.n_disks = n_disks
        self.policy = policy
        # Placement is fully explicit (every unit extent is pinned by
        # the deal below), so the store's own default rule never fires.
        self.store = ShardedPageStore(
            n_disks, placement="round_robin", params=org.disk.params
        )
        self.assignment = self._assign()

    @property
    def disks(self):
        """The underlying disk bank (one cost model per device)."""
        return self.store.disks

    # ------------------------------------------------------------------
    def _assign(self) -> dict[int, int]:
        """unit extent start -> disk index (extents pinned in the
        store along the way)."""
        pairs: list[tuple[ClusterUnit, Rect]] = []
        for leaf in self.org.tree.leaves():
            unit = leaf.tag
            if unit is not None and leaf.entries:
                pairs.append((unit, leaf.mbr()))
        if self.policy == "spatial":
            pairs.sort(key=lambda ur: ur[1].center()[0])
        assignment: dict[int, int] = {}
        for i, (unit, _region) in enumerate(pairs):
            disk = i % self.n_disks
            assignment[unit.extent.start] = disk
            self.store.place_extent(unit.extent, disk=disk)
        return assignment

    def disk_of(self, unit: ClusterUnit) -> int:
        """The disk index a unit was declustered to."""
        return self.assignment[unit.extent.start]

    # ------------------------------------------------------------------
    def window_query_cost(self, window: Rect) -> ParallelQueryCost:
        """Price a window query that reads every matching cluster unit
        completely, in parallel across the disks.

        Only the object transfer is priced (the R*-tree filter is the
        same for any disk count and, as in the paper's measurement mode,
        the directory is memory-resident) — hence the tree's unpriced
        filter, which leaves the organization's own disk alone.
        """
        ((_visited, groups),) = self.org.tree.window_leaves_batch([window])
        snapshot = self.store.snapshot()
        units_read = 0
        for leaf, entries in groups:
            unit: ClusterUnit | None = leaf.tag
            if unit is None or not entries:
                continue
            used = min(unit.used_pages, unit.extent.npages)
            if used == 0:
                continue
            self.store.read(unit.extent.start, used)
            units_read += 1
        cost = self.store.cost_since(snapshot)
        return ParallelQueryCost(
            response_ms=cost.response_ms,
            total_ms=cost.total_ms,
            per_disk_ms=cost.per_disk_ms,
            units_read=units_read,
        )

    def workload_response_ms(self, windows: list[Rect]) -> float:
        """Summed parallel response time of a whole workload."""
        return sum(self.window_query_cost(w).response_ms for w in windows)
