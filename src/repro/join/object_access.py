"""Object transfer for the spatial join (Sections 6.1 / 6.2).

Unlike a window query, the join "may read an object in an unpredictable
manner many times", so exact representations are fetched *through the
shared buffer pool*.  Where they live is the organization's one answer
(:meth:`~repro.storage.base.SpatialOrganization.extent_of`, else the
data page's cluster unit ``leaf.tag``, else the data page itself); what
this module adds is the join's own: the residency question — an object
with pages of its own is read whole on any page miss and merely touched
on none — and how much of a touched cluster unit to transfer:

* ``complete`` — the whole unit (the paper's default; "exhibits the
  best performance for join processing in most cases");
* ``read`` — an SLM schedule over the missing pages, where *all*
  transferred pages (including gap pages read through) are allocated in
  the buffer;
* ``vector`` — the same schedule, but only the *requested* pages are
  kept (the vector read of Figure 15);
* ``optimum`` — the analytic lower bound of Figure 16: one seek and one
  rotational delay per *touched cluster unit over the whole join*, and
  every queried page transferred exactly once.
"""

from __future__ import annotations

from repro.buffer.pool import BufferPool
from repro.core.techniques import slm_schedule
from repro.core.unit import ClusterUnit
from repro.disk.extent import Extent
from repro.errors import ConfigurationError
from repro.iosched.request import AccessPlan
from repro.rtree.node import Node
from repro.storage.base import SpatialOrganization

__all__ = ["JOIN_TECHNIQUES", "ObjectTransfer"]

JOIN_TECHNIQUES = ("complete", "read", "vector", "optimum")
"""Cluster-unit transfer techniques for join processing (Figure 16)."""


class ObjectTransfer:
    """Buffered object fetching for one side of a join.

    Parameters
    ----------
    org:
        The organization storing the relation.
    pool:
        The shared :class:`~repro.buffer.pool.BufferPool` pricing and
        caching all transfers.
    technique:
        Cluster-unit transfer technique (without effect on a relation
        that has no units to batch).

    :meth:`fetch_group` declares each group's transfers as one
    scheduler *operation* (an ``operation()`` scope: on an overlapping
    scheduler the whole group's plans dispatch against one
    virtual-clock window) unless an enclosing scope is already open
    (the workload engine wraps whole join operations in its own scope —
    nesting another would shift its timing).
    """

    def __init__(
        self,
        org: SpatialOrganization,
        pool: BufferPool,
        technique: str = "complete",
    ):
        if technique not in JOIN_TECHNIQUES:
            raise ConfigurationError(
                f"unknown join technique '{technique}'; valid: {JOIN_TECHNIQUES}"
            )
        self.org = org
        self.pool = pool
        self.technique = technique
        self.object_requests = 0
        self.buffer_hits = 0
        # technique == "optimum": pages already charged, per unit extent.
        self._optimum_pages: dict[int, set[int]] = {}

    # ------------------------------------------------------------------
    def fetch_group(self, leaf: Node, oids: list[int]) -> None:
        """Make the exact representations of the given objects of one
        data page memory-resident, pricing all disk traffic.

        On an overlapping scheduler the group's plans are scheduled as
        one operation, so candidate-object fetches for one leaf pair
        dispatch as a batch instead of one-at-a-time."""
        scheduler = self.pool.scheduler
        if scheduler.in_operation:
            self._dispatch(leaf, oids)
        else:
            with scheduler.operation("join.transfer"):
                self._dispatch(leaf, oids)

    def _dispatch(self, leaf: Node, oids: list[int]) -> None:
        oids = list(dict.fromkeys(oids))
        self.object_requests += len(oids)
        org = self.org
        if org._page_holds_objects and leaf.page is not None:
            # Already buffered by the MBR join's node access.
            self.pool.submit(AccessPlan("join.leaf").get(leaf.page))
        colocated: list[int] = []
        for oid in oids:
            extent = org.extent_of(oid)
            if extent is not None:
                self._fetch_extent(extent)
            else:
                colocated.append(oid)
        unit: ClusterUnit | None = leaf.tag
        if unit is None:  # they came with the data page
            self.buffer_hits += len(colocated)
        elif colocated:
            self._fetch_unit(unit, colocated)

    # ------------------------------------------------------------------
    def _pages_missing(self, start: int, npages: int) -> bool:
        return any(
            (start + i) not in self.pool for i in range(npages)
        )

    def _fetch_extent(self, extent: Extent) -> None:
        """An object with pages of its own: the extent is read with one
        request on any page miss and fully buffered.  The residency
        decision is made when the plan is built (it depends on what
        earlier fetches admitted), the transfer is submitted as a
        declarative single-request plan."""
        if self._pages_missing(extent.start, extent.npages):
            self.pool.submit(
                AccessPlan("join.extent").fetch_extent(extent)
            )
        else:
            self.pool.access_all(range(extent.start, extent.end))
            self.buffer_hits += 1

    # ------------------------------------------------------------------
    def _fetch_unit(self, unit: ClusterUnit, unit_oids: list[int]) -> None:
        """The objects of one cluster unit, under the join technique."""
        requested = unit.requested_pages(unit_oids)
        base = unit.extent.start
        if self.technique == "optimum":
            # Analytic bound: one seek + one rotational delay per unit
            # over the whole join; each queried page transferred once.
            plan = AccessPlan("join.unit.optimum")
            charged = self._optimum_pages.get(base)
            if charged is None:
                charged = set()
                self._optimum_pages[base] = charged
                plan.charge(seeks=1, rotations=1)
            new_pages = [p for p in requested if p not in charged]
            if new_pages:
                charged.update(new_pages)
                plan.charge(pages=len(new_pages))
            if plan:
                self.pool.submit(plan)
            return
        missing = [p for p in requested if (base + p) not in self.pool]
        if not missing:
            self._touch_pages(base, requested)
            self.buffer_hits += len(unit_oids)
            return

        technique = self.technique
        used = min(unit.used_pages, unit.extent.npages)
        plan = AccessPlan(f"join.unit.{technique}", extent=Extent(base, used))
        if technique == "complete":
            plan.fetch(base, used)
        elif technique in ("read", "vector"):
            runs = slm_schedule(missing, self.pool.params.slm_gap_pages)
            first = True
            for start, npages in runs:
                plan.fetch(
                    base + start,
                    npages,
                    continuation=not first,
                    admit=(technique == "read"),
                )
                first = False
        else:  # pragma: no cover - guarded in __init__ / early return
            raise ConfigurationError(f"unknown technique {technique}")
        self.pool.submit(plan)
        if technique == "vector":
            self.pool.admit_all(base + p for p in missing)
        self._touch_pages(base, requested)

    def _touch_pages(self, base: int, pages: list[int]) -> None:
        self.pool.access_all([base + p for p in pages])
