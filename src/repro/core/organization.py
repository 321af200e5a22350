"""The cluster organization (Section 4) — the paper's contribution.

Three levels: the R*-tree directory organizes data pages; every data
page holds the MBRs of up to ``M`` objects and references exactly one
**cluster unit**; the cluster unit stores the exact representations of
those objects on physically consecutive pages.

The R*-tree is modified exactly as Section 4.2.1 prescribes:

* **cluster split** — a data page is split (and its objects are
  redistributed onto two fresh cluster units with the R*-tree split
  algorithm) when the unit's byte size exceeds ``Smax`` *or* its entry
  count exceeds ``M``;
* **no forced reinsert on the data-page level** — reinsertion would
  physically move objects between cluster units.

Objects larger than ``Smax`` are stored in separate storage units
(footnote 1 of Section 4.2.2).  Cluster units live either in fixed
``Smax`` extents or under the (restricted) buddy system of
Section 5.3.1.
"""

from __future__ import annotations

import numpy as np

from repro.core.policy import ClusterPolicy
from repro.core.techniques import (
    adaptive_prefers_complete,
    check_technique,
    geometric_threshold,
    plan_complete,
    plan_optimum,
    plan_per_object,
    plan_slm,
)
from repro.iosched.request import AccessPlan
from repro.core.unit import ClusterUnit
from repro.disk.buddy import BuddyAllocator, FixedUnitAllocator
from repro.disk.extent import Extent
from repro.errors import ConfigurationError, StorageError
from repro.geometry.feature import SpatialObject
from repro.geometry.rect import Rect
from repro.rtree.capacity import CountOrByteCapacity
from repro.rtree.entry import Entry
from repro.rtree.node import Node
from repro.rtree.pager import NodePager
from repro.rtree.rstar import Reach, RStarTree
from repro.storage.base import SpatialOrganization, _check_tiled

__all__ = ["ClusterOrganization"]


class ClusterOrganization(SpatialOrganization):
    """Global clustering via per-data-page cluster units."""

    name = "cluster"
    # One plan per cluster unit: ``plan.extent`` names the unit a
    # cluster-aware prefetcher completes.
    _plan_per_group = True
    reorganizable = True
    _catalog_scalars = ("_total_object_bytes",)

    def __init__(
        self,
        policy: ClusterPolicy,
        technique: str = "complete",
        leaf_reinsert: bool = False,
        **kwargs,
    ):
        """``leaf_reinsert`` defaults to off — Section 4.2.1's second
        R*-tree modification (a reinsertion physically moves objects
        between cluster units).  Enabling it is supported purely for the
        ablation study quantifying that design decision."""
        check_technique(technique)
        self.policy = policy
        self.technique = technique
        self.leaf_reinsert = leaf_reinsert
        self._unit_of: dict[int, ClusterUnit] = {}
        self._total_object_bytes = 0
        super().__init__(**kwargs)
        if self.page_size != policy.page_size:
            raise ConfigurationError(
                "organization and cluster policy disagree on the page size"
            )
        unit_region = self._claim_region("units")
        if policy.buddy_sizes is None:
            self._unit_alloc: FixedUnitAllocator | BuddyAllocator = (
                FixedUnitAllocator(unit_region, policy.smax_pages)
            )
        else:
            self._unit_alloc = BuddyAllocator(
                unit_region, policy.smax_pages, policy.buddy_sizes
            )
        self._own_region = self._claim_region("oversize")

    # ------------------------------------------------------------------
    # tree wiring
    # ------------------------------------------------------------------
    def _build_tree(self, pager: NodePager) -> RStarTree:
        return RStarTree(
            max_entries=self.max_entries,
            leaf_capacity=CountOrByteCapacity(
                self.max_entries, self.policy.smax_bytes
            ),
            leaf_reinsert=self.leaf_reinsert,
            pager=pager,
            leaf_split_handler=self._on_leaf_split,
            entry_added_handler=self._on_entry_added,
        )

    def _exceeds_smax(self, obj: SpatialObject) -> bool:
        return obj.size_bytes > self.policy.smax_bytes

    def _entry_load(self, obj: SpatialObject) -> int:
        """Oversize objects contribute nothing to their unit's byte
        size (they live outside); everything else weighs its exact
        representation."""
        if self._exceeds_smax(obj):
            return 0
        return obj.size_bytes

    def _store_object(self, obj: SpatialObject) -> Extent | None:
        self._total_object_bytes += obj.size_bytes
        if self._exceeds_smax(obj):
            return self._store_extent(obj)
        return None  # placed by the entry-added hook, which knows the leaf

    def _unstore_object(self, obj: SpatialObject) -> None:
        super()._unstore_object(obj)
        self._total_object_bytes -= obj.size_bytes
        unit = self._unit_of.pop(obj.oid, None)
        if unit is not None:
            unit.remove(obj.oid)
            if not unit.live:
                self._free_unit(unit)

    def _free_unit(self, unit: ClusterUnit) -> None:
        """Give an empty unit's physical extent back and detach it from
        its data page."""
        self._unit_alloc.free(unit.extent)
        self._drop_frames(unit.extent)
        if unit.owner is not None and unit.owner.tag is unit:
            unit.owner.tag = None
        unit.owner = None

    # ------------------------------------------------------------------
    # physical placement hooks
    # ------------------------------------------------------------------
    def _unit_pages(self, size_bytes: int) -> int:
        """Pages of the physical unit for a cluster of ``size_bytes``
        (clamped to ``Smax``: a transiently overflowing cluster is
        re-split immediately by the tree)."""
        return min(max(1, self.pages_for(size_bytes)), self.policy.smax_pages)

    def _new_unit(self, size_bytes: int, center=None) -> ClusterUnit:
        """Allocate the physical unit for a cluster of ``size_bytes``;
        ``center`` is the placement hint for a sharded backing store."""
        extent = self._unit_alloc.allocate(self._unit_pages(size_bytes))
        self.pool.place_extent(extent, center=center)
        return ClusterUnit(extent, self.page_size)

    def _priced_pages(self, unit: ClusterUnit) -> int:
        """Used pages clamped to the physical extent (a unit may
        logically overflow for the single insert preceding its split)."""
        return min(unit.used_pages, unit.extent.npages)

    def _maintenance_read(self, label: str, unit: ClusterUnit, span=None) -> None:
        """Read a unit's used pages (or the relative ``(first, npages)``
        span of one object) for maintenance, not a query: an access
        plan on the pool's scheduler, priced like the ``pool.read`` it
        replaces under sync and, under overlap, on the virtual clock and
        seen by the admission policy.  Not through ``pool.submit``: a
        unit about to be moved is no pattern to read ahead of."""
        first, npages = span or (0, self._priced_pages(unit))
        if npages:
            plan = AccessPlan(label).read(unit.extent.start + first, npages)
            self.pool.scheduler.execute(plan, self.pool)

    def _move_unit(
        self,
        unit: ClusterUnit,
        label: str,
        size_bytes: int | None = None,
        read: bool = True,
    ) -> int:
        """The one way a cluster unit is rewritten: read its used pages,
        compact them, optionally trade the extent for one holding
        ``size_bytes`` (re-placed at the owning data page's centre),
        write the used pages back; returns the pages written.  ``None``
        compacts in place; the buddy grow, the shrink after a split and
        the reorganizer's relocation differ only in the size they ask
        for.  The read goes out before any frame is dropped, so a
        caching pool still serves it from its frames; ``read=False`` is
        for the cluster split, which has read the unit already."""
        if read:
            self._maintenance_read(label, unit)
        unit.repack()
        if size_bytes is not None:
            pages = self._unit_pages(size_bytes)
            self._drop_frames(unit.extent)
            if self._unit_alloc.fits(unit.extent, pages):
                self._unit_alloc.free(unit.extent)
                unit.extent = self._unit_alloc.allocate(pages)
            else:  # outgrown: a move the buddy allocator counts
                unit.extent = self._unit_alloc.grow(unit.extent, pages)
            center = unit.owner.mbr().center() if unit.owner is not None else None
            self.pool.place_extent(unit.extent, center=center)
        used = self._priced_pages(unit)
        if used:
            self.pool.submit(AccessPlan(label).write(unit.extent.start, used))
        return used

    def _grow_unit(self, unit: ClusterUnit, needed_bytes: int) -> None:
        """Move a unit into a larger buddy (Section 5.3.1)."""
        if not isinstance(self._unit_alloc, BuddyAllocator):
            raise StorageError("only buddy-backed units can grow")
        self._move_unit(unit, "cluster.grow", needed_bytes)

    def _on_entry_added(self, leaf: Node, entry: Entry) -> None:
        """Step 3 of the insertion algorithm (Section 4.2.2): append the
        object to the cluster unit of the chosen data page."""
        oid = entry.oid
        assert oid is not None
        if oid in self._extents:
            return
        obj = self.objects[oid]
        size = obj.size_bytes

        old_unit = self._unit_of.get(oid)
        if old_unit is not None:
            # Relocation (deletion-time condensation moved the entry):
            # the object is read from its old unit and appended anew.
            self._maintenance_read(
                "cluster.relocate", old_unit, old_unit.page_span(oid)
            )
            old_unit.remove(oid)
            if not old_unit.live:
                self._free_unit(old_unit)

        unit: ClusterUnit | None = leaf.tag
        if unit is None:
            unit = self._new_unit(size, center=obj.mbr.center())
            unit.owner = leaf
            leaf.tag = unit

        if not unit.fits(size):
            if unit.would_fit_after_repack(size):
                self._move_unit(unit, "cluster.rewrite")
            elif (
                isinstance(self._unit_alloc, BuddyAllocator)
                and unit.live_bytes + size <= self.policy.smax_bytes
            ):
                self._grow_unit(unit, unit.live_bytes + size)
            # else: the unit overflows Smax; the tree splits this data
            # page immediately after this hook returns, rebuilding both
            # halves into fresh units.

        start_rel, completed = unit.append(oid, size)
        self._unit_of[oid] = unit
        if completed > 0:
            first = min(start_rel, unit.extent.npages - 1)
            count = min(completed, unit.extent.npages - first)
            self.pool.submit(
                AccessPlan("cluster.append").write(
                    unit.extent.start + first, max(1, count)
                )
            )

    def _on_leaf_split(self, old_leaf: Node, new_leaf: Node) -> None:
        """The cluster split (Section 4.2.2 step 4): the old unit is
        read with a single request — the global clustering pays off
        during the split too — and the objects are distributed onto two
        cluster units following the R*-tree's entry distribution.

        The group staying with the old data page keeps its place in the
        old unit (dead space is compacted lazily); only the moved group
        is written into a fresh unit.  Under the buddy system the old
        unit additionally shrinks into the smallest fitting buddy, as
        "the two new cluster units are generally stored in smaller
        buddies" (Section 5.3.1) — the extra write is part of the buddy
        system's slightly higher construction cost (Figure 7).
        """
        old_unit: ClusterUnit | None = old_leaf.tag
        if old_unit is not None and old_unit.live:
            self._maintenance_read("cluster.split", old_unit)

        def in_unit_oids(leaf: Node) -> list[int]:
            return [
                e.oid
                for e in leaf.entries
                if e.oid is not None and e.oid not in self._extents
            ]

        moved = in_unit_oids(new_leaf)
        if moved:
            total = sum(self.objects[oid].size_bytes for oid in moved)
            unit = self._new_unit(total, center=new_leaf.mbr().center())
            for oid in moved:
                if old_unit is not None and oid in old_unit.live:
                    old_unit.remove(oid)
                unit.append(oid, self.objects[oid].size_bytes)
                self._unit_of[oid] = unit
            unit.owner = new_leaf
            new_leaf.tag = unit
            used = self._priced_pages(unit)
            if used:
                self.pool.submit(
                    AccessPlan("cluster.split").write(unit.extent.start, used)
                )
        else:
            new_leaf.tag = None

        kept = in_unit_oids(old_leaf)
        if old_unit is None:
            old_leaf.tag = None
            return
        if not kept:
            self._free_unit(old_unit)
            old_leaf.tag = None
            return
        old_unit.owner = old_leaf
        old_leaf.tag = old_unit
        if isinstance(self._unit_alloc, BuddyAllocator):
            # Shrink into the smallest fitting buddy.
            pages = self._unit_pages(old_unit.live_bytes)
            target_level = self._unit_alloc.level_for(pages)
            if self._unit_alloc.sizes[target_level] < old_unit.extent.npages:
                self._move_unit(
                    old_unit, "cluster.split", old_unit.live_bytes, read=False
                )
            else:
                old_unit.repack()

    # ------------------------------------------------------------------
    # retrieval: the query techniques of Section 5.4
    # ------------------------------------------------------------------
    def _avg_entries_per_page(self) -> float:
        leaves = max(1, self.tree.leaf_count)
        return max(1.0, self.tree.size / leaves)

    def _avg_pages_per_object(self) -> float:
        count = max(1, len(self.objects))
        avg_size = self._total_object_bytes / count
        return avg_size / self.page_size + 0.5

    def _own_extents(self, leaf: Node, hits: np.ndarray) -> np.ndarray | None:
        """Which entries at positions ``hits`` of ``leaf`` are oversize
        objects with extents of their own; ``None`` when none is."""
        extents = self._extents
        if extents:  # almost always empty: Smax is far above the average
            entries = leaf.entries
            apart = np.fromiter(
                (entries[i].oid in extents for i in hits.tolist()), dtype=bool, count=len(hits)
            )
            if apart.any():
                return apart
        return None

    def _request_order(self, reach: Reach) -> Reach:
        """Oversize extents first, then the cluster unit's objects, in
        each query's run (``reach`` reordered in place)."""
        for i, (leaf, hits, runs) in enumerate(reach.leaves if self._extents else ()):
            apart = self._own_extents(leaf, hits)
            if apart is not None:
                run_of = np.repeat(np.arange(len(runs)), [count for _query, count in runs])
                reach.leaves[i] = (leaf, hits[np.lexsort((~apart, run_of))], runs)
        return reach

    def _plan_group(
        self,
        plan: AccessPlan,
        leaf: Node,
        hits: np.ndarray,
        window: Rect | None,
        selective: bool,
    ) -> None:
        """Schedule one data-page group onto ``plan`` — oversize extents
        first, then the cluster unit under the configured technique.
        Object ids are read only where a request needs one: an oversize
        extent, or a technique that addresses objects one by one.  On a
        merged plan the technique planners draw chain ids from the
        shared plan, keeping continuation runs distinct, but the
        per-group ``plan.extent`` prefetch hint degenerates to the last
        group's unit — which is why merging requires a prefetcher-free
        pool (``SpatialOrganization._batchable``)."""
        in_unit = hits
        apart = self._own_extents(leaf, hits)
        if apart is not None:
            extents, entries = self._extents, leaf.entries
            for i in hits[apart].tolist():
                plan.read_extent(extents[entries[i].oid])
            in_unit = hits[~apart]
        if len(in_unit):
            unit: ClusterUnit | None = leaf.tag
            if unit is None:
                raise StorageError(
                    f"data page {leaf.node_id} has objects but no cluster unit"
                )
            self._read_unit(plan, unit, leaf, in_unit, window, selective)

    def _read_unit(
        self,
        plan: AccessPlan,
        unit: ClusterUnit,
        leaf: Node,
        hits: np.ndarray,
        window: Rect | None,
        selective: bool,
    ) -> None:
        """Schedule the object transfer of the entries at positions
        ``hits`` of ``leaf`` from its cluster unit onto the plan
        according to the configured technique."""
        used = self._priced_pages(unit)
        if used:
            # Cluster-unit-aware prefetchers complete the rest of the
            # unit's used pages after the plan executes.
            plan.extent = Extent(unit.extent.start, used)

        def oids() -> list[int]:
            entries = leaf.entries
            return [entries[i].oid for i in hits.tolist()]

        if selective:
            # Point queries dereference each object individually through
            # the unit's relative addresses (Section 4.2.2) — the same
            # access pattern as the secondary organization, which is why
            # Figure 12 shows "almost no difference" between the two.
            for oid in oids():
                start, npages = unit.page_span(oid)
                plan.read(unit.extent.start + start, npages)
            return
        technique = self.technique
        if technique == "threshold" and window is not None:
            region = leaf.mbr()
            threshold = geometric_threshold(
                max(1, used),
                self._avg_entries_per_page(),
                self._avg_pages_per_object(),
                self.disk.params,
            )
            if region.overlap_fraction(window) >= threshold:
                plan_complete(plan, unit)
            else:
                plan_per_object(plan, unit, oids())
        elif technique == "adaptive":
            # Extension beyond the paper: the filter step already knows
            # exactly how many objects the unit must deliver.
            if adaptive_prefers_complete(
                max(1, used),
                len(hits),
                self._avg_pages_per_object(),
                self.disk.params,
            ):
                plan_complete(plan, unit)
            else:
                plan_per_object(plan, unit, oids())
        elif technique == "complete" or technique == "threshold":
            plan_complete(plan, unit)
        elif technique == "slm":
            plan_slm(plan, unit, oids(), self.disk.params.slm_gap_pages)
        elif technique == "optimum":
            plan_optimum(plan, unit, oids())
        else:  # pragma: no cover - guarded in __init__
            raise ConfigurationError(f"unknown technique {technique}")

    # ------------------------------------------------------------------
    # reporting / join support
    # ------------------------------------------------------------------
    def occupied_pages(self) -> int:
        """Tree pages and oversize storage plus the full physical units
        (non-occupied pages of a cluster unit cannot be used for
        anything else, Section 5.3)."""
        return super().occupied_pages() + self._unit_alloc.occupied_pages

    @property
    def unit_moves(self) -> int:
        """Buddy-system unit relocations (construction-cost overhead)."""
        return self._unit_alloc.moves

    def check(self) -> None:
        """:meth:`SpatialOrganization.check`, then the units: an object
        has an own extent iff it exceeds ``Smax``; each unit its page's,
        non-empty, its live bytes its live map's within its extent of at
        most ``Smax``; ``_unit_of`` and the allocator's live units are
        these; they and the free buddies tile the units' region."""
        super().check()
        for oid, obj in self.objects.items():
            if (oid in self._extents) != self._exceeds_smax(obj):
                raise StorageError(f"object {oid} of {obj.size_bytes} bytes is placed against Smax")
        units, unit_of, alloc = self.units(), self._unit_of, self._unit_alloc
        if len(unit_of) != sum(len(unit.live) for unit in units):
            raise StorageError("_unit_of maps objects no unit holds")
        for unit in units:
            if (
                not unit.live
                or unit.owner.tag is not unit
                or unit.live_bytes != sum(size for _, size in unit.live.values())
                or unit.live_bytes > unit.capacity_bytes
                or unit.capacity_bytes > self.policy.smax_bytes
                or any(unit_of.get(oid) is not unit for oid in unit.live)
            ):
                raise StorageError(f"the unit at {unit.extent} disagrees with its page")
        if sorted(alloc._live) != sorted(unit.extent.start for unit in units):
            raise StorageError("the unit allocator's live units are not the units")
        held = [unit.extent for unit in units]
        if isinstance(alloc, BuddyAllocator):  # a free buddy is the allocator's
            held += [Extent(s, alloc.sizes[i]) for i, free in enumerate(alloc._free) for s in free]
        _check_tiled(alloc.region, held)

    def units(self) -> list[ClusterUnit]:
        """All live cluster units (via the data pages)."""
        seen: list[ClusterUnit] = []
        for leaf in self.tree.leaves():
            if leaf.tag is not None:
                seen.append(leaf.tag)
        return seen
