"""The primary organization (Section 3.2.2).

The exact representations are stored *inside* the R*-tree data pages,
so spatial neighbourhood is physically preserved at the object level —
a window query gets every object of a data page with a single access.
The price: the low number of objects per page reduces local clustering,
every approximation access drags the full object into memory, and
objects larger than a data page need a special overflow mechanism
(here: a separate file where each such object occupies its own pages
exclusively, preserving internal clustering, as described in
Section 5.2).
"""

from __future__ import annotations

from repro.constants import ENTRY_SIZE
from repro.disk.extent import Extent
from repro.geometry.feature import SpatialObject
from repro.geometry.rect import Rect
from repro.iosched.request import AccessPlan
from repro.rtree.capacity import ByteCapacity
from repro.rtree.entry import Entry
from repro.rtree.node import Node
from repro.rtree.pager import NodePager
from repro.rtree.rstar import RStarTree
from repro.storage.base import SpatialOrganization

__all__ = ["PrimaryOrganization"]


class PrimaryOrganization(SpatialOrganization):
    """Exact objects inside the data pages; big objects overflow."""

    name = "primary"

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._overflow = self._claim_region("overflow")
        self._overflow_extents: dict[int, Extent] = {}

    # ------------------------------------------------------------------
    def _build_tree(self, pager: NodePager) -> RStarTree:
        return RStarTree(
            max_entries=self.max_entries,
            leaf_capacity=ByteCapacity(self.page_size),
            pager=pager,
        )

    def _fits_inline(self, obj: SpatialObject) -> bool:
        """True if the object can live inside a data page next to its
        46-byte entry."""
        return ENTRY_SIZE + obj.size_bytes <= self.page_size

    def _entry_load(self, obj: SpatialObject) -> int:
        if self._fits_inline(obj):
            return ENTRY_SIZE + obj.size_bytes
        return ENTRY_SIZE

    def _store_object(self, obj: SpatialObject) -> Extent | None:
        """Inline objects are written together with their data page (no
        separate I/O); oversized objects get exclusive overflow pages."""
        if self._fits_inline(obj):
            return None
        extent = self._overflow.allocate(self.pages_for(obj.size_bytes))
        self._overflow_extents[obj.oid] = extent
        self.pool.place_extent(extent, center=obj.mbr.center())
        self.pool.submit(AccessPlan("primary.store").write_extent(extent))
        return extent

    # ------------------------------------------------------------------
    def _plan_group(
        self,
        plan: AccessPlan,
        leaf: Node,
        entries: list[Entry],
        window: Rect,
        selective: bool,
        candidates: list[SpatialObject],
    ) -> None:
        """Inline candidates arrived with their data page (already priced
        by the filter step); each overflow candidate costs an extra read
        request — the effect behind the primary organization's poor
        point-query behaviour for large objects (Figure 12)."""
        for entry in entries:
            assert entry.oid is not None
            extent = self._overflow_extents.get(entry.oid)
            if extent is not None:
                plan.read_extent(extent)
            candidates.append(self.objects[entry.oid])

    def _unstore_object(self, obj: SpatialObject) -> None:
        extent = self._overflow_extents.pop(obj.oid, None)
        if extent is not None:
            self._overflow.free(extent)
            self._drop_frames(extent)

    # ------------------------------------------------------------------
    def occupied_pages(self) -> int:
        """Tree pages (data pages embed the objects) plus overflow."""
        return self.tree_pages() + self._overflow.high_water_pages

    def is_inline(self, oid: int) -> bool:
        """True if the object lives inside its data page."""
        return oid not in self._overflow_extents

    def overflow_extent(self, oid: int) -> Extent:
        """The overflow extent of a non-inline object."""
        return self._overflow_extents[oid]
