"""The secondary organization (Section 3.2.1).

The R*-tree is a primary index for the *approximations* (MBRs) and a
secondary index for the objects: data pages hold MBRs plus pointers,
while the exact representations live in a **sequential file** in
insertion order.  Local clustering of the approximations is maximal and
storage utilization is the best of all models (the file is byte-packed
and wastes nothing), but every access to an exact representation costs
an extra seek — which is exactly what makes large window queries and
joins expensive.
"""

from __future__ import annotations

from repro.disk.extent import Extent
from repro.geometry.feature import SpatialObject
from repro.geometry.rect import Rect
from repro.iosched.request import AccessPlan
from repro.rtree.capacity import CountCapacity
from repro.rtree.entry import Entry
from repro.rtree.node import Node
from repro.rtree.pager import NodePager
from repro.rtree.rstar import RStarTree
from repro.storage.base import SpatialOrganization

__all__ = ["SecondaryOrganization"]


class SecondaryOrganization(SpatialOrganization):
    """MBRs in the R*-tree, exact objects in a sequential file."""

    name = "secondary"

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._file = self._claim_region("objects")
        self._extents: dict[int, Extent] = {}
        self._byte_tail = 0  # append cursor into the byte-packed file

    # ------------------------------------------------------------------
    def _build_tree(self, pager: NodePager) -> RStarTree:
        return RStarTree(
            max_entries=self.max_entries,
            leaf_capacity=CountCapacity(self.max_entries),
            pager=pager,
        )

    def _store_object(self, obj: SpatialObject) -> Extent:
        """Append the exact representation to the sequential file.

        The file is byte-packed: an object may share its first and last
        page with its neighbours, so internal clustering holds (at most
        one page more than the minimum).  The tail page is write-behind
        buffered — only *completed* pages are priced, as one write
        request per append.
        """
        page = self.page_size
        start_byte = self._byte_tail
        end_byte = start_byte + obj.size_bytes
        self._byte_tail = end_byte

        first_page = start_byte // page
        last_page = (end_byte - 1) // page
        npages = last_page - first_page + 1
        missing = (last_page + 1) - self._file.high_water_pages
        if missing > 0:
            self._file.allocate(missing)
        extent = Extent(self._file.base + first_page, npages)
        self._extents[obj.oid] = extent

        completed_before = start_byte // page
        completed_after = end_byte // page
        if completed_after > completed_before:
            self.pool.submit(
                AccessPlan("secondary.store").write(
                    self._file.base + completed_before,
                    completed_after - completed_before,
                )
            )
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
        """Each candidate needs its own read request into the file: the
        file is ordered by insertion time, the query by space, so there
        is no useful physical adjacency (Section 3.2.1's drawback)."""
        for entry in entries:
            assert entry.oid is not None
            plan.read_extent(self._extents[entry.oid])
            candidates.append(self.objects[entry.oid])

    # ------------------------------------------------------------------
    def occupied_pages(self) -> int:
        """Tree pages plus the tightly packed sequential file."""
        return self.tree_pages() + self._file.high_water_pages

    def object_extent(self, oid: int) -> Extent:
        """The file extent of one object (used by the join's object
        transfer)."""
        return self._extents[oid]
