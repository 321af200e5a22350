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
from repro.iosched.request import AccessPlan
from repro.rtree.capacity import CountCapacity
from repro.rtree.pager import NodePager
from repro.rtree.rstar import RStarTree
from repro.storage.base import SpatialOrganization

__all__ = ["SecondaryOrganization"]


class SecondaryOrganization(SpatialOrganization):
    """MBRs in the R*-tree, exact objects in a sequential file."""

    name = "secondary"
    _catalog_scalars = ("_byte_tail",)
    _byte_packed = True

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._own_region = self._claim_region("objects")  # the file
        self._byte_tail = 0  # append cursor into the byte-packed file

    # ------------------------------------------------------------------
    def _build_tree(self, pager: NodePager) -> RStarTree:
        return RStarTree(
            max_entries=self.max_entries,
            leaf_capacity=CountCapacity(self.max_entries),
            pager=pager,
        )

    def _store_object(self, obj: SpatialObject) -> Extent:
        """Append the exact representation to the sequential file —
        every object has an extent of its own here.

        The file is byte-packed: an object may share its first and last
        page with its neighbours, so internal clustering holds (at most
        one page more than the minimum).  The tail page is write-behind
        buffered — only *completed* pages are priced, as one write
        request per append.
        """
        page, file = self.page_size, self._own_region
        start_byte = self._byte_tail
        end_byte = start_byte + obj.size_bytes
        self._byte_tail = end_byte

        first_page = start_byte // page
        last_page = (end_byte - 1) // page
        npages = last_page - first_page + 1
        missing = (last_page + 1) - file.high_water_pages
        if missing > 0:
            file.allocate(missing)
        extent = Extent(file.base + first_page, npages)
        self._extents[obj.oid] = extent

        completed_before = start_byte // page
        completed_after = end_byte // page
        if completed_after > completed_before:
            self.pool.submit(
                AccessPlan("secondary.store").write(
                    file.base + completed_before,
                    completed_after - completed_before,
                )
            )
        return extent

    def _unstore_object(self, obj: SpatialObject) -> None:
        """The sequential file never reclaims (Section 3.2.1): the pages
        stay bound — a byte-packed neighbour may share the first or last
        of them, so they stay buffered too — and only the row goes."""
        del self._extents[obj.oid]
