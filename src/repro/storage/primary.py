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
from repro.rtree.capacity import ByteCapacity
from repro.rtree.pager import NodePager
from repro.rtree.rstar import RStarTree
from repro.storage.base import SpatialOrganization

__all__ = ["PrimaryOrganization"]


class PrimaryOrganization(SpatialOrganization):
    """Exact objects inside the data pages; big objects overflow."""

    name = "primary"
    _page_holds_objects = True

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._own_region = self._claim_region("overflow")

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
        return self._store_extent(obj)
