"""Page allocation: address-space regions with bump + free-list reuse.

The simulated disk address space is partitioned into named *regions*
(one per file or storage component), so every component gets its own run
of page numbers.  Inside a region, pages are handed out by a bump
pointer; freed extents are kept on a free list and reused first-fit.
This mirrors a real file system well enough for the paper's purposes:
appends to one file are physically consecutive, while pages of
*different* components are far apart (a dynamic environment scatters
them, Section 3.2.3).
"""

from __future__ import annotations

from repro.disk.extent import Extent
from repro.errors import AllocationError

__all__ = ["Region", "PageAllocator"]


class Region:
    """A contiguous slice of the disk address space owned by one
    component (a file, an R*-tree, a cluster area)."""

    __slots__ = ("name", "base", "capacity", "_bump", "_free")

    def __init__(self, name: str, base: int, capacity: int):
        self.name = name
        self.base = base
        self.capacity = capacity
        self._bump = 0
        self._free: list[Extent] = []

    # ------------------------------------------------------------------
    def allocate(self, npages: int = 1) -> Extent:
        """Allocate ``npages`` physically consecutive pages.

        Freed extents are reused first-fit before the bump pointer grows;
        an exactly-fitting free extent is consumed whole, a larger one is
        split.
        """
        if npages <= 0:
            raise AllocationError(f"cannot allocate {npages} pages")
        for i, free in enumerate(self._free):
            if free.npages >= npages:
                del self._free[i]
                if free.npages > npages:
                    self._free.append(
                        Extent(free.start + npages, free.npages - npages)
                    )
                return Extent(free.start, npages)
        if self._bump + npages > self.capacity:
            raise AllocationError(
                f"region '{self.name}' exhausted: "
                f"{self._bump}/{self.capacity} pages used, wanted {npages}"
            )
        extent = Extent(self.base + self._bump, npages)
        self._bump += npages
        return extent

    def free(self, extent: Extent) -> None:
        """Return an extent to the region's free list."""
        if extent.start < self.base or extent.end > self.base + self.capacity:
            raise AllocationError(
                f"extent {extent} does not belong to region '{self.name}'"
            )
        self._free.append(extent)

    @property
    def high_water_pages(self) -> int:
        """Pages ever touched by the bump pointer (region footprint)."""
        return self._bump


class PageAllocator:
    """Hands out :class:`Region` slices of the global page address space.

    Region bases are spaced ``region_capacity`` pages apart, so page
    numbers of different regions never interleave and a request can never
    be accidentally "sequential" across components.
    """

    __slots__ = ("region_capacity", "_regions", "_next_base")

    def __init__(self, region_capacity: int = 1 << 24):
        if region_capacity <= 0:
            raise AllocationError("region capacity must be positive")
        self.region_capacity = region_capacity
        self._regions: dict[str, Region] = {}
        self._next_base = 0

    def region(self, name: str) -> Region:
        """Get or create the region named ``name``."""
        existing = self._regions.get(name)
        if existing is not None:
            return existing
        region = Region(name, self._next_base, self.region_capacity)
        self._next_base += self.region_capacity
        self._regions[name] = region
        return region

    def regions(self) -> dict[str, Region]:
        """A shallow copy of the region table (for reporting)."""
        return dict(self._regions)

    def high_water_limit(self, page: int) -> int | None:
        """End of the ever-allocated space of the region containing
        ``page`` (its base plus bump pointer), or ``None`` when the page
        lies in no region.  Pages at or beyond the limit were never
        handed out — a speculative read of them would transfer storage
        that does not exist."""
        for region in self._regions.values():
            if region.base <= page < region.base + region.capacity:
                return region.base + region.high_water_pages
        return None

    def in_allocated_space(self, page: int) -> bool:
        """Whether ``page`` lies below its region's high-water mark
        (the prefetch clamp: only such pages may be read ahead)."""
        limit = self.high_water_limit(page)
        return limit is not None and page < limit
