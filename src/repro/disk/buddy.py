"""Buddy-system storage management for cluster units (Section 5.3.1).

Every cluster unit lives in a physical unit (*buddy*) of size
``Smax * 2^-i``.  A cluster unit always uses the smallest buddy it fits;
when it outgrows its buddy it is moved into the next bigger one, and
buddies that are no longer used are given back to the file management.

Two allocators share one interface:

* :class:`FixedUnitAllocator` — the plain cluster organization of
  Section 5.3: every cluster unit occupies a full ``Smax`` extent, so
  non-occupied pages of a unit are lost (poor storage utilization).
* :class:`BuddyAllocator` — the (restricted) buddy system: a limited
  set of buddy sizes obtained by repeated halving of ``Smax``; the
  restricted variant of the paper uses 3 sizes
  (``Smax``, ``Smax/2``, ``Smax/4``).

Both report ``occupied_pages`` as the paper counts them: the *full*
physical unit of every live cluster unit, because its unused pages
cannot serve any other purpose.
"""

from __future__ import annotations

from repro.disk.allocator import Region
from repro.disk.extent import Extent
from repro.errors import AllocationError

__all__ = ["FixedUnitAllocator", "BuddyAllocator", "buddy_sizes"]


def buddy_sizes(max_unit_pages: int, num_sizes: int | None = None) -> list[int]:
    """The descending list of buddy sizes for a given ``Smax``.

    Sizes are produced by exact halving while the size stays even, e.g.
    ``Smax = 20`` pages yields ``[20, 10, 5]``.  ``num_sizes`` truncates
    the list (the paper's *restricted* buddy system uses 3 sizes).
    """
    if max_unit_pages <= 0:
        raise AllocationError(f"Smax must be positive, got {max_unit_pages}")
    sizes = [max_unit_pages]
    while sizes[-1] % 2 == 0 and sizes[-1] > 1:
        sizes.append(sizes[-1] // 2)
    if num_sizes is not None:
        if num_sizes < 1:
            raise AllocationError(f"need at least one buddy size, got {num_sizes}")
        sizes = sizes[:num_sizes]
    return sizes


class FixedUnitAllocator:
    """Every cluster unit occupies a full ``Smax`` extent."""

    __slots__ = ("region", "max_unit_pages", "_live")

    def __init__(self, region: Region, max_unit_pages: int):
        if max_unit_pages <= 0:
            raise AllocationError(f"Smax must be positive, got {max_unit_pages}")
        self.region = region
        self.max_unit_pages = max_unit_pages
        self._live: dict[int, Extent] = {}

    def allocate(self, npages: int) -> Extent:
        """Allocate the physical unit for a cluster needing ``npages``;
        always a full ``Smax`` extent."""
        if npages > self.max_unit_pages:
            raise AllocationError(
                f"cluster of {npages} pages exceeds Smax={self.max_unit_pages}"
            )
        extent = self.region.allocate(self.max_unit_pages)
        self._live[extent.start] = extent
        return extent

    def free(self, extent: Extent) -> None:
        if self._live.pop(extent.start, None) is None:
            raise AllocationError(f"extent {extent} is not a live unit")
        self.region.free(extent)

    def fits(self, extent: Extent, npages: int) -> bool:
        """True if a cluster of ``npages`` still fits its physical unit."""
        return npages <= extent.npages

    @property
    def occupied_pages(self) -> int:
        """Pages bound by live units (always ``units * Smax``)."""
        return len(self._live) * self.max_unit_pages

    @property
    def moves(self) -> int:
        """Fixed units are never moved."""
        return 0


class BuddyAllocator:
    """Power-of-two-ish buddy allocator over one region.

    Top-level buddies (size ``Smax``) are carved from the region on
    demand; smaller buddies are produced by splitting, and freed halves
    coalesce back into their parents.

    The allocator must own its region exclusively: top-level buddies are
    assumed to be ``Smax``-aligned relative to the region base, which
    holds because every region allocation made here is ``Smax`` pages.
    """

    __slots__ = ("region", "sizes", "_free", "_live", "_top", "moves")

    def __init__(
        self,
        region: Region,
        max_unit_pages: int,
        num_sizes: int | None = None,
    ):
        self.region = region
        self.sizes = buddy_sizes(max_unit_pages, num_sizes)
        # free lists per level: level 0 = Smax, level i = Smax / 2^i
        self._free: list[set[int]] = [set() for _ in self.sizes]
        self._live: dict[int, int] = {}  # start page -> level
        self._top: dict[int, int] = {}  # top-buddy start -> top extent start
        self.moves = 0

    # ------------------------------------------------------------------
    def level_for(self, npages: int) -> int:
        """Deepest (smallest) level whose buddy size holds ``npages``."""
        if npages > self.sizes[0]:
            raise AllocationError(
                f"cluster of {npages} pages exceeds Smax={self.sizes[0]}"
            )
        level = 0
        for i, size in enumerate(self.sizes):
            if size >= npages:
                level = i
            else:
                break
        return level

    # ------------------------------------------------------------------
    def allocate(self, npages: int) -> Extent:
        """Allocate the smallest buddy that fits ``npages`` pages."""
        if npages <= 0:
            raise AllocationError(f"cannot allocate {npages} pages")
        level = self.level_for(npages)
        start = self._take(level)
        self._live[start] = level
        return Extent(start, self.sizes[level])

    def _take(self, level: int) -> int:
        if self._free[level]:
            return self._free[level].pop()
        if level == 0:
            extent = self.region.allocate(self.sizes[0])
            self._top[extent.start] = extent.start
            return extent.start
        # Split a bigger buddy into two halves; keep the upper half free.
        parent = self._take(level - 1)
        half = self.sizes[level]
        if self.sizes[level - 1] != 2 * half:
            # Defensive: halving invariant guaranteed by buddy_sizes().
            raise AllocationError("buddy sizes are not exact halves")
        self._free[level].add(parent + half)
        return parent

    def free(self, extent: Extent) -> None:
        """Release a buddy and coalesce free siblings bottom-up."""
        level = self._live.pop(extent.start, None)
        if level is None:
            raise AllocationError(f"extent {extent} is not a live buddy")
        if self.sizes[level] != extent.npages:
            raise AllocationError(
                f"extent {extent} does not match its buddy size "
                f"{self.sizes[level]}"
            )
        start = extent.start
        while level > 0:
            size = self.sizes[level]
            top = self._top_start(start)
            offset = start - top
            # The sibling is the other half of the parent buddy: the pair
            # (2k, 2k+1) of size-`size` slots forms one parent of size 2*size.
            if (offset // size) % 2:
                sibling = start - size
            else:
                sibling = start + size
            if sibling in self._free[level]:
                self._free[level].remove(sibling)
                start = min(start, sibling)
                level -= 1
            else:
                break
        if level == 0:
            # A whole Smax buddy is free again: hand it back to the region.
            del self._top[start]
            self.region.free(Extent(start, self.sizes[0]))
        else:
            self._free[level].add(start)

    def _top_start(self, start: int) -> int:
        top_size = self.sizes[0]
        base = self.region.base
        return base + ((start - base) // top_size) * top_size

    # ------------------------------------------------------------------
    def grow(self, extent: Extent, npages: int) -> Extent:
        """Move a cluster unit into the smallest buddy holding ``npages``.

        Returns the extent unchanged when the unit still fits; otherwise
        frees the old buddy, allocates a bigger one and counts a *move*
        (the construction-cost overhead of Section 5.3.1).
        """
        if self.fits(extent, npages):
            return extent
        self.free(extent)
        new_extent = self.allocate(npages)
        self.moves += 1
        return new_extent

    def fits(self, extent: Extent, npages: int) -> bool:
        return npages <= extent.npages

    # ------------------------------------------------------------------
    @property
    def occupied_pages(self) -> int:
        """Pages bound by live buddies (the utilization denominator)."""
        return sum(self.sizes[level] for level in self._live.values())
