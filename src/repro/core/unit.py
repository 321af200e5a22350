"""Cluster units — the heart of the cluster organization (Section 4.2).

A cluster unit is an extent of physically consecutive pages holding the
exact representations of all objects whose MBRs live in one R*-tree data
page.  Objects are stored in arbitrary order (no local clustering inside
a unit); for each object only internal clustering holds: it occupies a
contiguous byte range, i.e. at most one page more than the minimum.

The unit tracks byte placement so the query techniques can translate
"these objects" into "these relative pages".  Deletions leave dead space
(cheap); :meth:`repack` compacts when a split or move rewrites the unit
anyway.
"""

from __future__ import annotations

from repro.disk.extent import Extent
from repro.errors import StorageError

__all__ = ["ClusterUnit"]


class ClusterUnit:
    """Byte-level bookkeeping of one cluster unit.

    Parameters
    ----------
    extent:
        The physical unit (a full ``Smax`` extent, or a buddy).
    page_size:
        Page size in bytes.
    """

    __slots__ = ("extent", "page_size", "tail_bytes", "live", "live_bytes", "owner")

    def __init__(self, extent: Extent, page_size: int):
        self.extent = extent
        self.page_size = page_size
        self.tail_bytes = 0
        self.live: dict[int, tuple[int, int]] = {}  # oid -> (offset, size)
        self.live_bytes = 0
        #: the data page (leaf node) this unit belongs to, set by the
        #: cluster organization; used to clear the back-reference when
        #: the unit empties out.
        self.owner = None

    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        return self.extent.npages * self.page_size

    @property
    def used_pages(self) -> int:
        """Pages covered by the append tail (what a *complete* read
        transfers)."""
        return -(-self.tail_bytes // self.page_size) if self.tail_bytes else 0

    def fits(self, size_bytes: int) -> bool:
        """True if an append of ``size_bytes`` stays inside the extent."""
        return self.tail_bytes + size_bytes <= self.capacity_bytes

    def would_fit_after_repack(self, size_bytes: int) -> bool:
        """True if compacting dead space would make the append fit."""
        return self.live_bytes + size_bytes <= self.capacity_bytes

    # ------------------------------------------------------------------
    def append(self, oid: int, size_bytes: int) -> tuple[int, int]:
        """Append an object at the tail.

        Returns ``(completed_start, completed_count)`` — the relative
        range of pages *completed* by this append (the write-behind
        pricing unit; the partially filled tail page stays buffered).
        """
        if oid in self.live:
            raise StorageError(f"object {oid} is already in this cluster unit")
        if size_bytes <= 0:
            raise StorageError(f"object size must be positive, got {size_bytes}")
        offset = self.tail_bytes
        self.live[oid] = (offset, size_bytes)
        self.live_bytes += size_bytes
        self.tail_bytes += size_bytes
        completed_before = offset // self.page_size
        completed_after = self.tail_bytes // self.page_size
        return completed_before, completed_after - completed_before

    def remove(self, oid: int) -> None:
        """Logically delete an object (dead space until a repack)."""
        offset_size = self.live.pop(oid, None)
        if offset_size is None:
            raise StorageError(f"object {oid} is not in this cluster unit")
        self.live_bytes -= offset_size[1]
        if not self.live:
            self.tail_bytes = 0

    def repack(self) -> None:
        """Compact live objects to the front, eliminating dead space.

        Callers price the physical rewrite (read + write of the used
        pages) themselves.
        """
        offset = 0
        packed: dict[int, tuple[int, int]] = {}
        for oid, (_old, size) in self.live.items():
            packed[oid] = (offset, size)
            offset += size
        self.live = packed
        self.tail_bytes = offset

    # ------------------------------------------------------------------
    # page geometry
    # ------------------------------------------------------------------
    def page_span(self, oid: int) -> tuple[int, int]:
        """``(first_relative_page, page_count)`` of one object."""
        try:
            offset, size = self.live[oid]
        except KeyError:
            raise StorageError(f"object {oid} is not in this cluster unit") from None
        first = offset // self.page_size
        last = (offset + size - 1) // self.page_size
        return first, last - first + 1

    def requested_pages(self, oids: list[int]) -> list[int]:
        """Sorted distinct relative pages covering the given objects —
        the request set of the SLM technique (Section 5.4.2)."""
        pages: set[int] = set()
        for oid in oids:
            first, count = self.page_span(oid)
            pages.update(range(first, first + count))
        return sorted(pages)

    def __repr__(self) -> str:
        return (
            f"ClusterUnit(extent={self.extent}, objects={len(self.live)}, "
            f"{self.tail_bytes}/{self.capacity_bytes}B)"
        )
