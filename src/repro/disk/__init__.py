"""Disk substrate: cost model, extents, page and buddy allocation.

The disk never stores payload bytes — organization models keep state in
memory — it *prices* requests with the three-component access-time model
of Section 3.1 and tracks head position, so physically consecutive reads
are cheap and scattered reads pay seek + latency.
"""

from repro.disk.allocator import PageAllocator, Region
from repro.disk.buddy import BuddyAllocator, FixedUnitAllocator, buddy_sizes
from repro.disk.extent import Extent
from repro.disk.model import DiskModel, DiskStats, VectoredCost
from repro.disk.params import DiskParameters

__all__ = [
    "DiskParameters",
    "DiskModel",
    "DiskStats",
    "VectoredCost",
    "Extent",
    "Region",
    "PageAllocator",
    "BuddyAllocator",
    "FixedUnitAllocator",
    "buddy_sizes",
]
