"""Tests for page regions and the global allocator."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.disk.allocator import PageAllocator, Region
from repro.disk.extent import Extent
from repro.errors import AllocationError

from tests.conftest import allocated_pages, overlaps


class TestRegion:
    def test_bump_allocation_is_consecutive(self):
        region = Region("r", base=100, capacity=1000)
        a = region.allocate(3)
        b = region.allocate(2)
        assert a == Extent(100, 3)
        assert b == Extent(103, 2)

    def test_free_reuse_first_fit(self):
        region = Region("r", 0, 1000)
        a = region.allocate(4)
        region.allocate(4)
        region.free(a)
        c = region.allocate(2)  # reuses the freed hole, split
        assert c.start == a.start
        d = region.allocate(2)  # remainder of the hole
        assert d.start == a.start + 2

    def test_exhaustion(self):
        region = Region("r", 0, 10)
        region.allocate(8)
        with pytest.raises(AllocationError):
            region.allocate(3)

    def test_zero_alloc_rejected(self):
        with pytest.raises(AllocationError):
            Region("r", 0, 10).allocate(0)

    def test_free_foreign_extent_rejected(self):
        region = Region("r", 100, 10)
        with pytest.raises(AllocationError):
            region.free(Extent(0, 5))

    def test_accounting(self):
        region = Region("r", 0, 100)
        a = region.allocate(10)
        region.allocate(5)
        region.free(a)
        assert allocated_pages(region) == 5
        assert region.high_water_pages == 15

    @given(st.lists(st.integers(1, 10), min_size=1, max_size=50))
    def test_no_overlap_between_live_extents(self, sizes):
        region = Region("r", 0, 10_000)
        live: list[Extent] = []
        for i, size in enumerate(sizes):
            e = region.allocate(size)
            for other in live:
                assert not overlaps(e, other)
            live.append(e)
            if i % 3 == 2:
                region.free(live.pop(0))


class TestPageAllocator:
    def test_regions_disjoint(self):
        alloc = PageAllocator(region_capacity=1000)
        r1 = alloc.region("a")
        r2 = alloc.region("b")
        e1 = r1.allocate(10)
        e2 = r2.allocate(10)
        assert not overlaps(e1, e2)
        assert abs(e1.start - e2.start) >= 1000

    def test_region_get_or_create(self):
        alloc = PageAllocator()
        assert alloc.region("x") is alloc.region("x")

    def test_invalid_capacity(self):
        with pytest.raises(AllocationError):
            PageAllocator(region_capacity=0)

    def test_regions_listing(self):
        alloc = PageAllocator()
        alloc.region("a")
        alloc.region("b")
        assert set(alloc.regions()) == {"a", "b"}
