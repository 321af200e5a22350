"""Tests for the buddy system (Section 5.3.1) and fixed-unit storage."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.disk.allocator import PageAllocator
from repro.disk.buddy import BuddyAllocator, FixedUnitAllocator, buddy_sizes
from repro.disk.extent import Extent
from repro.errors import AllocationError

from tests.conftest import overlaps


def free_pages(alloc: BuddyAllocator) -> int:
    """Pages on the buddy free lists (0 once everything coalesced and
    went back to the region)."""
    return sum(alloc.sizes[level] * len(starts) for level, starts in enumerate(alloc._free))


def region():
    return PageAllocator(region_capacity=1 << 20).region("units")


class TestBuddySizes:
    def test_halving_until_odd(self):
        assert buddy_sizes(20) == [20, 10, 5]
        assert buddy_sizes(80) == [80, 40, 20, 10, 5]

    def test_power_of_two_goes_to_one(self):
        assert buddy_sizes(8) == [8, 4, 2, 1]

    def test_restricted(self):
        assert buddy_sizes(80, 3) == [80, 40, 20]

    def test_invalid(self):
        with pytest.raises(AllocationError):
            buddy_sizes(0)
        with pytest.raises(AllocationError):
            buddy_sizes(8, 0)


class TestFixedUnitAllocator:
    def test_always_full_smax(self):
        alloc = FixedUnitAllocator(region(), 20)
        e = alloc.allocate(3)
        assert e.npages == 20
        assert alloc.occupied_pages == 20

    def test_rejects_oversize(self):
        alloc = FixedUnitAllocator(region(), 20)
        with pytest.raises(AllocationError):
            alloc.allocate(21)

    def test_free_and_reuse(self):
        alloc = FixedUnitAllocator(region(), 20)
        e = alloc.allocate(5)
        alloc.free(e)
        assert alloc.occupied_pages == 0
        e2 = alloc.allocate(5)
        assert e2.start == e.start  # region free list reused

    def test_double_free_rejected(self):
        alloc = FixedUnitAllocator(region(), 20)
        e = alloc.allocate(5)
        alloc.free(e)
        with pytest.raises(AllocationError):
            alloc.free(e)

    def test_fits(self):
        alloc = FixedUnitAllocator(region(), 20)
        e = alloc.allocate(5)
        assert alloc.fits(e, 20)
        assert not alloc.fits(e, 21)

    def test_never_moves(self):
        assert FixedUnitAllocator(region(), 20).moves == 0


class TestBuddyAllocator:
    def test_smallest_fitting_buddy(self):
        alloc = BuddyAllocator(region(), 20)
        assert alloc.allocate(5).npages == 5
        assert alloc.allocate(6).npages == 10
        assert alloc.allocate(11).npages == 20

    def test_restricted_sizes(self):
        alloc = BuddyAllocator(region(), 80, num_sizes=3)
        assert alloc.allocate(1).npages == 20  # smallest allowed buddy

    def test_split_produces_sibling(self):
        alloc = BuddyAllocator(region(), 20)
        a = alloc.allocate(5)
        b = alloc.allocate(5)
        # Both halves of a 10-buddy carved from one 20-buddy.
        assert {a.start % 20, b.start % 20} <= {0, 5, 10, 15}
        assert alloc.occupied_pages == 10

    def test_coalescing_returns_top_buddy(self):
        alloc = BuddyAllocator(region(), 20)
        extents = [alloc.allocate(5) for _ in range(4)]
        for e in extents:
            alloc.free(e)
        assert alloc.occupied_pages == 0
        assert free_pages(alloc) == 0  # fully coalesced and given back

    def test_coalescing_non_power_of_two(self):
        # Smax=20 -> sizes 20/10/5; siblings at odd multiples of 5.
        alloc = BuddyAllocator(region(), 20)
        a = alloc.allocate(5)
        b = alloc.allocate(5)
        c = alloc.allocate(5)
        d = alloc.allocate(5)
        alloc.free(b)
        alloc.free(a)
        alloc.free(d)
        alloc.free(c)
        assert free_pages(alloc) == 0

    def test_oversize_rejected(self):
        alloc = BuddyAllocator(region(), 20)
        with pytest.raises(AllocationError):
            alloc.allocate(21)

    def test_free_unknown_rejected(self):
        alloc = BuddyAllocator(region(), 20)
        with pytest.raises(AllocationError):
            alloc.free(Extent(0, 5))

    def test_free_wrong_size_rejected(self):
        alloc = BuddyAllocator(region(), 20)
        e = alloc.allocate(5)
        with pytest.raises(AllocationError):
            alloc.free(Extent(e.start, 10))

    def test_grow_moves_to_bigger_buddy(self):
        alloc = BuddyAllocator(region(), 20)
        e = alloc.allocate(5)
        g = alloc.grow(e, 8)
        assert g.npages == 10
        assert alloc.moves == 1

    def test_grow_noop_when_fits(self):
        alloc = BuddyAllocator(region(), 20)
        e = alloc.allocate(5)
        assert alloc.grow(e, 4) == e
        assert alloc.moves == 0

    def test_level_for(self):
        alloc = BuddyAllocator(region(), 20)
        assert alloc.sizes[alloc.level_for(20)] == 20
        assert alloc.sizes[alloc.level_for(10)] == 10
        assert alloc.sizes[alloc.level_for(1)] == 5

    def test_utilization_bound(self):
        """The buddy system guarantees >= 50% utilization of each live
        buddy for requests above the smallest size."""
        alloc = BuddyAllocator(region(), 64)
        total_need = 0
        for need in (3, 5, 9, 17, 33, 64, 2, 31):
            e = alloc.allocate(need)
            assert e.npages < 2 * need or e.npages == alloc.sizes[-1]
            total_need += need
        assert alloc.occupied_pages <= 2 * total_need + len(alloc.sizes) * alloc.sizes[-1]


class TestBuddyProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(1, 80)),
            min_size=1,
            max_size=120,
        )
    )
    def test_live_buddies_never_overlap(self, ops):
        """Random allocate/free interleavings keep all live buddies
        disjoint, correctly sized, and coalescing never corrupts."""
        alloc = BuddyAllocator(region(), 80)
        live: list[Extent] = []
        for is_free, size in ops:
            if is_free and live:
                alloc.free(live.pop(size % len(live)))
            else:
                e = alloc.allocate(size)
                assert e.npages in alloc.sizes
                assert e.npages >= size or e.npages == alloc.sizes[-1] >= size
                for other in live:
                    assert not overlaps(e, other), (e, other)
                live.append(e)
        assert alloc.occupied_pages == sum(e.npages for e in live)
        for e in live:
            alloc.free(e)
        assert alloc.occupied_pages == 0
        assert free_pages(alloc) == 0
