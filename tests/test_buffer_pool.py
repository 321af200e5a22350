"""Tests for the buffer pool and the pluggable replacement policies."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.buffer import LRUBuffer
from repro.buffer.policy import (
    POLICIES,
    ClockBuffer,
    FIFOBuffer,
    LRUKBuffer,
    ReplacementPolicy,
    make_buffer,
)
from repro.buffer.pool import BufferPool, coalesce_pages
from repro.disk.model import DiskModel
from repro.errors import ConfigurationError
from repro.iosched.request import AccessPlan


class TestCoalesce:
    def test_adjacent_merge(self):
        assert coalesce_pages([1, 2, 3, 7, 8, 12]) == [(1, 3), (7, 2), (12, 1)]

    def test_empty(self):
        assert coalesce_pages([]) == []

    def test_single(self):
        assert coalesce_pages([5]) == [(5, 1)]

    def test_unsorted_rejected(self):
        with pytest.raises(ConfigurationError):
            coalesce_pages([3, 1])


class TestPolicies:
    def test_registry(self):
        assert set(POLICIES) == {"lru", "fifo", "clock", "lru-k"}
        for name in POLICIES:
            buf = make_buffer(name, 4)
            assert isinstance(buf, ReplacementPolicy)
            assert buf.capacity == 4

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            make_buffer("mru", 4)

    def test_capacity_validated(self):
        for name in POLICIES:
            with pytest.raises(ConfigurationError):
                make_buffer(name, 0)

    def test_fifo_ignores_recency(self):
        buf = FIFOBuffer(2)
        buf.admit_all(["a", "b"])
        buf.access_all(["a"])  # would save "a" under LRU
        buf.admit_all(["c"])
        assert "a" not in buf and "b" in buf and "c" in buf

    def test_lru_respects_recency(self):
        buf = LRUBuffer(2)
        buf.admit_all(["a", "b"])
        buf.access_all(["a"])
        buf.admit_all(["c"])
        assert "a" in buf and "b" not in buf

    def test_clock_second_chance(self):
        buf = ClockBuffer(2)
        buf.admit_all(["a", "b"])
        buf.admit_all(["c"])  # full sweep clears the load bits, evicts oldest
        assert "a" not in buf
        buf.access_all(["b"])  # re-referenced: survives the next sweep
        buf.admit_all(["d"])  # hand passes b (clears bit), evicts c
        assert "b" in buf and "c" not in buf and "d" in buf

    def test_clock_new_page_survives_its_own_admission(self):
        """A freshly loaded page sits behind the hand with its bit set
        and must never be the victim of the sweep it triggered."""
        buf = ClockBuffer(3)
        buf.admit_all(["a", "b", "c"])
        buf.access_all(["a", "b"])
        buf.access_all(["c"])  # hot set: every bit set
        buf.admit_all(["d"])
        assert "d" in buf and "a" not in buf

    def test_lruk_prefers_single_touch_victims(self):
        buf = LRUKBuffer(3, k=2)
        buf.admit_all(["hot"])
        buf.access_all(["hot"])  # two references
        buf.admit_all(["scan1", "scan2"])
        buf.admit_all(["scan3"])  # evicts a single-touch page, never "hot"
        assert "hot" in buf
        assert len(buf) == 3

    def test_lruk_k_validated(self):
        with pytest.raises(ConfigurationError):
            LRUKBuffer(4, k=0)

    def test_eviction_callback_dirty_flag(self):
        out = []
        for name in POLICIES:
            buf = make_buffer(name, 1, on_evict=lambda k, d: out.append((k, d)))
            buf.admit_all(["a"], dirty=True)
            buf.admit_all(["b"])
            assert out[-1] == ("a", True), name

    def test_flush_counts_evictions(self):
        # The satellite fix: flush-time evictions show up in the stats.
        for name in POLICIES:
            buf = make_buffer(name, 8)
            buf.admit_all(["a", "b", "c"], dirty=True)
            buf.flush()
            assert buf.evictions == 3, name
            assert len(buf) == 0

    def test_dirty_bookkeeping(self):
        for name in POLICIES:
            buf = make_buffer(name, 8)
            buf.admit_all(["a"], dirty=True)
            buf.admit_all(["b"])
            assert buf.dirty_keys() == ["a"], name
            buf.mark_clean("a")
            assert buf.dirty_keys() == [], name


class TestPassThroughPool:
    """Capacity-0 pools price exactly like the bare disk model."""

    def test_read_prices_like_disk(self):
        pool_disk, raw_disk = DiskModel(), DiskModel()
        pool = BufferPool(pool_disk)
        assert pool.read(100, 4) == raw_disk.read(100, 4)
        assert pool.read(104, 2) == raw_disk.read(104, 2)  # sequential
        assert pool.read(7, 3, continuation=True) == raw_disk.read(
            7, 3, continuation=True
        )
        assert pool_disk.stats() == raw_disk.stats()

    def test_write_prices_like_disk(self):
        disk = DiskModel()
        pool = BufferPool(disk)
        assert pool.write(5, 2) == 9 + 6 + 2

    def test_nothing_resident(self):
        pool = BufferPool(DiskModel())
        pool.read(0, 4)
        assert 0 not in pool
        assert len(pool) == 0
        assert pool.policy == "none"
        assert pool.hit_rate == 0.0

    def test_flush_noop(self):
        pool = BufferPool(DiskModel())
        assert pool.flush() == 0.0


class TestCachingPool:
    def test_hit_is_free(self):
        disk = DiskModel()
        pool = BufferPool(disk, capacity=8)
        pool.read(10, 1)
        before = disk.stats()
        pool.read(10, 1)
        assert (disk.stats() - before).requests == 0
        assert pool.hits == 1 and pool.misses == 1

    def test_read_coalesces_missing_runs(self):
        disk = DiskModel()
        pool = BufferPool(disk, capacity=16)
        pool.admit(12)  # page in the middle is already resident
        before = disk.stats()
        pool.read(10, 5)  # 10..14 -> missing runs (10,2) and (13,2)
        delta = disk.stats() - before
        assert delta.requests == 2
        assert delta.pages_transferred == 4
        # second run priced as a continuation: one seek total
        assert delta.seeks == 1

    def test_write_back_on_eviction(self):
        disk = DiskModel()
        pool = BufferPool(disk, capacity=1)
        pool.write(5, 1)
        before = disk.stats()
        pool.read(6, 1)  # evicts dirty page 5
        delta = disk.stats() - before
        assert delta.requests == 2  # the read plus the write-back

    def test_flush_coalesced_write_back(self):
        disk = DiskModel()
        pool = BufferPool(disk, capacity=16)
        pool.write(3, 1)
        pool.write(4, 1)
        pool.write(9, 1)
        before = disk.stats()
        pool.flush(coalesce=True)
        delta = disk.stats() - before
        assert delta.pages_transferred == 3
        assert delta.requests == 2  # runs (3,2) and (9,1)
        assert len(pool) == 0

    def test_fetch_ignores_residency(self):
        disk = DiskModel()
        pool = BufferPool(disk, capacity=8)
        pool.admit(11)
        before = disk.stats()
        pool.fetch(10, 3)
        delta = disk.stats() - before
        assert delta.requests == 1 and delta.pages_transferred == 3
        assert all(p in pool for p in (10, 11, 12))

    def test_pool_policy_name(self):
        assert BufferPool(DiskModel(), capacity=4, policy="clock").policy == "clock"
        assert BufferPool(DiskModel(), capacity=4).policy == "lru"

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            BufferPool(DiskModel(), capacity=-1)

    @pytest.mark.parametrize("pages", [[3, 3, 5], [5, 5, 7], [3, 5, 4, 6]])
    @pytest.mark.parametrize("entry", ["read_pages", "load_pages"])
    def test_pages_not_sorted_and_distinct_are_refused(self, entry, pages):
        """A page list whose ends happen to lie ``len - 1`` apart is no
        run unless it is sorted and distinct: nothing is priced or
        admitted for it, page 4 included."""
        disk = DiskModel()
        pool = BufferPool(disk, capacity=16)
        with pytest.raises(ConfigurationError, match="sorted and distinct"):
            getattr(pool, entry)(pages)
        assert disk.stats().requests == 0 and len(pool.frames) == 0

    def test_read_pages_scattered(self):
        disk = DiskModel()
        pool = BufferPool(disk, capacity=16)
        before = disk.stats()
        pool.read_pages([1, 2, 3, 9, 10])
        delta = disk.stats() - before
        assert delta.requests == 2
        assert delta.seeks == 1  # follow-up run is a continuation
        assert delta.pages_transferred == 5

    def test_read_pages_pass_through_first_access_seek(self):
        """Regression (seek-accounting audit): in pass-through mode the
        first run of `read_pages` must charge exactly the positioning
        seek that the equivalent `read()` sequence charges — one fresh
        request, follow-up runs as continuations."""
        disk = DiskModel()
        pool = BufferPool(disk, capacity=0)
        cost = pool.read_pages([5, 6, 9, 10, 20])
        stats = disk.stats()
        assert stats.seeks == 1  # one positioning seek for the batch
        assert stats.rotations == 3  # one latency per run
        assert stats.pages_transferred == 5
        # ... identical to pricing the runs through read():
        other = DiskModel()
        reference = BufferPool(other, capacity=0)
        expected = reference.read(5, 2)
        expected += reference.read(9, 2, continuation=True)
        expected += reference.read(20, 1, continuation=True)
        assert cost == pytest.approx(expected)
        assert disk.stats() == other.stats()
        assert pool.misses == 5 and pool.hits == 0

    def test_read_pages_continuation_flag(self):
        """`read_pages` accepts the same continuation flag as `read()`:
        a caller already positioned inside a cluster unit pays no
        fresh seek for the first run."""
        disk = DiskModel()
        pool = BufferPool(disk, capacity=0)
        cost = pool.read_pages([5, 6, 9], continuation=True)
        stats = disk.stats()
        assert stats.seeks == 0
        assert stats.rotations == 2
        assert cost == pytest.approx(
            disk.params.continuation_ms(2) + disk.params.continuation_ms(1)
        )

    def test_read_pages_first_transferred_run_pays_seek_after_hits(self):
        """With a warm pool, leading resident pages must not hand the
        continuation discount to the first run that actually
        transfers (the same rule read() follows)."""
        disk = DiskModel()
        pool = BufferPool(disk, capacity=16)
        pool.admit(1)
        pool.admit(2)
        before = disk.stats()
        pool.read_pages([1, 2, 9, 10])
        delta = disk.stats() - before
        assert delta.seeks == 1  # the (9, 2) run is a fresh request
        assert delta.pages_transferred == 2

    def test_per_object_read_seek_survives_absorbed_first_access(self):
        """When a warm pool fully absorbs the first object's access,
        the next transferring access must still pay the positioning
        seek instead of inheriting the continuation discount."""
        from repro.core.techniques import plan_per_object
        from repro.core.unit import ClusterUnit
        from repro.disk.extent import Extent
        from tests.conftest import run_plan

        unit = ClusterUnit(Extent(100, 8), 4096)
        unit.append(1, 4096)  # relative page 0
        unit.append(2, 4096)  # relative page 1
        disk = DiskModel()
        pool = BufferPool(disk, capacity=8)
        pool.admit(100)  # object 1 fully resident
        before = disk.stats()
        run_plan(plan_per_object, pool, unit, [1, 2])
        delta = disk.stats() - before
        assert delta.seeks == 1  # the transfer for object 2 is fresh
        assert delta.pages_transferred == 1

    def test_discard_drops_dirty_without_write(self):
        disk = DiskModel()
        pool = BufferPool(disk, capacity=4)
        pool.write(7, 1)
        pool.discard(7)
        before = disk.stats()
        pool.flush()
        assert (disk.stats() - before).requests == 0


# ----------------------------------------------------------------------
# run-level pool calls == the per-page pool they replaced
# ----------------------------------------------------------------------
class PerPagePool:
    """The reference: the pool primitives as they were before they
    worked a run at a time — ``access`` / ``admit`` page by page, each
    spelled out down to the frame table's dict operations — driving a
    real :class:`BufferPool`'s state.  The pool's eviction hook hears of
    dirty and read-ahead victims only: a clean victim needs nothing."""

    def __init__(self, pool: BufferPool):
        self.pool = pool

    def access(self, page: int) -> bool:
        pool, frames = self.pool, self.pool.frames
        if page in frames._entries:
            if frames._note_hit is not None:
                frames._note_hit(page)
            frames.hits += 1
            pool.hits += 1
            if page in pool._prefetched:
                pool._prefetched.discard(page)
                pool._pf_useful.inc()
            return True
        frames.misses += 1
        pool.misses += 1
        return False

    def admit(self, page: int, dirty: bool = False) -> None:
        frames = self.pool.frames
        if page in frames._entries:
            frames._entries[page] = frames._entries[page] or dirty
            if frames._note_hit is not None:
                frames._note_hit(page)
            return
        frames._entries[page] = dirty
        if frames._note_admit is not None:
            frames._note_admit(page)
        while len(frames._entries) > frames.capacity:
            if frames._pop_victim is None:
                victim, was_dirty = frames._entries.popitem(last=False)
            else:
                victim, was_dirty = frames._pop_victim()
            frames.evictions += 1
            if was_dirty or victim in self.pool._prefetched:
                frames.on_evict(victim, was_dirty)

    def _transfer(self, missing: list[int]) -> float:
        """Price the missing pages as one batch of coalesced runs."""
        return self.pool.disk.read_runs(coalesce_pages(missing)) if missing else 0.0

    # -- the pool entry points, page by page ----------------------------
    def read(self, start: int, npages: int) -> float:
        missing = [p for p in range(start, start + npages) if not self.access(p)]
        cost = self._transfer(missing)
        for page in missing:
            self.admit(page)
        return cost

    def get(self, page: int) -> float:
        if self.access(page):
            return 0.0
        cost = self.pool.disk.read(page, 1)
        self.admit(page)
        return cost

    def write(self, start: int, npages: int) -> float:
        for page in range(start, start + npages):
            self.admit(page, dirty=True)
        return 0.0

    def fetch(self, start: int, npages: int) -> float:
        cost = self.pool.disk.read(start, npages)
        for page in range(start, start + npages):
            self.admit(page)
        return cost

    def load_pages(self, pages) -> float:
        missing = [p for p in pages if p not in self.pool.frames]
        cost = self._transfer(missing)
        for page in missing:
            self.admit(page)
        return cost

    def discard(self, page: int) -> None:
        self.pool.discard(page)


class RunLevelPool(PerPagePool):
    """The same entry points through the pool's own run-level calls."""

    def read(self, start, npages):
        return self.pool.read(start, npages)

    def get(self, page):
        return self.pool.submit(AccessPlan("node.read").get(page))

    def write(self, start, npages):
        return self.pool.write(start, npages)

    def fetch(self, start, npages):
        return self.pool.fetch(start, npages)

    def load_pages(self, pages):
        return self.pool.load_pages(pages)


def _observed_pool(driver, policy: str, capacity: int):
    pool = BufferPool(DiskModel(), capacity=capacity, policy=policy)
    evicted: list[tuple[int, bool]] = []
    write_back = pool.frames.on_evict

    def on_evict(page, dirty):
        evicted.append((page, dirty))
        write_back(page, dirty)

    pool.frames.on_evict = on_evict
    return driver(pool), pool, evicted


def _pool_state(pool: BufferPool, evicted):
    frames = pool.frames
    state = {
        "pool": (pool.hits, pool.misses, pool.evictions),
        "frames": (frames.hits, frames.misses, frames.evictions),
        "entries": list(frames._entries.items()),
        "evicted": list(evicted),
        "disk": pool.disk.stats(),
        "prefetched": sorted(pool._prefetched),
        "prefetch": pool.prefetch_stats(),
    }
    if isinstance(frames, LRUKBuffer):
        state["history"] = dict(frames._history)
        state["tick"] = frames._tick
        # The victims the heap would hand out next, in order.
        twin_heap = sorted(frames._heap)
        state["victims"] = [
            key
            for kth, last, key in twin_heap
            if key in frames._entries and frames._rank(key) == (kth, last)
        ]
    elif isinstance(frames, ClockBuffer):
        state["referenced"] = dict(frames._referenced)
    return state


_pages = st.integers(0, 23)
_pool_ops = st.lists(
    st.one_of(
        st.tuples(st.just("read"), _pages, st.integers(1, 12)),
        st.tuples(st.just("get"), _pages),
        st.tuples(st.just("write"), _pages, st.integers(1, 6)),
        st.tuples(st.just("fetch"), _pages, st.integers(1, 6)),
        st.tuples(st.just("load_pages"), st.lists(_pages, max_size=8).map(lambda p: sorted(set(p)))),
        st.tuples(st.just("discard"), _pages),
    ),
    max_size=40,
)


class TestRunLevelEqualsPerPage:
    @pytest.mark.parametrize("capacity", [1, 3, 8])
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @settings(max_examples=40, deadline=None)
    @given(ops=_pool_ops)
    def test_random_interleavings(self, policy, capacity, ops):
        sides = [
            _observed_pool(driver, policy, capacity)
            for driver in (PerPagePool, RunLevelPool)
        ]
        for name, *args in ops:
            costs = [getattr(driver, name)(*args) for driver, _pool, _ev in sides]
            assert costs[0] == costs[1], (name, args)
        reference, run_level = (_pool_state(pool, ev) for _d, pool, ev in sides)
        assert run_level == reference

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_a_run_larger_than_the_pool_evicts_its_own_head(self, policy):
        sides = [_observed_pool(d, policy, 3) for d in (PerPagePool, RunLevelPool)]
        for driver, _pool, _ev in sides:
            driver.write(40, 2)  # dirty victims: write-back order is observable
            driver.read(10, 8)
            driver.read(12, 3)
        reference, run_level = (_pool_state(pool, ev) for _d, pool, ev in sides)
        assert run_level == reference
        assert run_level["evicted"] == [(40, True), (41, True)]
        assert 10 not in dict(run_level["entries"]), "the run's own head left"
        assert len(run_level["entries"]) == 3

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_prefetched_pages_keep_their_per_page_bookkeeping(self, policy):
        """A demand hit on a read-ahead page is *useful*, its eviction
        before any hit *wasted* — counted page by page inside a run."""
        sides = [_observed_pool(d, policy, 6) for d in (PerPagePool, RunLevelPool)]
        for driver, pool, _ev in sides:
            driver.load_pages([20, 21, 22, 23])
            pool._prefetched.update([20, 21, 22, 23])  # as _prefetch_after marks them
            driver.read(19, 3)  # 19 misses; 20, 21 are useful
            driver.read(0, 6)  # pushes 22, 23 out unused
        reference, run_level = (_pool_state(pool, ev) for _d, pool, ev in sides)
        assert run_level == reference
        assert run_level["prefetch"]["useful"] == 2
        assert run_level["prefetch"]["wasted"] == 2
        assert run_level["prefetched"] == []
