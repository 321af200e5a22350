"""Tests for the sharded multi-disk page store behind the buffer pool."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.buffer.pool import BufferPool
from repro.database import SpatialDatabase
from repro.disk.extent import Extent
from repro.disk.model import DiskModel
from repro.disk.params import DiskParameters
from repro.errors import ConfigurationError
from repro.geometry.rect import Rect
from repro.pagestore.placement import (
    DEFAULT_CHUNK_PAGES,
    PLACEMENTS,
    HashPlacement,
    RoundRobinPlacement,
    SpatialPlacement,
    make_placement,
)
from repro.pagestore.store import ShardedPageStore, VectoredCost

from tests.conftest import make_objects


class TestProtocol:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ShardedPageStore(0)
        with pytest.raises(ConfigurationError):
            ShardedPageStore(2, placement="pixie-dust")
        with pytest.raises(ConfigurationError):
            make_placement("round_robin", chunk_pages=0)

    def test_registry(self):
        assert set(PLACEMENTS) == {"round_robin", "hash", "spatial"}


class TestSingleDiskEquivalence:
    """One shard must price every request exactly like a bare disk."""

    def test_request_sequence_identical(self):
        disk = DiskModel()
        store = ShardedPageStore(1)
        ops = [
            ("read", 10, 4, False),
            ("read", 14, 2, False),  # sequential: head continues
            ("write", 40, 3, False),
            ("read", 100, 1, True),  # continuation
            ("read", 7, 2, False),
        ]
        for kind, start, npages, continuation in ops:
            a = getattr(disk, kind)(start, npages, continuation)
            b = getattr(store, kind)(start, npages, continuation)
            assert a == b
        assert disk.stats() == store.stats()
        assert store.response_ms == disk.total_ms

    def test_charge_identical(self):
        disk = DiskModel()
        store = ShardedPageStore(1)
        assert disk.charge(seeks=2, rotations=1, pages=5) == store.charge(
            seeks=2, rotations=1, pages=5
        )
        assert disk.stats() == store.stats()

    def test_read_runs_identical(self):
        disk = DiskModel()
        store = ShardedPageStore(1)
        runs = [(3, 2), (9, 1), (20, 4)]
        assert disk.read_runs(runs) == store.read_runs(runs)
        assert disk.stats() == store.stats()

    def test_measurement_surface_uniform(self):
        """DiskModel speaks the same snapshot/cost_since/measure surface
        as the sharded store, with response == device time."""
        disk = DiskModel()
        with disk.measure() as cost:
            disk.read(0, 4)
            disk.read(50, 2)
        assert cost.response_ms == pytest.approx(cost.total_ms)
        assert cost.total_ms == pytest.approx(disk.total_ms)
        assert cost.parallelism == 1.0
        assert cost.per_disk_ms == [cost.total_ms]


class TestSplitPricing:
    def test_span_across_two_disks(self):
        """chunk_pages=4, 2 disks: pages 0-3 on disk 0, 4-7 on disk 1.
        A fresh 8-page read seeks on both arms concurrently."""
        store = ShardedPageStore(2, placement="round_robin", chunk_pages=4)
        params = store.params
        response = store.read(0, 8)
        per_disk = params.random_access_ms(4)  # ts + tl + 4*tt
        assert response == pytest.approx(per_disk)
        assert store.total_ms == pytest.approx(2 * per_disk)
        stats = store.per_disk_stats()
        assert [s.pages_transferred for s in stats] == [4, 4]
        assert [s.seeks for s in stats] == [1, 1]

    def test_refragmented_span_same_disk_continues(self):
        """chunk_pages=2, 2 disks: a request touching a disk twice pays
        the positioning once — the second fragment is a continuation."""
        store = ShardedPageStore(2, placement="round_robin", chunk_pages=2)
        params = store.params
        response = store.read(0, 8)  # disk0: 0-1, 4-5; disk1: 2-3, 6-7
        per_disk = params.random_access_ms(2) + params.continuation_ms(2)
        assert response == pytest.approx(per_disk)
        assert store.total_ms == pytest.approx(2 * per_disk)

    def test_response_is_max_device_is_sum(self):
        store = ShardedPageStore(4, placement="round_robin", chunk_pages=1)
        with store.measure() as cost:
            store.read(0, 4)  # one page per disk
        assert cost.response_ms == pytest.approx(store.params.random_access_ms(1))
        assert cost.total_ms == pytest.approx(4 * store.params.random_access_ms(1))
        assert cost.parallelism == pytest.approx(4.0)

    def test_batched_runs_position_every_arm(self):
        """Regression: a coalesced batch whose follow-up run lands on a
        *different* disk must not hand that arm the cross-run
        continuation discount — every device positions its own arm
        once per batch."""
        store = ShardedPageStore(2, placement="round_robin", chunk_pages=8)
        pool = BufferPool(store, capacity=0)
        pool.read_pages([0, 8])  # run (0,1) on disk 0, run (8,1) on disk 1
        stats = store.per_disk_stats()
        assert [s.seeks for s in stats] == [1, 1]
        assert [s.rotations for s in stats] == [1, 1]
        # ... identical to one spanning read over the same two arms.
        reference = ShardedPageStore(2, placement="round_robin", chunk_pages=1)
        reference.read(0, 2)
        assert [s.seeks for s in reference.per_disk_stats()] == [1, 1]

    def test_batched_runs_same_disk_keep_continuation(self):
        """Two coalesced runs on one disk still pay one positioning
        seek — the single-disk batch semantics are unchanged."""
        store = ShardedPageStore(2, placement="round_robin", chunk_pages=8)
        cost = store.read_runs([(0, 2), (5, 2)])
        total = store.stats()
        assert total.seeks == 1
        assert total.rotations == 2
        assert cost == pytest.approx(
            store.params.random_access_ms(2) + store.params.continuation_ms(2)
        )

    def test_sequential_detection_per_disk(self):
        """Each device keeps its own head: re-reading the next pages of
        a shard is sequential on that shard only."""
        store = ShardedPageStore(2, placement="round_robin", chunk_pages=8)
        store.read(0, 2)  # disk 0, head at 2
        cost = store.read(2, 2)  # disk 0 again, strictly sequential
        assert cost == pytest.approx(store.params.sequential_ms(2))

    def test_stats_sum_over_disks(self):
        store = ShardedPageStore(3, placement="round_robin", chunk_pages=1)
        store.read(0, 3)
        store.write(0, 1)
        total = store.stats()
        assert total.requests == 4
        assert total.pages_transferred == 4
        assert total == sum(store.per_disk_stats(), type(total)())

    def test_reset(self):
        store = ShardedPageStore(2)
        store.read(0, 4)
        store.reset()
        assert store.total_ms == 0.0
        assert store.response_ms == 0.0
        assert all(s.requests == 0 for s in store.per_disk_stats())


class TestPlacement:
    def test_round_robin_stripes_chunks(self):
        p = RoundRobinPlacement(chunk_pages=4)
        p.bind(3)
        assert [p.disk_of(i) for i in (0, 3, 4, 8, 12)] == [0, 0, 1, 2, 0]

    def test_hash_is_deterministic_and_balanced(self):
        p = HashPlacement(chunk_pages=1)
        p.bind(4)
        a = [p.disk_of(i) for i in range(4000)]
        b = [p.disk_of(i) for i in range(4000)]
        assert a == b
        counts = [a.count(d) for d in range(4)]
        assert min(counts) > 0.8 * max(counts)

    def test_spatial_pins_by_hilbert_center(self):
        p = SpatialPlacement(data_space=100.0)
        p.bind(4)
        extent = Extent(40, 4)
        p.place_extent(extent, center=(10.0, 10.0))
        pinned = {p.disk_of(page) for page in extent.pages()}
        assert len(pinned) == 1  # the whole extent on one disk
        # Determinism: placing again chooses the same disk.
        disk = pinned.pop()
        p.forget_extent(extent)
        p.place_extent(extent, center=(10.0, 10.0))
        assert p.disk_of(40) == disk

    def test_spatial_neighbours_spread_over_disks(self):
        """Cluster units along a line of adjacent regions must not pile
        on one disk — that is the whole point of declustering."""
        p = SpatialPlacement(data_space=1000.0)
        p.bind(4)
        disks = []
        for i in range(16):
            extent = Extent(i * 8, 8)
            p.place_extent(extent, center=(60.0 * i + 30.0, 500.0))
            disks.append(p.disk_of(extent.start))
        assert len(set(disks)) == 4
        counts = [disks.count(d) for d in range(4)]
        assert max(counts) <= 8  # no disk hoards the line

    def test_spatial_without_center_falls_back_to_striping(self):
        p = SpatialPlacement()
        p.bind(2)
        p.place_extent(Extent(0, 4))  # no hint: declined
        assert p.pinned_pages == 0
        assert p.disk_of(0) == (0 // p.chunk_pages) % 2

    def test_explicit_pin_overrides_policy(self):
        store = ShardedPageStore(4, placement="spatial")
        extent = Extent(0, 8)
        store.place_extent(extent, disk=3)
        assert all(store.disk_of(page) == 3 for page in extent.pages())
        store.forget_extent(extent)
        assert store.disk_of(0) == 0  # back to the striping default

    def test_default_chunk(self):
        assert RoundRobinPlacement().chunk_pages == DEFAULT_CHUNK_PAGES

    def test_placement_instance_accepted(self):
        policy = HashPlacement(chunk_pages=2)
        store = ShardedPageStore(2, placement=policy)
        assert store.placement is policy
        assert policy.n_disks == 2
        with pytest.raises(ConfigurationError):
            ShardedPageStore(2, placement=HashPlacement(chunk_pages=2), chunk_pages=4)

    def test_policy_instance_cannot_serve_two_stores(self):
        """Regression: reusing one policy instance for a store with a
        different disk count would leave out-of-range pins (IndexError
        on read) or silently remap the first store's routing — it is
        refused outright."""
        policy = RoundRobinPlacement()
        big = ShardedPageStore(8, placement=policy)
        big.place_extent(Extent(0, 4), disk=5)
        with pytest.raises(ConfigurationError):
            ShardedPageStore(2, placement=policy)
        # The first store's routing is untouched by the failed bind.
        assert big.disk_of(0) == 5
        policy.bind(8)  # re-binding with the same count is harmless


class TestExtentPinsEqualPagePins:
    """The placement keeps its pins as extents; a plain ``{page: disk}``
    table driven by the same ``place_extent`` / ``forget_extent`` calls
    — overlapping, nested, re-pinned, partially forgotten — is the
    model it must agree with page by page and run by run."""

    SPACE = 96  # pages the generated extents and queries live in

    extents = st.tuples(st.integers(0, SPACE - 1), st.integers(1, 24))
    steps = st.lists(
        st.tuples(st.sampled_from(["place", "place", "forget"]), extents, st.integers(0, 7)),
        max_size=30,
    )

    @staticmethod
    def _model_fragments(owner, start, npages):
        runs = []
        for page in range(start, start + npages):
            if runs and runs[-1][0] == owner(page):
                runs[-1] = (runs[-1][0], runs[-1][1], runs[-1][2] + 1)
            else:
                runs.append((owner(page), page, 1))
        return runs

    @pytest.mark.parametrize("name", sorted(PLACEMENTS))
    @settings(max_examples=60, deadline=None)
    @given(steps=steps, queries=st.lists(extents, min_size=1, max_size=8), n_disks=st.integers(1, 5))
    def test_against_the_page_table(self, name, steps, queries, n_disks):
        policy = make_placement(name, chunk_pages=4)
        policy.bind(n_disks)
        pinned: dict[int, int] = {}
        for op, (start, npages), disk in steps:
            extent = Extent(start, npages)
            if op == "place":
                policy.place_extent(extent, disk=disk)
                pinned.update(dict.fromkeys(extent.pages(), disk % n_disks))
            else:
                policy.forget_extent(extent)
                for page in extent.pages():
                    pinned.pop(page, None)
            pins = policy._pins
            assert pins == sorted(pins) and all(
                a[1] <= b[0] for a, b in zip(pins, pins[1:])
            ), "pins stay disjoint and in address order"

        def owner(page):
            return pinned.get(page, policy._default_disk(page))

        assert policy.pinned_pages == len(pinned)
        reach = self.SPACE + 24
        assert [policy.disk_of(page) for page in range(reach)] == [
            owner(page) for page in range(reach)
        ]
        for start, npages in queries:
            assert policy.fragments(start, npages) == self._model_fragments(
                owner, start, npages
            )

    def test_spatial_hint_and_declined_hint(self):
        """The hinted path pins through the same table; a declined hint
        (no centre, or a policy without ``choose_disk``) pins nothing."""
        spatial = make_placement("spatial")
        spatial.bind(4)
        spatial.place_extent(Extent(8, 6), center=(10.0, 10.0))
        assert spatial.pinned_pages == 6
        (run,) = spatial.fragments(9, 3)
        assert run[1:] == (9, 3) and run[0] == spatial.disk_of(8)
        spatial.place_extent(Extent(40, 6))
        plain = make_placement("round_robin")
        plain.bind(4)
        plain.place_extent(Extent(8, 6), center=(10.0, 10.0))
        assert spatial.pinned_pages == 6 and plain.pinned_pages == 0

    def test_sharded_store_routes_whole_runs(self, monkeypatch):
        """The store asks the placement once per run, never per page."""
        store = ShardedPageStore(4)
        store.place_extent(Extent(100, 37), disk=2)
        monkeypatch.setattr(
            type(store.placement), "disk_of", lambda *a: pytest.fail("per-page routing")
        )
        before = store.disks[2].stats().pages_transferred
        store.read(100, 37)
        store.read_runs([(100, 5), (120, 10)])
        assert store.disks[2].stats().pages_transferred - before == 52


class TestVectoredCost:
    def test_parallelism_degenerate(self):
        assert VectoredCost(response_ms=0.0, total_ms=0.0).parallelism == 1.0

    def test_cost_since_isolates_interval(self):
        store = ShardedPageStore(2, chunk_pages=1)
        store.read(0, 2)
        snap = store.snapshot()
        store.read(2, 2)
        cost = store.cost_since(snap)
        assert cost.total_ms < store.total_ms
        assert len(cost.per_disk_ms) == 2


class TestShardedInvalidation:
    """Freed or relocated extents must leave both the pool frames and
    the shard placement: a stale pin would route re-allocated pages to
    the wrong disk, a stale frame would satisfy reads with dead data."""

    def test_pool_discard_and_forget_reroute_reallocated_extent(self):
        store = ShardedPageStore(4, placement="spatial")
        pool = BufferPool(store, capacity=32)
        extent = Extent(16, 4)
        store.place_extent(extent, disk=2)
        pool.read_extent(extent)
        assert all(page in pool for page in extent.pages())
        assert store.per_disk_stats()[2].pages_transferred == 4

        # The extent is freed: frames dropped, placement forgotten.
        for page in extent.pages():
            pool.discard(page)
        pool.forget_extent(extent)
        assert all(page not in pool for page in extent.pages())

        # Re-allocated for different content, pinned elsewhere: the next
        # read misses in the pool and prices on the *new* disk.
        store.place_extent(extent, disk=0)
        before = store.per_disk_stats()
        pool.read_extent(extent)
        after = store.per_disk_stats()
        assert after[0].pages_transferred - before[0].pages_transferred == 4
        assert after[2].pages_transferred == before[2].pages_transferred

    def test_freed_unit_drops_frames_and_pins(self):
        """`_free_unit` is the seam every unit tear-down funnels through
        (deletion-time condensation, cluster splits): it must leave
        neither frames nor placement pins behind."""
        objects = make_objects(120, seed=5)
        db = SpatialDatabase(smax_bytes=8 * 4096, n_disks=4, placement="spatial")
        db.build(objects)
        store = db.disk
        org = db.storage
        pool = BufferPool(store, capacity=256)
        unit = org.unit_for(objects[17].oid)
        assert unit is not None
        extent = unit.extent
        pinned_disk = store.disk_of(extent.start)
        with org.use_pool(pool):
            pool.read_extent(extent)
            assert all(page in pool for page in extent.pages())
            for oid in list(unit.live):
                unit.remove(oid)
                org._unit_of.pop(oid, None)
            org._free_unit(unit)
            assert all(page not in pool for page in extent.pages())
        # The pin is gone: ownership reverts to the striping default
        # (which for at least one page of the extent differs from the
        # spatially chosen disk, or the test dataset is degenerate).
        assert all(
            store.disk_of(page) == store.placement._default_disk(page)
            for page in extent.pages()
        ), pinned_disk

    def test_deleting_every_object_releases_every_pin(self):
        """End-to-end: unit churn during deletion-time condensation may
        reuse freed extents, but once the database is empty no placement
        pin may survive."""
        objects = make_objects(80, seed=11)
        db = SpatialDatabase(smax_bytes=8 * 4096, n_disks=4, placement="spatial")
        db.build(objects)
        assert db.disk.placement.pinned_pages > 0
        for obj in objects:
            db.delete(obj.oid)
        assert db.disk.placement.pinned_pages == 0

    def test_primary_overflow_delete_forgets_pin(self):
        from repro.geometry.polyline import Polyline
        from repro.geometry.feature import SpatialObject

        db = SpatialDatabase(
            organization="primary", n_disks=2, placement="spatial", name="p"
        )
        big = SpatialObject(
            1, Polyline([(0.0, 0.0), (50.0, 50.0)]), size_bytes=30_000
        )
        db.insert(big)
        db.finalize()
        extent = db.storage.extent_of(1)
        assert db.disk.placement.pinned_pages >= extent.npages
        db.delete(1)
        assert db.disk.placement.pinned_pages == 0

    def test_pool_invalidate_clears_all_frames(self):
        store = ShardedPageStore(2)
        pool = BufferPool(store, capacity=16)
        pool.read(0, 8)
        pool.write(20, 2)
        pool.invalidate()
        assert len(pool) == 0
        before = store.stats()
        pool.flush()
        assert (store.stats() - before).requests == 0  # nothing dirty left


class TestDatabaseIntegration:
    @pytest.fixture(scope="class")
    def dbs(self):
        objects = make_objects(400, seed=71)
        single = SpatialDatabase(smax_bytes=16 * 4096)
        single.build(objects)
        sharded = SpatialDatabase(
            smax_bytes=16 * 4096, n_disks=4, placement="spatial"
        )
        sharded.build(objects)
        return single, sharded

    def test_default_database_keeps_single_disk(self, dbs):
        single, sharded = dbs
        assert isinstance(single.disk, DiskModel)
        assert single.n_disks == 1
        assert isinstance(sharded.disk, ShardedPageStore)
        assert sharded.n_disks == 4

    def test_n_disks_validated(self):
        with pytest.raises(ConfigurationError):
            SpatialDatabase(smax_bytes=16 * 4096, n_disks=0)
        with pytest.raises(ConfigurationError):
            SpatialDatabase(smax_bytes=16 * 4096, n_disks=2, placement="nope")

    def test_declustering_knobs_validated_on_single_disk_too(self):
        """A typo'd placement must fail the one-disk control run the
        same way it fails the multi-disk treatment."""
        with pytest.raises(ConfigurationError):
            SpatialDatabase(smax_bytes=16 * 4096, n_disks=1, placement="spatail")
        with pytest.raises(ConfigurationError):
            SpatialDatabase(smax_bytes=16 * 4096, n_disks=1, chunk_pages=0)

    def test_answers_independent_of_sharding(self, dbs):
        single, sharded = dbs
        for window in (
            Rect(0, 0, 3000, 3000),
            Rect(2000, 2000, 8000, 8000),
            Rect(-10, -10, -5, -5),
        ):
            a = {o.oid for o in single.storage.window_query(window).objects}
            b = {o.oid for o in sharded.storage.window_query(window).objects}
            assert a == b

    def test_window_queries_run_declustered(self, dbs):
        _, sharded = dbs
        snap = sharded.disk.snapshot()
        sharded.storage.window_query(Rect(0, 0, 10_000, 10_000))
        cost = sharded.disk.cost_since(snap)
        assert cost.parallelism > 1.5
        assert cost.response_ms < cost.total_ms

    def test_attach_shares_the_store(self, dbs):
        _, sharded = dbs
        other = sharded.attach("s", organization="secondary")
        assert other.disk is sharded.disk

    def test_workload_reports_response_time(self, dbs):
        _, sharded = dbs
        report = sharded.run_workload(
            [("window", 0.0, 0.0, 5000.0, 5000.0)] * 3, buffer_pages=64
        )
        window = report.phase("window")
        assert window is not None
        assert 0.0 < window.response_ms <= window.io.total_ms + 1e-9
        assert "response ms" in report.format()
