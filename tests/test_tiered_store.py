"""Tests for the tiered page store: static partitioning, the inclusive
cache policies (promote-on-hit / lru-demote), migration pricing, the
measurement surface, and the SpatialDatabase(tiering=...) wiring."""

from __future__ import annotations

import random

import pytest

from repro.database import SpatialDatabase
from repro.disk.extent import Extent
from repro.disk.model import DiskModel, DiskStats
from repro.disk.params import DiskParameters
from repro.errors import ConfigurationError
from repro.pagestore import (
    FAST_TIER_PARAMS,
    MIGRATIONS,
    WRITE_POLICIES,
    TieredPageStore,
)

from tests.conftest import make_objects

SLOW = DiskParameters()          # the paper's 9 / 6 / 1 ms disk
FAST = FAST_TIER_PARAMS          # 2 / 1 / 0.25 ms


def fresh_read_ms(params: DiskParameters, npages: int = 1) -> float:
    return params.random_access_ms(npages)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TieredPageStore(0)
        with pytest.raises(ConfigurationError):
            TieredPageStore(8, migration="teleport")
        with pytest.raises(ConfigurationError):
            TieredPageStore(8, promote_after=0)

    def test_registry_and_defaults(self):
        store = TieredPageStore(8)
        assert store.migration == "static"
        assert store.migration in MIGRATIONS
        assert store.params == SLOW
        assert store.fast_params == FAST
        assert [d.params for d in store.disks] == [FAST, SLOW]


class TestStaticPartition:
    def test_first_touch_fills_fast_then_capacity(self):
        store = TieredPageStore(2, migration="static")
        store.write(0, 1)
        store.write(1, 1)
        store.write(2, 1)  # fast tier full -> capacity home
        assert store.tier_of(0) == store.FAST
        assert store.tier_of(1) == store.FAST
        assert store.tier_of(2) == store.CAPACITY
        assert store.fast_resident == 2

    def test_homes_are_permanent(self):
        store = TieredPageStore(1, migration="static")
        store.write(0, 1)
        store.write(1, 1)
        for _ in range(5):
            store.read(1, 1)
        assert store.tier_of(1) == store.CAPACITY
        assert store.promotions == 0 and store.demotions == 0

    def test_reads_price_on_the_home_tier(self):
        store = TieredPageStore(1, migration="static")
        store.write(0, 1)   # fast home
        store.write(10, 1)  # capacity home
        fast_before = store.fast.total_ms
        capacity_before = store.capacity.total_ms
        store.read(0, 1)
        assert store.fast.total_ms > fast_before
        assert store.capacity.total_ms == capacity_before
        store.read(10, 1)
        assert store.capacity.total_ms > capacity_before

    def test_spanning_request_prices_max_over_tiers(self):
        store = TieredPageStore(1, migration="static")
        store.write(0, 2)  # page 0 fast, page 1 capacity
        store.invalidate_head()
        response = store.read(0, 2)
        # Each tier served one fresh single-page fragment; the request
        # completes with the slower tier.
        assert response == pytest.approx(fresh_read_ms(SLOW, 1))
        assert store.total_ms > response  # device time is the sum


class TestCachePolicies:
    def test_promote_on_hit_promotes_on_second_read(self):
        store = TieredPageStore(4, migration="promote-on-hit")
        store.write(0, 1)
        assert store.tier_of(0) == store.CAPACITY
        store.read(0, 1)
        assert store.tier_of(0) == store.CAPACITY  # one read: not warm yet
        store.read(0, 1)
        assert store.tier_of(0) == store.FAST
        assert store.promotions == 1
        # The promoted copy now serves reads at fast-tier pricing.
        store.invalidate_head()
        assert store.read(0, 1) == pytest.approx(fresh_read_ms(FAST, 1))

    def test_promotion_cost_is_device_time_not_response(self):
        store = TieredPageStore(4, migration="promote-on-hit")
        store.write(0, 1)
        store.read(0, 1)
        before_fast = store.fast.total_ms
        capacity_before = store.capacity.total_ms
        mark = store.snapshot()
        response = store.read(0, 1)  # triggers the promotion copy-in
        assert store.fast.total_ms > before_fast  # the copy was priced...
        # ...but the response is the capacity tier's demand read alone.
        assert response == pytest.approx(
            store.capacity.total_ms - capacity_before
        )
        cost = store.cost_since(mark)
        assert cost.total_ms > response  # promotion rides in device time

    def test_lru_demote_promotes_every_read_and_evicts_lru(self):
        store = TieredPageStore(2, migration="lru-demote")
        store.write(0, 1)
        store.write(5, 1)
        store.write(9, 1)
        store.read(0, 1)
        store.read(5, 1)
        assert store.fast_resident == 2
        store.read(0, 1)   # refresh page 0
        store.read(9, 1)   # promotes 9, evicts LRU page 5
        assert store.tier_of(9) == store.FAST
        assert store.tier_of(0) == store.FAST
        assert store.tier_of(5) == store.CAPACITY
        assert store.demotions == 1

    def test_demotion_is_free(self):
        store = TieredPageStore(1, migration="lru-demote")
        store.write(0, 1)
        store.write(5, 1)
        store.read(0, 1)
        capacity_before = store.capacity.stats()
        store.read(5, 1)  # promotes 5, demotes 0
        since = store.capacity.stats() - capacity_before
        # The capacity tier priced exactly the demand read — no
        # copy-back write for the clean demoted page.
        assert since.requests == 1
        assert store.demotions == 1

    def test_write_invalidates_the_fast_copy(self):
        store = TieredPageStore(4, migration="lru-demote")
        store.write(0, 1)
        store.read(0, 1)
        assert store.tier_of(0) == store.FAST
        capacity_before = store.capacity.total_ms
        fast_before = store.fast.total_ms
        store.write(0, 1)
        # Write-through to the capacity home; the stale copy is gone.
        assert store.capacity.total_ms > capacity_before
        assert store.fast.total_ms == fast_before
        assert store.tier_of(0) == store.CAPACITY
        assert store.invalidations == 1

    def test_forget_extent_drops_copies_for_free(self):
        store = TieredPageStore(8, migration="lru-demote")
        store.write(0, 4)
        store.read(0, 4)
        assert store.fast_resident == 4
        total_before = store.total_ms
        store.forget_extent(Extent(0, 4))
        assert store.fast_resident == 0
        assert store.total_ms == total_before


class TestWriteBack:
    def test_validation(self):
        assert "write-back" in WRITE_POLICIES
        with pytest.raises(ConfigurationError):
            TieredPageStore(8, write_policy="scribble")
        with pytest.raises(ConfigurationError):
            # Static placement writes to a page's only home — there is
            # nothing to copy back.
            TieredPageStore(8, migration="static", write_policy="write-back")

    def test_dirty_write_stays_on_the_fast_tier(self):
        store = TieredPageStore(
            4, migration="lru-demote", write_policy="write-back"
        )
        store.read(10, 1)  # promote page 10
        capacity_before = store.capacity.total_ms
        fast_before = store.fast.total_ms
        store.write(10, 1)
        assert store.fast.total_ms > fast_before
        assert store.capacity.total_ms == capacity_before
        assert store.tier_of(10) == store.FAST
        assert store.dirty_pages == 1
        assert store.invalidations == 0

    def test_demoting_a_written_page_prices_the_copy_back(self):
        # Device-time regression: the deferred capacity write must be
        # charged exactly once, at demotion, at capacity-tier prices.
        store = TieredPageStore(
            2, migration="lru-demote", write_policy="write-back"
        )
        twin = DiskModel()  # replays the capacity tier's request stream
        store.read(10, 1)   # demand read + promote
        twin.read(10, 1)
        store.write(10, 1)  # absorbed on the fast tier (dirty)
        assert store.capacity.total_ms == pytest.approx(twin.total_ms)
        store.read(20, 1)
        twin.read(20, 1)
        store.read(30, 1)   # promote 30 -> evicts dirty 10 -> copy-back
        twin.read(30, 1)
        twin.write(10, 1)
        assert store.copybacks == 1
        assert store.dirty_pages == 0
        assert store.tier_of(10) == store.CAPACITY
        assert store.capacity.total_ms == pytest.approx(twin.total_ms)

    def test_clean_demotions_stay_free(self):
        store = TieredPageStore(
            1, migration="lru-demote", write_policy="write-back"
        )
        store.read(10, 1)
        capacity_before = store.capacity.stats()
        store.read(20, 1)  # promotes 20, demotes clean 10
        since = store.capacity.stats() - capacity_before
        assert since.requests == 1  # the demand read alone
        assert store.demotions == 1
        assert store.copybacks == 0

    def test_adjacent_dirty_evictions_coalesce(self):
        store = TieredPageStore(
            3, migration="lru-demote", write_policy="write-back"
        )
        store.read(10, 3)
        store.write(10, 3)  # three adjacent dirty pages
        assert store.dirty_pages == 3
        capacity_before = store.capacity.stats()
        store.read(40, 3)  # evicts all of 10..12
        since = store.capacity.stats() - capacity_before
        assert store.copybacks == 3
        # One demand read plus ONE coalesced copy-back write.
        assert since.requests == 2
        assert store.metrics.counter("tier.copybacks").value == 3

    def test_forget_extent_discards_dirty_marks(self):
        store = TieredPageStore(
            4, migration="lru-demote", write_policy="write-back"
        )
        store.read(10, 2)
        store.write(10, 2)
        assert store.dirty_pages == 2
        total_before = store.total_ms
        store.forget_extent(Extent(10, 2))
        assert store.dirty_pages == 0
        assert store.total_ms == total_before  # freed pages: no copy-back

    def test_write_through_remains_the_default(self):
        store = TieredPageStore(4, migration="lru-demote")
        assert store.write_policy == "write-through"
        store.read(10, 1)
        store.write(10, 1)
        assert store.invalidations == 1
        assert store.dirty_pages == 0
        assert store.copybacks == 0


class TestMeasurementSurface:
    def test_cost_since_separates_response_and_device(self):
        store = TieredPageStore(1, migration="static")
        store.write(0, 2)  # one page per tier
        store.invalidate_head()
        mark = store.snapshot()
        store.read(0, 2)
        cost = store.cost_since(mark)
        assert cost.response_ms == pytest.approx(fresh_read_ms(SLOW, 1))
        assert cost.total_ms == pytest.approx(
            fresh_read_ms(SLOW, 1) + fresh_read_ms(FAST, 1)
        )
        assert cost.parallelism > 1.0

    def test_stats_aggregate_both_tiers(self):
        store = TieredPageStore(2, migration="static")
        store.write(0, 1)  # fast
        store.write(9, 1)  # ...still fast (budget 2)
        store.write(5, 1)  # capacity
        assert store.stats().requests == 3
        assert store.stats().total_ms == pytest.approx(store.total_ms)
        assert len(store.per_disk_stats()) == 2


class TestDatabaseWiring:
    def test_tiering_knob_builds_a_tiered_store(self):
        db = SpatialDatabase(
            smax_bytes=16 * 4096, tiering="promote-on-hit", fast_pages=64
        )
        assert isinstance(db.disk, TieredPageStore)
        assert db.tiering == "promote-on-hit"
        assert db.disk.fast_pages == 64
        assert db.n_disks == 2

    def test_default_is_flat(self):
        db = SpatialDatabase(smax_bytes=16 * 4096)
        assert isinstance(db.disk, DiskModel)
        assert db.tiering == "none"

    def test_tiering_composes_over_sharding(self):
        db = SpatialDatabase(
            smax_bytes=16 * 4096, tiering="static", n_disks=4
        )
        assert isinstance(db.disk, TieredPageStore)
        # Each tier is itself declustered over 4 arms.
        assert all(len(tier.disks) == 4 for tier in db.disk.children)
        assert len(db.disk.disks) == 8

    def test_ready_tiered_store_excludes_sharding(self):
        store = TieredPageStore(32, migration="static")
        with pytest.raises(ConfigurationError):
            SpatialDatabase(smax_bytes=16 * 4096, tiering=store, n_disks=4)

    def test_tiering_rejected_on_attach(self):
        db = SpatialDatabase(smax_bytes=16 * 4096)
        with pytest.raises(ConfigurationError):
            db.attach("s", smax_bytes=16 * 4096, tiering="static")

    def test_ready_store_instance(self):
        store = TieredPageStore(32, migration="lru-demote")
        db = SpatialDatabase(smax_bytes=16 * 4096, tiering=store)
        assert db.disk is store

    def test_queries_answer_identically_across_migrations(self):
        objects = make_objects(200, seed=5)
        answers = []
        for tiering in (None, "static", "promote-on-hit", "lru-demote"):
            db = SpatialDatabase(
                smax_bytes=16 * 4096, tiering=tiering, fast_pages=64
            )
            db.build(objects)
            result = db.window_query(0, 0, 5000, 5000)
            answers.append(sorted(o.oid for o in result.objects))
        assert all(a == answers[0] for a in answers[1:])

    def test_promote_on_hit_beats_static_on_skewed_reads(self):
        """The tiering acceptance bar: on a read workload with a hot
        region larger than nothing but smaller than the fast tier,
        access-driven migration beats first-touch placement."""
        objects = make_objects(400, seed=5)
        rng = random.Random(7)
        queries = []
        for i in range(120):
            if i % 10 < 9:
                x, y = rng.uniform(0, 1400), rng.uniform(0, 1400)
            else:
                x, y = rng.uniform(0, 7000), rng.uniform(0, 7000)
            queries.append((x, y, x + 600, y + 600))

        def run(migration):
            db = SpatialDatabase(
                smax_bytes=16 * 4096, tiering=migration, fast_pages=64
            )
            db.build(objects)
            mark = db.disk.snapshot()
            for q in queries:
                db.window_query(*q)
            return db.disk.cost_since(mark), db.disk

        static_cost, static_store = run("static")
        promote_cost, promote_store = run("promote-on-hit")
        assert promote_store.promotions > 0
        assert static_store.promotions == 0
        assert promote_cost.total_ms < static_cost.total_ms
        assert promote_cost.response_ms < static_cost.response_ms

    def test_overlap_scheduler_times_the_tiers_as_two_queues(self):
        objects = make_objects(150, seed=5)
        db = SpatialDatabase(
            smax_bytes=16 * 4096, tiering="lru-demote", fast_pages=128,
            scheduler="overlap",
        )
        db.build(objects)
        report = db.run_sessions(
            {"a": [("window", 0.0, 0.0, 6000.0, 6000.0)] * 3},
            buffer_pages=64,
        )
        # The virtual clock saw both tier devices; the makespan covers
        # at most the summed device time and the run stayed consistent.
        assert 0.0 < report.makespan_ms <= report.total_io.total_ms + 1e-9
