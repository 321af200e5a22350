"""Tests for the declarative write pipeline.

Writes used to be eager ``disk.write()`` calls scattered over the
buffer pool, the node pager and the organizations; they are now write
:class:`~repro.iosched.request.AccessPlan` requests executed by the
schedulers.  These tests pin the refactor down:

* primitive parity — a submitted write plan prices exactly like the
  eager calls it replaced, on both schedulers;
* run coalescing — ``write_back`` / ``flush`` / ``write_pages`` share
  one run-coalescing helper and their pricing matches a hand-rolled
  per-run loop;
* org-level invariance — the full online lifecycle (build, insert,
  delete, query) produces identical *device* time under sync and
  overlap scheduling for every organization x disk-count x store shape
  (the overlap scheduler reorders completions, never prices);
* tiering composed over sharding, and background reorganization
  recovering clustering quality through priced write plans.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro.buffer.pool import BufferPool, coalesce_pages, sequential_runs
from repro.database import SpatialDatabase
from repro.disk.model import DiskModel
from repro.errors import ConfigurationError
from repro.iosched.request import AccessPlan, WRITE_OPS
from repro.iosched.scheduler import OverlapScheduler
from repro.reorg import Reorganizer, reorg_traffic
from repro.workload.traffic import make_traffic

from tests.conftest import make_objects


def make_pool(scheduler=None, frames: int = 0) -> tuple[BufferPool, DiskModel]:
    disk = DiskModel()
    pool = BufferPool(disk, capacity=frames, scheduler=scheduler)
    return pool, disk


class TestPlanSurface:
    def test_write_ops_are_marked(self):
        plan = AccessPlan("t").write(3, 2)
        assert plan.writes
        assert all(r.op in WRITE_OPS for r in plan.requests)
        assert not AccessPlan("t").read(3, 2).writes

    def test_builders(self):
        plan = AccessPlan("t")
        plan.write(1).write_pages((4, 5, 9)).flush_pages((2, 3))
        ops = [r.op for r in plan.requests]
        assert ops == ["write", "write_pages", "flush_pages"]

    def test_sequential_runs_is_order_preserving(self):
        assert sequential_runs([5, 6, 7, 2, 3, 9]) == [(5, 3), (2, 2), (9, 1)]
        # On sorted distinct input it agrees with coalesce_pages.
        pages = [1, 2, 3, 7, 8, 20]
        assert sequential_runs(pages) == coalesce_pages(pages)


class TestPrimitiveParity:
    """A submitted write plan prices exactly like the eager calls it
    replaced."""

    def test_plan_write_equals_eager_write(self):
        pool, disk = make_pool()
        twin = DiskModel()
        cost = pool.submit(AccessPlan("t").write(10, 4))
        assert cost == twin.write(10, 4)
        assert disk.total_ms == twin.total_ms

    def test_plan_write_chain_continuation(self):
        pool, disk = make_pool()
        twin = DiskModel()
        plan = AccessPlan("t").write(10, 2)
        plan.write(12, 3, continuation=True)
        pool.submit(plan)
        twin.write(10, 2)
        twin.write(12, 3, continuation=True)
        assert disk.total_ms == twin.total_ms

    def test_flush_pages_equals_per_run_loop(self):
        pages = [3, 4, 5, 11, 12, 30]
        pool, disk = make_pool()
        pool.submit(AccessPlan("t").flush_pages(pages))
        twin = DiskModel()
        for start, npages in sequential_runs(pages):
            twin.write(start, npages)
        assert disk.total_ms == twin.total_ms
        assert disk.stats().requests == twin.stats().requests

    def test_write_pages_prices_batched_runs(self):
        pages = [3, 4, 5, 11, 12, 30]
        pool, disk = make_pool()
        pool.submit(AccessPlan("t").write_pages(pages))
        twin = DiskModel()
        twin.write_runs(coalesce_pages(pages))
        assert disk.total_ms == twin.total_ms

    def test_overlap_prices_identically_to_sync(self):
        sync_pool, sync_disk = make_pool()
        ovl = OverlapScheduler()
        ovl_pool, ovl_disk = make_pool(scheduler=ovl)
        for pool in (sync_pool, ovl_pool):
            pool.submit(AccessPlan("t").write(10, 4))
            pool.submit(AccessPlan("t").flush_pages((0, 1, 7)))
        assert ovl_disk.total_ms == sync_disk.total_ms

    def test_write_plans_never_prefetch(self):
        from repro.iosched.prefetch import make_prefetcher

        pool, disk = make_pool()
        pool.prefetcher = make_prefetcher("sequential")
        before = disk.total_ms
        pool.submit(AccessPlan("t").write(10, 4))
        written = disk.total_ms - before
        twin = DiskModel()
        twin.write(10, 4)
        # No read-ahead rode along with the write.
        assert written == twin.total_ms

    def test_write_metrics_account_pages_and_device_ms(self):
        pool, disk = make_pool()
        pool.submit(AccessPlan("t").write(0, 3))
        pool.submit(AccessPlan("t").flush_pages((10, 11)))
        snap = pool.metrics.snapshot()
        assert snap["write.pages"] == 5
        device_ms = sum(
            value for key, value in snap.items()
            if key.startswith("write.device_ms")
        )
        assert device_ms == pytest.approx(disk.total_ms)


class TestBufferedWriteBack:
    """The dedup of the three hand-rolled coalescing loops."""

    def test_write_back_prices_like_per_run_loop(self):
        pool, disk = make_pool(frames=16)
        for page in (3, 4, 5, 11, 30, 31):
            pool.write(page, 1)  # buffered: dirty frames, no I/O yet
        assert disk.total_ms == 0.0
        cost = pool.write_back()
        twin = DiskModel()
        expected = sum(
            twin.write(s, n) for s, n in sequential_runs([3, 4, 5, 11, 30, 31])
        )
        assert cost == expected
        assert disk.total_ms == twin.total_ms
        assert disk.stats().requests == twin.stats().requests
        # Idempotent: everything is clean now.
        assert pool.write_back() == 0.0

    def test_flush_coalesce_equals_write_back_then_flush(self):
        a_pool, a_disk = make_pool(frames=8)
        b_pool, b_disk = make_pool(frames=8)
        for pool in (a_pool, b_pool):
            for page in (2, 3, 9):
                pool.write(page, 1)
        a_pool.flush(coalesce=True)
        b_pool.write_back()
        b_pool.flush()
        assert a_disk.total_ms == b_disk.total_ms

    def test_dirty_eviction_routes_through_a_plan(self):
        pool, disk = make_pool(frames=2)
        pool.write(0, 1)
        pool.write(1, 1)
        before = disk.total_ms
        pool.read(2, 1)  # evicts a dirty victim -> priced write-back
        twin = DiskModel()
        twin.write(0, 1)
        twin.read(2, 1)
        assert disk.total_ms - before == twin.total_ms


ORG_CONFIGS = [
    pytest.param("cluster", dict(smax_bytes=16 * 4096), id="cluster"),
    pytest.param(
        "cluster", dict(smax_bytes=16 * 4096, buddy_sizes=3), id="buddy"
    ),
    pytest.param("secondary", dict(), id="secondary"),
    pytest.param("primary", dict(), id="primary"),
]


def lifecycle_device_ms(
    organization: str,
    org_kwargs: dict,
    *,
    scheduler: str,
    n_disks: int,
    tiering=None,
) -> tuple[float, list[list[int]]]:
    """Build, mutate and query one database; return its total device
    time and the query answers."""
    objects = make_objects(120, seed=21)
    extra = dict(tiering=tiering) if tiering is not None else {}
    db = SpatialDatabase(
        organization=organization,
        scheduler=scheduler,
        n_disks=n_disks,
        **org_kwargs,
        **extra,
    )
    db.build(objects[:100])
    for obj in objects[100:]:
        db.insert(obj)
    for oid in range(0, 40, 2):
        db.delete(oid)
    answers = [
        sorted(o.oid for o in db.window_query(0, 0, 5000, 5000).objects),
        sorted(o.oid for o in db.window_query(2000, 2000, 9000, 9000).objects),
    ]
    return db.disk.total_ms, answers


class TestLifecycleParity:
    """Sync and overlap scheduling price the identical device time for
    the full online lifecycle — write plans changed *where* writes are
    declared, never what they cost."""

    @pytest.mark.parametrize("organization,org_kwargs", ORG_CONFIGS)
    @pytest.mark.parametrize("n_disks", [1, 4])
    @pytest.mark.parametrize("tiering", [None, "promote-on-hit"])
    def test_sync_overlap_device_parity(
        self, organization, org_kwargs, n_disks, tiering
    ):
        sync_ms, sync_answers = lifecycle_device_ms(
            organization,
            org_kwargs,
            scheduler="sync",
            n_disks=n_disks,
            tiering=tiering,
        )
        ovl_ms, ovl_answers = lifecycle_device_ms(
            organization,
            org_kwargs,
            scheduler="overlap",
            n_disks=n_disks,
            tiering=tiering,
        )
        assert sync_answers == ovl_answers
        assert ovl_ms == pytest.approx(sync_ms, rel=1e-12)


class TestMaintenanceOnTheClock:
    """Cluster-unit maintenance reads are access plans like its writes:
    under the overlap scheduler every millisecond the store prices
    occupies a disk's queue on the virtual clock (and so reaches the
    admission policy's ``observe``)."""

    @staticmethod
    def clock_busy_ms(db: SpatialDatabase) -> float:
        return sum(
            end - start for disk in db.scheduler.clock._busy for start, end in disk
        )

    @pytest.mark.parametrize("buddy_sizes", [None, 3])
    @pytest.mark.parametrize("n_disks", [1, 2])
    def test_device_ms_equals_clock_busy_ms(self, buddy_sizes, n_disks):
        objects = make_objects(300, seed=44)
        db = SpatialDatabase(
            smax_bytes=16 * 4096,
            buddy_sizes=buddy_sizes,
            scheduler="overlap",
            n_disks=n_disks,
        )
        db.build(objects)
        reorg = Reorganizer(db, budget_pages=32, min_dead_fraction=0.05)

        def delete_half():
            for obj in objects[::2]:
                db.delete(obj.oid)

        def reorganize():
            while reorg.step():
                pass

        def reinsert():
            for obj in objects[::2]:
                db.insert(obj)

        for phase in (delete_half, reorganize, reinsert):
            device, busy = db.disk.total_ms, self.clock_busy_ms(db)
            with db.scheduler.operation("main"):
                phase()
            priced = db.disk.total_ms - device
            assert priced > 0
            assert self.clock_busy_ms(db) - busy == pytest.approx(priced, rel=1e-9)
        assert reorg.moved_pages > 0

    @pytest.mark.parametrize("scoped", [False, True])
    @pytest.mark.parametrize("n_disks", [1, 2])
    @pytest.mark.parametrize("organization", ["secondary", "primary", "cluster"])
    def test_join_device_ms_equals_clock_busy_ms(self, organization, n_disks, scoped):
        """The MBR join's node reads are plans too — bare, and inside
        the open operation scope the workload engine wraps a
        ``("join", other)`` operation in."""
        db = SpatialDatabase(
            organization=organization,
            smax_bytes=16 * 4096,
            scheduler="overlap",
            n_disks=n_disks,
        )
        db.build(make_objects(300, seed=44))
        other = db.attach("s", organization=organization, smax_bytes=16 * 4096)
        other.build(make_objects(300, seed=45))
        device, busy = db.disk.total_ms, self.clock_busy_ms(db)
        with db.scheduler.operation("main") if scoped else nullcontext():
            result = db.join(other, buffer_pages=36)
        priced = db.disk.total_ms - device
        assert result.candidate_pairs > 0
        assert priced == pytest.approx(result.io_ms, rel=1e-9) and priced > 0
        assert self.clock_busy_ms(db) - busy == pytest.approx(priced, rel=1e-9)

    def test_maintenance_reads_trigger_no_read_ahead(self):
        """A unit about to be moved is no access pattern: its read is
        priced like the ``pool.read`` it replaced, with no speculative
        transfer behind it."""
        objects = make_objects(300, seed=44)
        db = SpatialDatabase(
            smax_bytes=16 * 4096, buddy_sizes=3, prefetch="sequential"
        )
        db.build(objects)
        for obj in objects[::2]:
            db.delete(obj.oid)
        org = db.storage
        with org.use_pool(org.pool.sibling(64)) as pool:
            assert Reorganizer(db, min_dead_fraction=0.05).step() > 0
        assert pool.misses > 0
        assert pool.prefetch_stats()["issued"] == 0


class TestTieredOverSharded:
    def test_composition_answers_match_flat(self):
        objects = make_objects(150, seed=33)
        flat = SpatialDatabase(smax_bytes=16 * 4096)
        flat.build(objects)
        composed = SpatialDatabase(
            smax_bytes=16 * 4096, tiering="promote-on-hit", n_disks=4
        )
        composed.build(objects)
        for window in ((0, 0, 5000, 5000), (3000, 1000, 9000, 8000)):
            assert sorted(
                o.oid for o in composed.window_query(*window).objects
            ) == sorted(o.oid for o in flat.window_query(*window).objects)
        assert all(len(tier.disks) == 4 for tier in composed.disk.children)

    def test_write_back_copy_backs_priced_through_tiers(self):
        from repro.pagestore import TieredPageStore

        store = TieredPageStore(
            2, migration="lru-demote", write_policy="write-back"
        )
        pool = BufferPool(store)
        # Read (and thereby promote) pages, write them on the fast
        # tier, then demote them by promoting others: the dirty copies
        # must be copied back to the capacity tier, priced there.
        for page in range(2):
            pool.read(page, 1)
            pool.read(page, 1)
            pool.submit(AccessPlan("t").write(page, 1))
        capacity_before = store.capacity.total_ms
        for page in range(2, 5):
            pool.read(page, 1)
            pool.read(page, 1)
        assert store.copybacks > 0
        assert store.capacity.total_ms > capacity_before


class TestReorganization:
    @staticmethod
    def degraded_db() -> tuple[SpatialDatabase, Reorganizer]:
        db = SpatialDatabase(smax_bytes=16 * 4096)
        db.build(make_objects(200, seed=44))
        for oid in range(0, 200, 2):
            db.delete(oid)
        return db, Reorganizer(
            db, budget_pages=32, min_dead_fraction=0.05
        )

    def test_requires_cluster_units(self):
        db = SpatialDatabase(organization="secondary")
        with pytest.raises(ConfigurationError):
            Reorganizer(db)

    def test_steps_recover_quality_and_price_io(self):
        db, reorg = self.degraded_db()
        degraded = reorg.quality()
        before_ms = db.disk.total_ms
        while reorg.step():
            pass
        assert reorg.quality() > degraded
        assert reorg.moved_pages > 0
        assert db.disk.total_ms > before_ms  # moves are priced I/O
        snap = db.metrics.snapshot()
        assert snap["reorg.moved_pages"] == reorg.moved_pages
        assert snap["reorg.runs"] == reorg.runs

    def test_queries_survive_reorganization(self):
        db, reorg = self.degraded_db()
        expected = sorted(
            o.oid for o in db.window_query(0, 0, 10_000, 10_000).objects
        )
        while reorg.step():
            pass
        got = sorted(
            o.oid for o in db.window_query(0, 0, 10_000, 10_000).objects
        )
        assert got == expected

    def test_budget_bounds_a_round(self):
        db, reorg = self.degraded_db()
        moved = reorg.step(budget_pages=1)
        # One round stops after crossing the budget: at most one unit's
        # pages beyond the bound.
        assert 0 < moved <= db.storage.policy.smax_pages

    def test_paced_reorg_inside_traffic(self):
        objects = make_objects(200, seed=44)
        db = SpatialDatabase(
            smax_bytes=16 * 4096, scheduler="overlap", n_disks=2
        )
        db.build(objects)
        for oid in range(0, 200, 2):
            db.delete(oid)
        reorg = Reorganizer(db, budget_pages=32, min_dead_fraction=0.05)
        degraded = reorg.quality()
        survivors = [o for o in objects if o.oid % 2]
        sessions = make_traffic(survivors, 40, seed=9, rate_per_s=500.0)
        sessions += reorg_traffic(reorg, rounds=8, period_ms=10.0)
        report = db.run_traffic(sessions, buffer_pages=64)
        assert reorg.runs == 8
        assert reorg.quality() > degraded
        reorg_phase = next(
            (p for p in report.phases if p.name == "reorg"), None
        )
        assert reorg_phase is not None
        assert reorg_phase.operations == 8

    def test_reorg_traffic_sessions_classify_as_analytics(self):
        from repro.workload.traffic import class_of_session

        db, reorg = self.degraded_db()
        sessions = reorg_traffic(reorg, rounds=3, period_ms=5.0, start_ms=2.0)
        assert [s.name for s in sessions] == [
            "ana-reorg-000000", "ana-reorg-000001", "ana-reorg-000002"
        ]
        assert all(class_of_session(s.name) == "analytics" for s in sessions)
        assert [s.arrival_ms for s in sessions] == [2.0, 7.0, 12.0]
