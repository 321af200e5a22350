"""Tests for the request-based I/O pipeline (repro.iosched):
access plans, the sync/overlap schedulers, the virtual clock,
prefetch policies and interleaved multi-client sessions."""

from __future__ import annotations

import pytest

from repro.buffer.pool import BufferPool
from repro.database import SpatialDatabase
from repro.disk.model import DiskModel
from repro.errors import ConfigurationError
from repro.iosched import (
    SYNC,
    AccessPlan,
    ClusterPrefetcher,
    IORequest,
    OverlapScheduler,
    SequentialPrefetcher,
    SyncScheduler,
    VirtualClock,
    make_prefetcher,
    make_scheduler,
)
from repro.disk.allocator import PageAllocator
from repro.disk.extent import Extent
from repro.pagestore.placement import RoundRobinPlacement
from repro.pagestore.store import ShardedPageStore
from repro.workload.streams import mixed_stream
from repro.workload.trace import load_trace, save_trace

from tests.conftest import make_objects
from tests.interval_list_clock import busy


def passthrough_pool(disk=None, **kwargs) -> BufferPool:
    return BufferPool(disk or DiskModel(), capacity=0, **kwargs)


class TestAccessPlan:
    def test_builder_chains_and_lengths(self):
        plan = AccessPlan("t").read(0, 4).fetch(10, 2).get(20).charge(seeks=1)
        assert len(plan) == 4
        assert bool(plan)
        assert [r.op for r in plan] == ["read", "fetch", "get", "charge"]

    def test_empty_plan_is_falsy(self):
        assert not AccessPlan("empty")

    def test_chain_ids_are_distinct(self):
        plan = AccessPlan("t")
        assert plan.new_chain() != plan.new_chain()

    def test_last_run_skips_zero_cost_steps(self):
        plan = AccessPlan("t")
        plan.executed = [(0, 4, 50.0), (10, 2, 0.0)]
        assert plan.last_run() == (0, 4)

    def test_last_run_none_without_transfers(self):
        plan = AccessPlan("t")
        plan.executed = [(0, 4, 0.0)]
        assert plan.last_run() is None


class TestSyncScheduler:
    def test_plan_prices_like_imperative_chain(self):
        """A submitted plan must produce exactly the statistics of the
        equivalent imperative pool calls, in the same order."""
        reference = DiskModel()
        ref_pool = passthrough_pool(reference)
        ref_pool.read(0, 4)
        ref_pool.read(100, 2, continuation=True)
        ref_pool.fetch(50, 3)
        ref_pool.charge(seeks=1, rotations=2, pages=3)

        disk = DiskModel()
        pool = passthrough_pool(disk)
        plan = (
            AccessPlan("t")
            .read(0, 4)
            .read(100, 2, continuation=True)
            .fetch(50, 3)
            .charge(seeks=1, rotations=2, pages=3)
        )
        cost = pool.submit(plan)
        assert disk.stats() == reference.stats()
        assert cost == reference.total_ms

    def test_chain_fresh_until_first_transfer(self):
        """A chained request absorbed by resident pages (cost 0) must
        not unlock the continuation discount for its successors."""
        disk = DiskModel()
        pool = BufferPool(disk, capacity=16)
        pool.admit(100)  # first chained request will be a free hit
        plan = AccessPlan("t")
        chain = plan.new_chain()
        plan.read(100, 1, chain=chain)
        plan.read(200, 1, chain=chain)
        pool.submit(plan)
        # The second read paid the full fresh request (seek + latency).
        assert disk.stats().seeks == 1
        assert disk.stats().rotations == 1

    def test_chain_continuation_after_transfer(self):
        disk = DiskModel()
        pool = BufferPool(disk, capacity=16)
        plan = AccessPlan("t")
        chain = plan.new_chain()
        plan.read(100, 1, chain=chain)
        plan.read(200, 1, chain=chain)
        pool.submit(plan)
        # First transferred -> second priced as a continuation.
        assert disk.stats().seeks == 1
        assert disk.stats().rotations == 2

    def test_get_step_hits_are_free(self):
        disk = DiskModel()
        pool = BufferPool(disk, capacity=8)
        pool.submit(AccessPlan("t").get(5))
        first = disk.total_ms
        assert first > 0
        pool.submit(AccessPlan("t").get(5))
        assert disk.total_ms == first
        assert pool.hits == 1

    def test_unknown_op_rejected(self):
        plan = AccessPlan("t")
        plan.requests.append(IORequest("teleport", 0, 1))
        with pytest.raises(ConfigurationError):
            passthrough_pool().submit(plan)

    def test_make_scheduler(self):
        assert make_scheduler(None) is SYNC
        assert make_scheduler("sync") is SYNC
        assert isinstance(make_scheduler("overlap"), OverlapScheduler)
        sched = OverlapScheduler()
        assert make_scheduler(sched) is sched
        with pytest.raises(ConfigurationError):
            make_scheduler("psychic")
        with pytest.raises(ConfigurationError):
            make_scheduler(42)
        assert SYNC.name == "sync"


class TestVirtualClock:
    def test_dispatch_on_free_disks_starts_at_issue_time(self):
        clock = VirtualClock()
        assert clock.dispatch(10.0, [5.0, 7.0]) == 17.0
        assert clock.disk_free == [15.0, 17.0]

    def test_busy_disk_queues(self):
        clock = VirtualClock()
        clock.dispatch(0.0, [10.0])
        # Issued at t=2 but the disk is busy until t=10.
        assert clock.dispatch(2.0, [3.0]) == 13.0

    def test_zero_work_does_not_touch_disks(self):
        clock = VirtualClock()
        assert clock.dispatch(4.0, [0.0, 0.0]) == 4.0
        assert clock.disk_free == [0.0, 0.0]

    def test_wait_never_moves_backwards(self):
        clock = VirtualClock()
        clock.wait("c", 10.0)
        clock.wait("c", 5.0)
        assert clock.client_time("c") == 10.0

    def test_makespan_covers_disks_and_clients(self):
        clock = VirtualClock()
        clock.dispatch(0.0, [3.0, 8.0])
        clock.wait("c", 5.0)
        assert clock.makespan == 8.0
        clock.wait("c", 11.0)
        assert clock.makespan == 11.0

    def test_reset(self):
        clock = VirtualClock()
        clock.dispatch(0.0, [3.0])
        clock.wait("c", 5.0)
        clock.reset()
        assert clock.makespan == 0.0


def two_disk_store() -> ShardedPageStore:
    """Pages alternate between two disks (chunk = 1 page)."""
    return ShardedPageStore(2, placement=RoundRobinPlacement(chunk_pages=1))


class TestOverlapScheduler:
    def test_plans_serialize_outside_an_operation(self):
        sched = OverlapScheduler()
        pool = passthrough_pool(two_disk_store(), scheduler=sched)
        pool.submit(AccessPlan("a").read(0, 1))   # disk 0
        pool.submit(AccessPlan("b").read(1, 1))   # disk 1
        cost = DiskModel().read(0, 1)
        assert sched.clock.client_time("main") == pytest.approx(2 * cost)

    def test_operation_scope_overlaps_across_disks(self):
        sched = OverlapScheduler()
        pool = passthrough_pool(two_disk_store(), scheduler=sched)
        with sched.operation("main"):
            pool.submit(AccessPlan("a").read(0, 1))   # disk 0
            pool.submit(AccessPlan("b").read(1, 1))   # disk 1
        cost = DiskModel().read(0, 1)
        # Both plans dispatched at the operation's start: the client
        # waited for the slower disk, not for the sum.
        assert sched.clock.client_time("main") == pytest.approx(cost)

    def test_same_disk_requests_queue_within_an_operation(self):
        sched = OverlapScheduler()
        pool = passthrough_pool(two_disk_store(), scheduler=sched)
        with sched.operation("main"):
            pool.submit(AccessPlan("a").read(0, 1))   # disk 0
            pool.submit(AccessPlan("b").read(2, 1))   # disk 0 again
        assert sched.clock.client_time("main") == pytest.approx(
            sched.clock.disk_free[0]
        )
        assert sched.clock.disk_free[1] == 0.0

    def test_non_blocking_plan_does_not_advance_client(self):
        sched = OverlapScheduler()
        pool = passthrough_pool(two_disk_store(), scheduler=sched)
        plan = AccessPlan("prefetch", blocking=False, prefetch=True)
        plan.read(0, 2)
        assert pool.submit(plan) == 0.0
        assert sched.clock.client_time("main") == 0.0
        assert sched.clock.disk_free[0] > 0.0

    def test_operation_restores_client(self):
        sched = OverlapScheduler()
        with sched.operation("alice"):
            assert sched._client == "alice"
        assert sched._client == "main"

    def test_device_pricing_identical_to_sync(self):
        """The overlap scheduler issues the same priced calls — device
        statistics match the sync scheduler request for request."""
        objects = make_objects(150, seed=5)
        stats = []
        for scheduler in ("sync", "overlap"):
            db = SpatialDatabase(
                smax_bytes=16 * 4096, n_disks=4, scheduler=scheduler
            )
            db.build(objects)
            for rect in ((0, 0, 3000, 3000), (4000, 4000, 8000, 8000)):
                db.window_query(*rect)
            stats.append(db.io_stats())
        assert stats[0] == stats[1]


class TestPrefetchers:
    def test_sequential_suggests_following_run(self):
        plan = AccessPlan("t")
        plan.executed = [(10, 4, 30.0)]
        assert SequentialPrefetcher(depth=6).suggest(plan) == [(14, 6)]

    def test_sequential_nothing_without_transfer(self):
        plan = AccessPlan("t")
        plan.executed = [(10, 4, 0.0)]
        assert SequentialPrefetcher().suggest(plan) == []

    def test_cluster_completes_the_unit(self):
        plan = AccessPlan("t", extent=Extent(40, 8))
        plan.executed = [(40, 2, 20.0)]
        assert ClusterPrefetcher().suggest(plan) == [(40, 8)]

    def test_cluster_falls_back_to_sequential(self):
        plan = AccessPlan("t")
        plan.executed = [(10, 4, 30.0)]
        assert ClusterPrefetcher(depth=3).suggest(plan) == [(14, 3)]

    def test_make_prefetcher(self):
        assert make_prefetcher(None) is None
        assert make_prefetcher("none") is None
        assert isinstance(make_prefetcher("sequential"), SequentialPrefetcher)
        assert isinstance(make_prefetcher("cluster"), ClusterPrefetcher)
        ready = SequentialPrefetcher(2)
        assert make_prefetcher(ready) is ready
        with pytest.raises(ConfigurationError):
            make_prefetcher("oracle")
        with pytest.raises(ConfigurationError):
            SequentialPrefetcher(depth=0)
        assert ready.name == "sequential"

    def test_pool_prefetches_missing_pages_without_miss_accounting(self):
        disk = DiskModel()
        pool = BufferPool(disk, capacity=64, prefetcher=SequentialPrefetcher(8))
        pool.submit(AccessPlan("t").read(0, 2))
        # Demand read: 2 misses; prefetch loaded 8 more pages silently.
        assert pool.misses == 2
        assert pool.hits == 0
        assert len(pool) == 10
        assert 9 in pool
        # The prefetched pages are hits now.
        pool.submit(AccessPlan("t").read(2, 4))
        assert pool.hits == 4

    def test_prefetch_skipped_on_passthrough_pool(self):
        disk = DiskModel()
        pool = passthrough_pool(disk, prefetcher=SequentialPrefetcher(8))
        pool.submit(AccessPlan("t").read(0, 2))
        assert disk.stats().pages_transferred == 2
        assert len(pool) == 0

    def test_prefetch_does_not_recurse(self):
        disk = DiskModel()
        pool = BufferPool(disk, capacity=64, prefetcher=SequentialPrefetcher(4))
        pool.submit(AccessPlan("t").read(0, 2))
        # One demand request + one prefetch batch, nothing further.
        assert disk.stats().requests == 2
        assert len(pool) == 6


def record_traces(tmp_path, objects):
    """Two different client streams persisted as JSONL traces."""
    paths = []
    for i, seed in enumerate((31, 77)):
        stream = mixed_stream(
            objects, n_windows=10, n_points=6, seed=seed, data_space=10_000.0
        )
        path = tmp_path / f"client{i}.jsonl"
        save_trace(stream, path)
        paths.append(path)
    return paths


def session_db(objects, n_disks, scheduler="overlap"):
    db = SpatialDatabase(
        smax_bytes=16 * 4096, n_disks=n_disks, scheduler=scheduler
    )
    db.build(objects)
    return db


class TestDeterministicSessions:
    """Satellite: two recorded JSONL traces replayed as concurrent
    sessions produce identical reports across runs, on one disk and on
    a four-disk declustered store."""

    @pytest.mark.parametrize("n_disks", [1, 4])
    def test_replayed_sessions_are_reproducible(self, tmp_path, n_disks):
        objects = make_objects(150, seed=5)
        paths = record_traces(tmp_path, objects)

        def run_once():
            db = session_db(objects, n_disks)
            sessions = {
                "alpha": load_trace(paths[0]),
                "beta": load_trace(paths[1]),
            }
            return db.run_sessions(sessions, buffer_pages=200)

        first, second = run_once(), run_once()
        assert first.format() == second.format()
        assert first.makespan_ms == second.makespan_ms
        assert [
            (p.name, p.operations, p.results, p.io.total_ms, p.response_ms)
            for p in first.phases
        ] == [
            (p.name, p.operations, p.results, p.io.total_ms, p.response_ms)
            for p in second.phases
        ]
        assert [
            (c.name, c.operations, c.response_ms, c.device_ms)
            for c in first.clients
        ] == [
            (c.name, c.operations, c.response_ms, c.device_ms)
            for c in second.clients
        ]

    def test_sync_sessions_makespan_is_serial(self, tmp_path):
        objects = make_objects(150, seed=5)
        paths = record_traces(tmp_path, objects)
        db = session_db(objects, 1, scheduler="sync")
        report = db.run_sessions(
            {"a": load_trace(paths[0]), "b": load_trace(paths[1])},
            buffer_pages=200,
        )
        assert report.scheduler == "sync"
        assert report.makespan_ms == pytest.approx(report.total_response_ms)

    def test_overlap_beats_sync_on_four_disks(self, tmp_path):
        """The acceptance bar: the 4-disk concurrent workload's response
        time under overlapped scheduling drops below the synchronous
        max-over-disks baseline, at identical device time."""
        objects = make_objects(150, seed=5)
        paths = record_traces(tmp_path, objects)

        def run(scheduler):
            db = session_db(objects, 4, scheduler=scheduler)
            return db.run_sessions(
                {"a": load_trace(paths[0]), "b": load_trace(paths[1])},
                buffer_pages=200,
            )

        sync_report, overlap_report = run("sync"), run("overlap")
        assert overlap_report.total_io.total_ms == pytest.approx(
            sync_report.total_io.total_ms
        )
        assert overlap_report.makespan_ms < sync_report.makespan_ms

    def test_client_breakdown_consistent(self, tmp_path):
        objects = make_objects(150, seed=5)
        paths = record_traces(tmp_path, objects)
        db = session_db(objects, 4)
        report = db.run_sessions(
            {"a": load_trace(paths[0]), "b": load_trace(paths[1])},
            buffer_pages=200,
        )
        flush = report.phase("flush")
        flush_ops = flush.operations if flush is not None else 0
        assert (
            sum(c.operations for c in report.clients) + flush_ops
            == report.operations
        )
        assert report.client("a") is not None
        assert report.client("nobody") is None
        assert "per-client sessions" in report.format()


SESSIONS_TEXT = """\
sessions: scheduler=overlap, admission=none, policy=lru, buffer=200 pages
 phase  ops  results  hit rate  requests  pages  device ms  response ms  overlap ms
------  ---  -------  --------  --------  -----  ---------  -----------  ----------
window   14       48     84.2%         8     41     131.00       168.00      -37.00
 point   10        0     85.7%         6     21      66.00        97.00      -31.00
insert    8        8    100.0%         0      0       0.00         0.00        0.00
 flush    1        0      0.0%         3      4      49.00        49.00        0.00
 total   33       56     85.0%        17     66     246.00       314.00      -68.00
prefetch: 6 plans, 31 pages read ahead, 7 useful, 24 wasted

per-client sessions
  client  ops  results  device ms  response ms  queue ms  p50 ms  p95 ms
--------  ---  -------  ---------  -----------  --------  ------  ------
  reader   16       30     155.00       184.00    117.00    0.00   62.00
  writer   16       26      42.00        81.00    112.00    0.00   81.00
makespan   33       56     246.00       233.00    229.00""" + " " * 16
# (the makespan row's empty p50 / p95 cells pad to their column width)


class TestSessionsText:
    """No CLI golden prints a sessions report with a ``prefetch:`` line,
    a ``flush`` row and the ``makespan`` row together: this pins that
    text, byte for byte, for a smoke-size two-client run on two disks
    under the overlap scheduler with sequential prefetch."""

    def test_format_is_pinned(self):
        objects = make_objects(150, seed=5)
        inserts = make_objects(8, seed=10)
        for obj in inserts:
            obj.oid += 100_000
        db = SpatialDatabase(
            smax_bytes=16 * 4096, n_disks=2, scheduler="overlap",
            prefetch="sequential",
        )
        db.build(objects)
        sessions = {
            "reader": mixed_stream(
                objects, n_windows=10, n_points=6, seed=31, data_space=10_000.0
            ),
            "writer": mixed_stream(
                objects, n_windows=4, n_points=4, seed=77, data_space=10_000.0
            ) + [("insert", obj) for obj in inserts],
        }
        report = db.run_sessions(sessions, buffer_pages=200)
        assert report.format() == SESSIONS_TEXT

    def test_empty_runs_keep_their_headers(self):
        """With nothing served every table still prints its header; the
        empty sums print as integers, as they always have."""
        db = SpatialDatabase(smax_bytes=16 * 4096, n_disks=2, scheduler="overlap")
        db.build(make_objects(50, seed=5))
        phases = (
            "phase  ops  results  hit rate  requests  pages  device ms  "
            "response ms  overlap ms\n"
            "-----  ---  -------  --------  --------  -----  ---------  "
            "-----------  ----------\n"
            "total    0        0      0.0%         0      0       0.00  "
            "          0        0.00\n\n"
        )
        assert db.run_traffic([]).format() == (
            "traffic: sessions=0, scheduler=overlap, admission=none, "
            "policy=lru, buffer=1600 pages\n" + phases
            + "per-class latency\n"
            "class  sessions  ops  queue ms  p50 ms  p95 ms  p99 ms\n"
            "-----  --------  ---  --------  ------  ------  ------\n\n"
            "makespan 0.0 ms, 0.0 sessions/s"
        )
        assert db.run_sessions({}).format() == (
            "sessions: scheduler=overlap, admission=none, policy=lru, "
            "buffer=1600 pages\n" + phases
            + "per-client sessions\n"
            "  client  ops  results  device ms  response ms  queue ms  "
            "p50 ms  p95 ms\n"
            "--------  ---  -------  ---------  -----------  --------  "
            "------  ------\n"
            "makespan    0        0       0.00         0.00         0  "
            "              "
        )


class TestClockHygiene:
    """Review regressions: the engine measures each run on a fresh
    virtual clock, the flush write-back is dispatched onto it, and
    run() itself is clock-aware under the overlap scheduler."""

    def test_makespan_not_contaminated_by_prior_traffic(self, tmp_path):
        objects = make_objects(150, seed=5)
        paths = record_traces(tmp_path, objects)

        def sessions():
            return {"a": load_trace(paths[0]), "b": load_trace(paths[1])}

        db = session_db(objects, 4)
        db.window_query(0, 0, 8000, 8000)  # pre-run traffic on the clock
        first = db.run_sessions(sessions(), buffer_pages=200)
        again = db.run_sessions(sessions(), buffer_pages=200)
        # The clock is reset per run: a run's makespan is bounded by
        # the device time the run itself dispatched (every queue end
        # grows by at most the dispatched work).  Before the reset the
        # makespan carried the pre-run query's and the previous run's
        # entire timeline, blowing past this bound.
        assert 0.0 < first.makespan_ms <= first.total_io.total_ms
        assert 0.0 < again.makespan_ms <= again.total_io.total_ms
        # And consecutive runs measure the same workload at the same
        # scale (head-position carryover may nudge pricing slightly).
        assert again.makespan_ms == pytest.approx(
            first.makespan_ms, rel=0.25
        )

    def test_flush_writeback_counts_into_makespan(self):
        objects = make_objects(120, seed=9)
        inserts = make_objects(30, seed=10)
        for obj in inserts:
            obj.oid += 100_000
        stream = [("insert", obj) for obj in inserts]

        def run(scheduler):
            db = session_db(objects, 4, scheduler=scheduler)
            return db.run_sessions({"writer": stream}, buffer_pages=400)

        sync_report, overlap_report = run("sync"), run("overlap")
        sync_flush = sync_report.phase("flush")
        overlap_flush = overlap_report.phase("flush")
        assert sync_flush is not None and overlap_flush is not None
        # The write-back reaches the virtual clock: the overlap
        # makespan covers it (>= its response), and the flush response
        # is not silently zero.
        assert overlap_flush.response_ms > 0.0
        assert overlap_report.makespan_ms >= overlap_flush.response_ms

    def test_run_workload_is_clock_aware_under_overlap(self):
        """The workload engine's plain run() wraps operations in
        virtual-clock scopes, so prefetch overlap shows up in the
        response columns instead of silently reporting sync numbers.

        The ``slm`` technique reads only the matching pages of each
        cluster unit and the short gaps between them, so the cluster
        prefetcher has *real* (allocated) pages to read ahead — phantom
        pages past the allocator's
        high-water mark no longer count (they used to make this margin
        for free) — and the widening windows consume, in a *later*
        operation, the unit remainders an earlier operation's prefetch
        loaded (a prefetch dispatches only after its triggering demand
        read completes, so it cannot pay off within the same batch)."""
        objects = make_objects(300, seed=5)
        stream = [
            ("window", 0.0, 0.0, 1500.0, 8000.0),
            ("window", 0.0, 0.0, 4000.0, 8000.0),
            ("window", 0.0, 0.0, 8000.0, 8000.0),
        ] * 2

        def run(scheduler, prefetch=None):
            db = SpatialDatabase(
                smax_bytes=16 * 4096, n_disks=4, technique="slm",
                scheduler=scheduler, prefetch=prefetch,
            )
            db.build(objects)
            return db.run_workload(stream, buffer_pages=400)

        sync_report = run("sync")
        overlap_report = run("overlap")
        # A single serial client cannot overlap with itself: same
        # response accounting either way.
        assert overlap_report.total_response_ms == pytest.approx(
            sync_report.total_response_ms
        )
        # With prefetching, the speculative reads ride on non-blocking
        # plans: device time grows but the client does not wait for it —
        # and the later windows find their unit remainders resident, so
        # the client response drops below the unprefetched baseline.
        prefetched = run("overlap", "cluster")
        assert prefetched.total_io.total_ms > prefetched.total_response_ms
        assert prefetched.total_response_ms < overlap_report.total_response_ms


class RecordingPrefetcher:
    """Wraps a prefetch policy, recording every consultation."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.calls = 0

    def suggest(self, plan):
        self.calls += 1
        return self.inner.suggest(plan)


class TestPrefetchHighWaterClamp:
    """Regression (PR 5): read-ahead must never transfer pages past the
    allocator's high-water mark — phantom pages used to inflate device
    time for free."""

    def test_suggestions_past_the_high_water_mark_are_dropped(self):
        allocator = PageAllocator()
        allocator.region("data").allocate(4)  # pages 0..3 exist
        disk = DiskModel()
        pool = BufferPool(
            disk, capacity=64,
            prefetcher=SequentialPrefetcher(8), allocator=allocator,
        )
        pool.submit(AccessPlan("t").read(0, 4))
        # The suggestion (4, 8) lies entirely in unallocated space: no
        # phantom transfer, device time covers the demand read alone.
        assert disk.stats().pages_transferred == 4
        assert disk.stats().requests == 1
        assert len(pool) == 4

    def test_partial_clamp_keeps_the_allocated_prefix(self):
        allocator = PageAllocator()
        allocator.region("data").allocate(10)  # pages 0..9 exist
        disk = DiskModel()
        pool = BufferPool(
            disk, capacity=64,
            prefetcher=SequentialPrefetcher(8), allocator=allocator,
        )
        pool.submit(AccessPlan("t").read(0, 4))
        # Suggested 4..11; only 4..9 are allocated.
        assert disk.stats().pages_transferred == 10
        assert 9 in pool and 10 not in pool

    def test_pages_of_no_region_are_not_invented(self):
        disk = DiskModel()
        pool = BufferPool(
            disk, capacity=64,
            prefetcher=SequentialPrefetcher(8), allocator=PageAllocator(),
        )
        # The allocator owns no regions at all: every suggestion lies
        # in space no component ever claimed and is clamped away.
        pool.submit(AccessPlan("t").read(0, 2))
        assert disk.stats().pages_transferred == 2

    def test_without_allocator_behaviour_is_unchanged(self):
        disk = DiskModel()
        pool = BufferPool(disk, capacity=64, prefetcher=SequentialPrefetcher(8))
        pool.submit(AccessPlan("t").read(0, 2))
        assert disk.stats().pages_transferred == 10


class TestPrefetchTriggerGate:
    """Regression (PR 5): a plan fully absorbed by resident frames
    (zero-cost executed spans) must not consult the prefetcher — the
    docstring always said 'transferred anything', the code checked
    non-emptiness."""

    @pytest.mark.parametrize("policy", ["sequential", "cluster"])
    def test_all_hit_plan_does_not_prefetch(self, policy):
        disk = DiskModel()
        inner = make_prefetcher(policy, depth=4)
        spy = RecordingPrefetcher(inner)
        pool = BufferPool(disk, capacity=64, prefetcher=spy)
        pool.admit_all(range(0, 4))
        plan = AccessPlan("t", extent=Extent(0, 8))
        plan.read(0, 4)
        pool.submit(plan)
        assert plan.executed and not plan.transferred
        assert spy.calls == 0
        # An all-hit plan moves no pages — and triggers no speculative
        # unit completion either (the cluster policy would otherwise
        # have read pages 4..7 here).
        assert disk.stats().requests == 0

    @pytest.mark.parametrize("policy", ["sequential", "cluster"])
    def test_transferring_plan_still_prefetches(self, policy):
        allocator = PageAllocator()
        allocator.region("data").allocate(16)
        disk = DiskModel()
        inner = make_prefetcher(policy, depth=4)
        spy = RecordingPrefetcher(inner)
        pool = BufferPool(disk, capacity=64, prefetcher=spy, allocator=allocator)
        plan = AccessPlan("t", extent=Extent(0, 8))
        plan.read(0, 4)
        pool.submit(plan)
        assert plan.transferred
        assert spy.calls == 1
        assert disk.stats().pages_transferred > 4


class TestPrefetchCausality:
    """Regression (PR 5): a follow-up prefetch plan inside an operation
    scope used to dispatch at the *operation's* start — before the
    demand read that produced its suggestion had even completed."""

    def test_prefetch_dispatches_at_trigger_completion(self):
        # chunk_pages=4: pages 0..3 on disk 0, 4..7 on disk 1.
        store = ShardedPageStore(2, placement=RoundRobinPlacement(chunk_pages=4))
        allocator = PageAllocator()
        allocator.region("data").allocate(8)
        sched = OverlapScheduler()
        pool = BufferPool(
            store, capacity=64, scheduler=sched,
            prefetcher=SequentialPrefetcher(4), allocator=allocator,
        )
        with sched.operation("main"):
            pool.submit(AccessPlan("t").read(0, 4))
        demand = DiskModel().read(0, 4)      # 9 + 6 + 4 = 19 ms
        prefetch = DiskModel().read(4, 4)
        # Disk 1's prefetch work starts only at the demand completion:
        # its queue ends at demand + prefetch, not at prefetch.
        assert sched.clock.disk_free[0] == pytest.approx(demand)
        assert sched.clock.disk_free[1] == pytest.approx(demand + prefetch)
        # Clock monotonicity: nothing the prefetch occupied lies before
        # the demand transfer's completion.
        (start, end), = busy(sched.clock)[1]
        assert start >= demand
        assert end - start == pytest.approx(prefetch)

    def test_client_still_does_not_wait_for_the_prefetch(self):
        store = ShardedPageStore(2, placement=RoundRobinPlacement(chunk_pages=4))
        allocator = PageAllocator()
        allocator.region("data").allocate(8)
        sched = OverlapScheduler()
        pool = BufferPool(
            store, capacity=64, scheduler=sched,
            prefetcher=SequentialPrefetcher(4), allocator=allocator,
        )
        with sched.operation("main"):
            pool.submit(AccessPlan("t").read(0, 4))
        assert sched.clock.client_time("main") == pytest.approx(
            DiskModel().read(0, 4)
        )
