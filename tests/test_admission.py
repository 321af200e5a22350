"""Tests for admission control at the scheduler seam: the policy
registry, the analytics class's token-bucket pacing, priority classes,
the gap-aware virtual clock that makes delay useful, and the per-client
queueing-delay / latency-percentile reporting of run_sessions."""

from __future__ import annotations

import random

import pytest

from repro.buffer.pool import BufferPool
from repro.database import SpatialDatabase
from repro.disk.model import DiskModel
from repro.errors import ConfigurationError
from repro.iosched import (
    ADMISSIONS,
    AccessPlan,
    OverlapScheduler,
    PriorityAdmission,
    VirtualClock,
    make_admission,
)
from repro.pagestore.placement import RoundRobinPlacement
from repro.pagestore.store import ShardedPageStore
from repro.obs.metrics import percentile_sorted

from tests.conftest import make_objects
from tests.interval_list_clock import busy


class TestMakeAdmission:
    def test_none_disables(self):
        assert make_admission(None) is None
        assert make_admission("none") is None

    def test_named_policies(self):
        assert isinstance(make_admission("priority"), PriorityAdmission)

    def test_instance_passes_through(self):
        ready = PriorityAdmission(rate=2.0, burst_ms=5.0)
        assert make_admission(ready) is ready

    def test_rejections(self):
        with pytest.raises(ConfigurationError):
            make_admission("psychic")
        with pytest.raises(ConfigurationError):
            make_admission(42)
        with pytest.raises(ConfigurationError):
            make_admission("token-bucket")

    def test_names(self):
        assert PriorityAdmission().name == "priority"
        assert ADMISSIONS == ("none", "priority")


def analytics(client: str = "c", **bucket) -> PriorityAdmission:
    """A priority policy whose ``client`` is paced by the bucket."""
    return PriorityAdmission(classes={client: "analytics"}, **bucket)


class TestTokenBucket:
    """The analytics class's bucket: post-debited device time."""

    def test_full_bucket_admits_immediately(self):
        policy = analytics(rate=1.0, burst_ms=50.0)
        assert policy.admit("c", 10.0, None) == 10.0

    def test_post_debit_delays_next_operation(self):
        policy = analytics(rate=1.0, burst_ms=50.0)
        assert policy.admit("c", 0.0, None) == 0.0
        policy.observe("c", 0.0, 80.0, 80.0)  # 30 ms of debt
        # The next operation at t=10 waits until the bucket refills:
        # tokens(10) = -30 + 10 = -20 -> ready at 10 + 20 = 30.
        assert policy.admit("c", 10.0, None) == pytest.approx(30.0)

    def test_refill_caps_at_burst(self):
        policy = analytics(rate=1.0, burst_ms=20.0)
        policy.admit("c", 0.0, None)
        policy.observe("c", 0.0, 10.0, 10.0)
        # Ages far beyond the debt: the budget caps at burst, so a
        # following giant operation still only owes its own excess.
        assert policy.admit("c", 1000.0, None) == 1000.0
        policy.observe("c", 1000.0, 25.0, 1025.0)
        assert policy.admit("c", 1000.0, None) == pytest.approx(1005.0)

    def test_buckets_are_per_client(self):
        policy = PriorityAdmission(
            classes={"a": "analytics", "b": "analytics"}, rate=1.0, burst_ms=10.0
        )
        policy.admit("a", 0.0, None)
        policy.observe("a", 0.0, 100.0, 100.0)
        assert policy.admit("b", 0.0, None) == 0.0
        assert policy.admit("a", 0.0, None) > 0.0

    def test_reset_forgets_debt(self):
        policy = analytics("a", rate=1.0, burst_ms=10.0)
        policy.admit("a", 0.0, None)
        policy.observe("a", 0.0, 100.0, 100.0)
        policy.reset()
        assert policy.admit("a", 0.0, None) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PriorityAdmission(rate=0.0)
        with pytest.raises(ConfigurationError):
            PriorityAdmission(burst_ms=-1.0)


class TestPriorityAdmission:
    def test_interactive_bypasses(self):
        policy = PriorityAdmission(classes={"batch": "analytics"})
        policy.observe("ui", 0.0, 1e6, 1e6)  # interactive: never debited
        assert policy.admit("ui", 5.0, None) == 5.0

    def test_analytics_is_paced(self):
        policy = PriorityAdmission(
            classes={"batch": "analytics"}, rate=1.0, burst_ms=10.0
        )
        assert policy.admit("batch", 0.0, None) == 0.0
        policy.observe("batch", 0.0, 60.0, 60.0)
        assert policy.admit("batch", 0.0, None) == pytest.approx(50.0)

    def test_class_lookup_and_default(self):
        policy = PriorityAdmission(classes={"batch": "analytics"})
        assert policy.class_of("batch") == "analytics"
        assert policy.class_of("anything-else") == "interactive"

    def test_class_validation(self):
        with pytest.raises(ConfigurationError):
            PriorityAdmission(classes={"c": "vip"})


class TestGapAwareClock:
    """The virtual clock back-fills idle gaps — the property that makes
    delaying bulk work useful instead of harmful."""

    def test_late_dispatch_leaves_a_gap_an_early_request_fills(self):
        clock = VirtualClock()
        # Bulk work dispatched for t=100 leaves [0, 100) idle.
        assert clock.dispatch(100.0, [50.0]) == 150.0
        # A request issued at t=0 back-fills the gap instead of queueing
        # behind the future work.
        assert clock.dispatch(0.0, [30.0]) == 30.0
        assert clock.disk_free == [150.0]

    def test_too_small_gap_is_skipped(self):
        clock = VirtualClock()
        clock.dispatch(10.0, [5.0])   # busy [10, 15)
        clock.dispatch(20.0, [5.0])   # busy [20, 25)
        # 8 ms of work at t=0: fits [0, 10) but not [15, 20).
        assert clock.dispatch(0.0, [8.0]) == 8.0
        clock_2 = VirtualClock()
        clock_2.dispatch(0.0, [5.0])
        clock_2.dispatch(8.0, [5.0])  # busy [8, 13)
        # 4 ms at t=4: the gap [5, 8) is too small -> starts at 13.
        assert clock_2.dispatch(4.0, [4.0]) == 17.0

    def test_last_wait_reports_queueing_delay(self):
        clock = VirtualClock()
        clock.dispatch(0.0, [10.0])
        clock.dispatch(2.0, [3.0])
        assert clock.last_wait_ms == pytest.approx(8.0)
        clock.dispatch(50.0, [1.0])
        assert clock.last_wait_ms == 0.0

    def test_touching_intervals_merge(self):
        clock = VirtualClock()
        clock.dispatch(0.0, [10.0])
        clock.dispatch(0.0, [5.0])   # queues [10, 15) and merges
        assert busy(clock)[0] == [(0.0, 15.0)]


def two_disk_pool(scheduler):
    store = ShardedPageStore(2, placement=RoundRobinPlacement(chunk_pages=1))
    return BufferPool(store, capacity=0, scheduler=scheduler)


class TestSchedulerAdmission:
    def test_operation_dispatch_is_delayed(self):
        # Refill at half the device rate: a serial client's elapsed
        # time repays only half its debt, so every second request's
        # worth of work turns into admission delay.
        sched = OverlapScheduler()
        sched.admission = analytics(rate=0.5, burst_ms=0.0)
        pool = two_disk_pool(sched)
        with sched.operation("c"):
            pool.submit(AccessPlan("a").read(0, 1))
        first = sched.clock.client_time("c")
        cost = DiskModel().read(0, 1)
        assert first == pytest.approx(cost)
        with sched.operation("c"):
            pool.submit(AccessPlan("b").read(2, 1))
        # Debt ``cost`` refilled at 0.5 from t=cost: half is repaid by
        # t=2*cost, the remaining half costs another ``cost`` of wait —
        # dispatch at 2*cost, completion one request later.
        assert sched.clock.client_time("c") == pytest.approx(3 * cost)
        assert sched.client_queueing_ms("c") == pytest.approx(cost)

    def test_a_policy_that_admits_early_is_refused(self):
        """``admit`` answers at or after the time it is asked about; an
        earlier answer is the policy's bug, refused before the
        operation opens and before the client's clock moves."""

        class Early(PriorityAdmission):
            def admit(self, client, at, clock):
                return at - 1.0

        sched = OverlapScheduler()
        pool = two_disk_pool(sched)
        with sched.operation("c"):
            pool.submit(AccessPlan("a").read(0, 1))
        before = sched.clock.client_time("c")
        sched.admission = Early()
        with pytest.raises(ConfigurationError, match="'priority'.*before its time"):
            with sched.operation("c"):
                pool.submit(AccessPlan("b").read(2, 1))
        assert not sched.in_operation
        assert sched.clock.client_time("c") == before > 0.0

    def test_admission_does_not_change_pricing(self):
        objects = make_objects(150, seed=5)

        def run(admission):
            db = SpatialDatabase(smax_bytes=16 * 4096, n_disks=4, scheduler="overlap")
            db.build(objects)
            windows = [("window", 0, 0, 3000, 3000), ("window", 4000, 4000, 8000, 8000)]
            db.run_sessions({"main": windows}, buffer_pages=0, admission=admission)
            return db.io_stats()

        assert run(None) == run(analytics("main"))

    def test_each_run_starts_its_policy_afresh(self):
        """A policy instance reused for a second run owes nothing from
        the first: the run installs it reset, on a reset clock."""
        objects = make_objects(150, seed=5)

        def second_run(first_policy, second_policy):
            db = SpatialDatabase(smax_bytes=16 * 4096, n_disks=4, scheduler="overlap")
            db.build(objects)
            for policy in (first_policy, second_policy):
                report = db.run_sessions(
                    interactive_and_batch_streams(), buffer_pages=64, admission=policy
                )
            return report.client("batch").queueing_ms

        def paced():
            return PriorityAdmission(classes={"batch": "analytics"}, rate=0.25, burst_ms=10.0)

        reused = paced()
        assert second_run(reused, reused) == second_run(paced(), paced()) > 0.0


def interactive_and_batch_streams():
    rng = random.Random(3)
    ui = []
    for _ in range(40):
        x, y = rng.uniform(0, 7000), rng.uniform(0, 7000)
        ui.append(("window", x, y, x + 600, y + 600))
    batch = [("window", 0.0, 0.0, 8000.0, 8000.0)] * 8
    return {"ui": ui, "batch": batch}


class TestSessionsAdmission:
    def build_db(self):
        objects = make_objects(400, seed=5)
        db = SpatialDatabase(
            smax_bytes=16 * 4096, n_disks=4, scheduler="overlap"
        )
        db.build(objects)
        return db

    def test_admission_needs_overlap_scheduler(self):
        objects = make_objects(100, seed=5)
        db = SpatialDatabase(smax_bytes=16 * 4096, scheduler="sync")
        db.build(objects)
        with pytest.raises(ConfigurationError):
            db.run_sessions(
                {"a": [("window", 0, 0, 100, 100)]}, admission="priority"
            )

    def test_priority_cuts_interactive_p95_at_identical_device_time(self):
        """The tentpole acceptance bar: pacing the analytics client
        leaves early-clock gaps the interactive client back-fills, so
        its latency tail and queueing delay drop — while the priced
        device calls are bit-identical."""
        none = self.build_db().run_sessions(
            interactive_and_batch_streams(), buffer_pages=64
        )
        prio = self.build_db().run_sessions(
            interactive_and_batch_streams(),
            buffer_pages=64,
            admission=PriorityAdmission(
                classes={"batch": "analytics"}, rate=0.25, burst_ms=10.0
            ),
        )
        assert prio.total_io.total_ms == none.total_io.total_ms
        assert prio.client("ui").p95_ms < none.client("ui").p95_ms
        assert prio.client("ui").queueing_ms < none.client("ui").queueing_ms
        # The flip side is visible too: the paced client waits longer.
        assert prio.client("batch").p95_ms > none.client("batch").p95_ms
        assert prio.admission == "priority" and none.admission == "none"

    def test_report_carries_queueing_and_percentiles(self):
        report = self.build_db().run_sessions(
            interactive_and_batch_streams(), buffer_pages=64
        )
        ui = report.client("ui")
        assert len(ui.latencies) == ui.operations
        assert ui.p50_ms <= ui.p95_ms <= max(ui.latencies)
        assert ui.queueing_ms >= 0.0
        text = report.format()
        assert "queue ms" in text and "p95 ms" in text

    def test_run_admission_is_per_run(self):
        db = self.build_db()
        db.run_sessions(
            interactive_and_batch_streams(),
            buffer_pages=64,
            admission="priority",
        )
        # The engine restores the scheduler's own policy afterwards.
        assert db.scheduler.admission is None


class TestLatencyPercentile:
    def test_empty_sample(self):
        assert percentile_sorted([], 0.95) == 0.0

    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile_sorted(values, 0.50) == 3.0
        assert percentile_sorted(values, 0.95) == 5.0
        assert percentile_sorted(values, 0.0) == 1.0
        assert percentile_sorted([7.0], 0.95) == 7.0
