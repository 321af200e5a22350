"""The bisect-indexed virtual clock against the historical O(n) scan.

Three layers of evidence that the PR-8 :class:`VirtualClock` rewrite
preserves the interval-list semantics exactly:

* edge-case reservations (zero-length work, adjacent merges on either
  and both sides, placements exactly on a gap boundary, gap back-fill
  behind a far tail) asserted against hand-computed placements on BOTH
  implementations;
* randomized dispatch fuzzing — identical begins, busy lists, free
  times and makespans on arbitrary reserve/dispatch sequences;
* recorded session traces replayed end-to-end through
  ``run_sessions`` under each clock (1 and 4 disks, with and without
  admission) — identical makespans, per-client queueing delays and
  ``last_intervals`` placements.
"""

from __future__ import annotations

import random

import pytest

from repro.database import SpatialDatabase
from repro.iosched import OverlapScheduler
from repro.iosched.admission import PriorityAdmission
from repro.iosched.scheduler import VirtualClock
from repro.workload.streams import mixed_stream

from tests.conftest import make_objects
from tests.interval_list_clock import IntervalListClock

CLOCKS = [VirtualClock, IntervalListClock]


def busy(clock, disk=0):
    return clock._busy[disk]


@pytest.mark.parametrize("clock_cls", CLOCKS, ids=["bisect", "scan"])
class TestReserveEdgeCases:
    """Satellite: interval-coalescing edge cases of ``reserve``."""

    def test_adjacent_merge_left(self, clock_cls):
        clock = clock_cls()
        assert clock.reserve(0, 0.0, 10.0) == 0.0
        # Starts exactly where the existing interval ends: one interval.
        assert clock.reserve(0, 10.0, 5.0) == 10.0
        assert busy(clock) == [(0.0, 15.0)]

    def test_adjacent_merge_right(self, clock_cls):
        clock = clock_cls()
        assert clock.reserve(0, 20.0, 10.0) == 20.0
        # Ends exactly where the existing interval starts: one interval.
        assert clock.reserve(0, 15.0, 5.0) == 15.0
        assert busy(clock) == [(15.0, 30.0)]

    def test_adjacent_merge_both_sides(self, clock_cls):
        clock = clock_cls()
        clock.reserve(0, 0.0, 10.0)
        clock.reserve(0, 20.0, 10.0)
        assert busy(clock) == [(0.0, 10.0), (20.0, 30.0)]
        # Fills the gap exactly: all three fuse into one interval.
        assert clock.reserve(0, 10.0, 10.0) == 10.0
        assert busy(clock) == [(0.0, 30.0)]

    def test_zero_length_reservation(self, clock_cls):
        clock = clock_cls()
        assert clock.reserve(0, 5.0, 0.0) == 5.0
        # A zero-length interval is recorded, not dropped...
        assert busy(clock) == [(5.0, 5.0)]
        # ...and later real work merges straight through it.
        assert clock.reserve(0, 5.0, 3.0) == 5.0
        assert busy(clock) == [(5.0, 8.0)]

    def test_zero_length_on_busy_disk_waits_for_gap(self, clock_cls):
        clock = clock_cls()
        clock.reserve(0, 0.0, 10.0)
        # Zero work still queues past the busy interval.
        assert clock.reserve(0, 4.0, 0.0) == 10.0

    def test_reservation_exactly_at_gap_boundary(self, clock_cls):
        clock = clock_cls()
        clock.reserve(0, 0.0, 10.0)
        clock.reserve(0, 20.0, 10.0)
        # Requested at the instant the first interval ends, fitting the
        # gap exactly: placed at the boundary, fusing everything.
        assert clock.reserve(0, 10.0, 10.0) == 10.0
        assert busy(clock) == [(0.0, 30.0)]

    def test_gap_too_small_at_boundary_skips_to_next_gap(self, clock_cls):
        clock = clock_cls()
        clock.reserve(0, 0.0, 10.0)
        clock.reserve(0, 20.0, 10.0)
        # An 11-ms job requested at the 10-ms gap boundary cannot fit
        # the gap; it queues after the second interval.
        assert clock.reserve(0, 10.0, 11.0) == 30.0
        assert busy(clock) == [(0.0, 10.0), (20.0, 41.0)]

    def test_backfill_earliest_fitting_gap(self, clock_cls):
        clock = clock_cls()
        clock.reserve(0, 0.0, 10.0)
        clock.reserve(0, 30.0, 10.0)
        clock.reserve(0, 60.0, 10.0)
        # at=5 inside the first interval; first gap [10, 30) fits.
        assert clock.reserve(0, 5.0, 15.0) == 10.0
        # Next large job skips the merged front, fits [40, 60).
        assert clock.reserve(0, 0.0, 16.0) == 40.0

    def test_front_gap_after_tail_jump(self, clock_cls):
        """A large reservation may jump to the tail, but a later small
        one must still land in the gap in front of the intervals —
        the gap whose size depends on ``at``, not on any interior gap."""
        clock = clock_cls()
        clock.reserve(0, 100.0, 10.0)
        clock.reserve(0, 0.0, 5.0)
        assert busy(clock) == [(0.0, 5.0), (100.0, 110.0)]
        # Too big for the [5, 100) gap relative to at=20? No — 200 ms
        # exceeds it, goes to the tail.
        assert clock.reserve(0, 20.0, 200.0) == 110.0
        # A 90-ms job at at=6 fits [6, 100) exactly in front.
        assert clock.reserve(0, 6.0, 90.0) == 6.0

    def test_work_spanning_every_gap_queues_at_tail(self, clock_cls):
        clock = clock_cls()
        for start in (0.0, 20.0, 40.0, 60.0):
            clock.reserve(0, start, 10.0)
        assert clock.reserve(0, 0.0, 12.0) == 70.0
        assert clock.disk_free == [82.0]

    def test_disks_are_independent(self, clock_cls):
        clock = clock_cls()
        clock.reserve(0, 0.0, 50.0)
        assert clock.reserve(1, 0.0, 5.0) == 0.0
        assert clock.disk_free == [50.0, 5.0]


class TestClockEquivalenceFuzz:
    """Randomized dispatch sequences place identically on both clocks."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_reserves_identical(self, seed):
        rng = random.Random(seed)
        new, old = VirtualClock(), IntervalListClock()
        for _ in range(500):
            disk = rng.randrange(3)
            # Mix fractional and integral instants so exact-touch
            # merges and strict gaps both occur.
            at = rng.choice(
                (float(rng.randrange(0, 400)), rng.uniform(0.0, 400.0))
            )
            work = rng.choice((0.0, float(rng.randrange(1, 30))))
            assert new.reserve(disk, at, work) == old.reserve(disk, at, work)
        assert new._busy == old._busy
        assert new.disk_free == old.disk_free
        assert new.makespan == old.makespan

    @pytest.mark.parametrize("seed", range(4))
    def test_random_dispatch_identical(self, seed):
        rng = random.Random(1000 + seed)
        new, old = VirtualClock(), IntervalListClock()
        for step in range(200):
            client = f"c{rng.randrange(5)}"
            if rng.random() < 0.3:
                at = rng.uniform(0.0, 300.0)
                new.wait(client, at)
                old.wait(client, at)
                continue
            at = new.client_time(client)
            assert at == old.client_time(client)
            work = [
                float(rng.randrange(0, 20)) for _ in range(rng.randrange(1, 4))
            ]
            finish_new = new.dispatch(at, work)
            finish_old = old.dispatch(at, work)
            assert finish_new == finish_old
            assert new.last_wait_ms == old.last_wait_ms
            assert new.last_intervals == old.last_intervals
            new.wait(client, finish_new)
            old.wait(client, finish_old)
        assert new._busy == old._busy
        assert new.makespan == old.makespan

    def test_reset_clears_both(self):
        for clock in (VirtualClock(), IntervalListClock()):
            clock.reserve(1, 3.0, 7.0)
            clock.wait("a", 11.0)
            clock.reset()
            assert clock.disk_free == []
            assert clock.makespan == 0.0
            assert clock.clients == {}


def run_sessions_with_clock(objects, n_disks, clock, admission=None):
    db = SpatialDatabase(smax_bytes=16 * 4096, n_disks=n_disks, scheduler="overlap")
    db.build(objects)
    db.scheduler.clock = clock
    sessions = {
        "alpha": mixed_stream(
            objects, n_windows=10, n_points=6, seed=31, data_space=10_000.0
        ),
        "beta": mixed_stream(
            objects, n_windows=10, n_points=6, seed=77, data_space=10_000.0
        ),
    }
    report = db.run_sessions(sessions, buffer_pages=200, admission=admission)
    return report, db.scheduler


class TestTraceReplayEquivalence:
    """Satellite: recorded session streams replayed under each clock
    produce identical makespans, queueing delays and placements."""

    @pytest.mark.parametrize("n_disks", [1, 4])
    @pytest.mark.parametrize("admission", ["none", "priority"])
    def test_session_replay_identical(self, n_disks, admission):
        objects = make_objects(150, seed=5)
        policy = None
        if admission == "priority":
            policy = PriorityAdmission(classes={"beta": "analytics"})
        reports = {}
        for label, clock in (("new", VirtualClock()), ("old", IntervalListClock())):
            if policy is not None:
                policy.reset()
            report, scheduler = run_sessions_with_clock(
                objects, n_disks, clock, admission=policy
            )
            reports[label] = (
                report.makespan_ms,
                [(c.name, c.queueing_ms, c.response_ms) for c in report.clients],
                scheduler.clock.last_intervals,
                scheduler.clock._busy,
                report.format(),
            )
        assert reports["new"] == reports["old"]

    def test_overlap_scheduler_accepts_clock_knob(self):
        sched = OverlapScheduler(clock=IntervalListClock())
        assert isinstance(sched.clock, IntervalListClock)
        assert isinstance(OverlapScheduler().clock, VirtualClock)


class TestOracleIsIndependent:
    def test_oracle_overrides_every_interval_member(self):
        """The oracle subclasses :class:`VirtualClock` for the client
        timelines and ``dispatch``; every member that reads or writes
        the busy intervals is its own, so it never inherits the code it
        checks."""
        for name in ("reserve", "_ensure", "disk_free", "_clear"):
            assert name in IntervalListClock.__dict__, name
            assert IntervalListClock.__dict__[name] is not VirtualClock.__dict__[name]
        assert isinstance(IntervalListClock(), VirtualClock)
