"""The traffic generator and the event-heap traffic runner.

Covers :mod:`repro.workload.traffic` (arrival processes, class mix),
:meth:`WorkloadEngine.run_traffic` through the
database facade (determinism, per-class accounting, admission
classification and re-queueing), and the cached percentile paths the
10^5-operation runs depend on.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.database import SpatialDatabase
from repro.errors import ConfigurationError
from repro.iosched.admission import PriorityAdmission
from repro.obs.metrics import Histogram, percentile_sorted
from repro.workload.engine import Row, RunReport, WorkloadEngine
from repro.workload.streams import mixed_stream
from repro.workload.traffic import (
    ARRIVALS,
    TrafficSession,
    class_of_session,
    make_traffic,
)

from tests.conftest import make_objects


@pytest.fixture(scope="module")
def objects():
    return make_objects(200, seed=5)


def generate(objects, n=300, **kwargs):
    kwargs.setdefault("data_space", 10_000.0)
    kwargs.setdefault("seed", 42)
    return make_traffic(objects, n, **kwargs)


class TestGenerator:
    def test_deterministic_for_fixed_seed(self, objects):
        a = generate(objects)
        b = generate(objects)
        assert [(s.name, s.klass, s.arrival_ms, s.operations) for s in a] == [
            (s.name, s.klass, s.arrival_ms, s.operations) for s in b
        ]
        c = generate(objects, seed=43)
        assert [s.arrival_ms for s in a] != [s.arrival_ms for s in c]

    @pytest.mark.parametrize("arrival", ARRIVALS)
    def test_arrivals_non_decreasing(self, objects, arrival):
        sessions = generate(objects, arrival=arrival)
        times = [s.arrival_ms for s in sessions]
        assert len(sessions) == 300
        assert all(b >= a for a, b in zip(times, times[1:]))
        assert all(t >= 0.0 for t in times)

    @pytest.mark.parametrize(
        "arrival, digest",
        [("poisson", "ff04edd08822d30c"), ("closed", "e1237293277c9a0b")],
    )
    def test_streams_are_pinned(self, objects, arrival, digest):
        """Each arrival process's seeded stream, byte for byte: names,
        classes, arrival instants, operations and think times."""
        sessions = generate(
            objects, arrival=arrival, ops_per_session=3, analytics_fraction=0.1
        )
        text = repr(
            [(s.name, s.klass, s.arrival_ms, s.operations, s.think_ms) for s in sessions]
        )
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_poisson_rate_sets_mean_gap(self, objects):
        sessions = generate(objects, n=2000, rate_per_s=100.0)
        span_s = sessions[-1].arrival_ms / 1000.0
        # 2000 arrivals at 100/s: ~20 s span (generous tolerance).
        assert 14.0 < span_s < 28.0

    def test_closed_population_starts_at_zero_with_think_time(self, objects):
        sessions = generate(
            objects, n=50, arrival="closed", think_ms=75.0, ops_per_session=3
        )
        assert all(s.arrival_ms == 0.0 for s in sessions)
        assert all(s.think_ms == 75.0 for s in sessions)

    def test_open_loop_sessions_have_no_think_time(self, objects):
        sessions = generate(objects, n=50, think_ms=75.0)
        assert all(s.think_ms == 0.0 for s in sessions)

    def test_class_fraction_and_name_prefixes(self, objects):
        sessions = generate(objects, n=2000, analytics_fraction=0.2)
        analytics = [s for s in sessions if s.klass == "analytics"]
        assert 0.12 < len(analytics) / len(sessions) < 0.28
        for s in sessions:
            assert class_of_session(s.name) == s.klass
            assert s.name.startswith(("int-", "ana-"))
            assert s.operations
        # Analytics sessions are multi-op bulk scans of large windows.
        assert any(len(s.operations) > 1 for s in analytics)
        assert all(op[0] == "window" for s in analytics for op in s.operations)

    def test_interactive_mixes_windows_and_points(self, objects):
        sessions = generate(objects, n=500)
        kinds = {
            op[0]
            for s in sessions
            if s.klass == "interactive"
            for op in s.operations
        }
        assert kinds == {"window", "point"}

    def test_zero_sessions(self, objects):
        assert generate(objects, n=0) == []

    def test_rejects_bad_parameters(self, objects):
        with pytest.raises(ConfigurationError):
            generate(objects, n=-1)
        with pytest.raises(ConfigurationError):
            generate(objects, arrival="fractal")
        with pytest.raises(ConfigurationError):
            generate(objects, rate_per_s=0.0)
        with pytest.raises(ConfigurationError):
            generate(objects, analytics_fraction=1.5)

    def test_rejects_negative_think_time_and_empty_sessions(self, objects):
        # A negative think time would make a follow-up operation ready
        # before its predecessor completed; zero operations per session
        # used to be clamped to one without a word.
        with pytest.raises(ConfigurationError, match="think_ms"):
            generate(objects, arrival="closed", think_ms=-1.0)
        with pytest.raises(ConfigurationError, match="ops_per_session"):
            generate(objects, arrival="closed", ops_per_session=0)
        assert generate(objects, n=5, arrival="closed", think_ms=0.0)


def traffic_db(n_disks=4, scheduler="overlap"):
    db = SpatialDatabase(
        smax_bytes=16 * 4096, n_disks=n_disks, scheduler=scheduler
    )
    return db


class TestRunTraffic:
    def test_requires_overlap_scheduler(self, objects):
        db = traffic_db(scheduler="sync")
        db.build(objects)
        with pytest.raises(ConfigurationError):
            db.run_traffic(generate(objects, n=5))

    def test_report_consistency(self, objects):
        db = traffic_db()
        db.build(objects)
        sessions = generate(objects, n=120, rate_per_s=300.0)
        report = db.run_traffic(sessions, buffer_pages=128)
        assert isinstance(report, RunReport) and report.run == "traffic"
        assert report.sessions == 120
        assert report.scheduler == "overlap"
        assert not hasattr(report, "arrival")
        assert report.makespan_ms > 0.0
        assert report.throughput_per_s > 0.0
        total_ops = sum(len(s.operations) for s in sessions)
        assert sum(c.operations for c in report.classes) == total_ops
        assert sum(c.sessions for c in report.classes) == 120
        # Per-class latency histograms live in the metrics registry.
        for c in report.classes:
            (hist,) = [m for m in db.metrics if m.key == f"op.latency_ms{{class={c.name}}}"]
            assert hist.count == c.operations
            assert hist.percentile(0.99) == c.p99_ms
        # The format renders without blowing up and names each class.
        text = report.format()
        for c in report.classes:
            assert c.name in text

    def test_deterministic_across_runs(self, objects):
        sessions = generate(objects, n=80, rate_per_s=200.0)

        def once():
            db = traffic_db()
            db.build(objects)
            return db.run_traffic(sessions, buffer_pages=128)

        first, second = once(), once()
        assert first.makespan_ms == second.makespan_ms
        assert first.format() == second.format()

    def test_no_per_session_metrics_flood(self, objects):
        db = traffic_db()
        db.build(objects)
        db.run_traffic(generate(objects, n=60), buffer_pages=128)
        client_keys = [
            metric.key
            for metric in db.metrics
            if "client=int-" in metric.key or "client=ana-" in metric.key
        ]
        assert client_keys == []

    def test_closed_loop_runs_and_paces(self, objects):
        db = traffic_db()
        db.build(objects)
        sessions = generate(
            objects, n=30, arrival="closed", think_ms=40.0, ops_per_session=3
        )
        report = db.run_traffic(sessions, buffer_pages=128)
        total_ops = sum(len(s.operations) for s in sessions)
        assert sum(c.operations for c in report.classes) == total_ops
        multi = [s for s in sessions if len(s.operations) > 1]
        assert multi  # think-time pacing actually exercised
        assert report.makespan_ms >= 40.0 * max(
            len(s.operations) - 1 for s in multi
        )

    def test_a_closed_run_names_no_arrival_process(self, objects):
        """The engine cannot know how its sessions arrived, so a
        closed-loop run's report names no arrival process."""
        db = traffic_db()
        db.build(objects)
        sessions = generate(objects, n=20, arrival="closed", ops_per_session=2)
        text = db.run_traffic(sessions, buffer_pages=96).format()
        assert text.startswith("traffic: sessions=20, scheduler=overlap,")
        assert "arrival" not in text and "poisson" not in text

    def test_priority_admission_via_classifier(self, objects):
        sessions = generate(
            objects, n=150, rate_per_s=2000.0, analytics_fraction=0.3
        )
        db = traffic_db()
        db.build(objects)
        baseline = db.run_traffic(sessions, buffer_pages=96)
        db2 = traffic_db()
        db2.build(objects)
        policy = PriorityAdmission(
            classifier=class_of_session, rate=0.02, burst_ms=5.0
        )
        paced = db2.run_traffic(sessions, buffer_pages=96, admission=policy)
        assert paced.admission == "priority"
        # Pacing pushes analytics completions later.
        base_ana = baseline.traffic_class("analytics")
        paced_ana = paced.traffic_class("analytics")
        assert paced_ana.queueing_ms > base_ana.queueing_ms
        # The run-scoped policy is uninstalled afterwards.
        assert db2.scheduler.admission is None

    def test_admission_restored_and_metrics_reattached(self, objects):
        db = traffic_db()
        db.build(objects)
        saved_metrics = db.scheduler.metrics
        db.run_traffic(
            generate(objects, n=20),
            buffer_pages=96,
            admission=PriorityAdmission(classifier=class_of_session),
        )
        assert db.scheduler.admission is None
        assert db.scheduler.metrics is saved_metrics


@pytest.fixture(scope="module")
def served_dbs(objects):
    """A read-only database per disk count, shared by the examples below
    (every run gets a fresh pool and a reset clock)."""
    dbs = {n_disks: traffic_db(n_disks=n_disks) for n_disks in (1, 2, 4)}
    for db in dbs.values():
        db.build(objects)
    return dbs


class TestEveryGroupFoldsTheSameRecord:
    """A served operation is one record: the phase rows and the client
    (or traffic-class) rows fold the same records, so their sums and
    latency samples agree under any disk count and admission."""

    @pytest.mark.parametrize("run", ["sessions", "traffic"])
    @pytest.mark.parametrize("n_disks", [1, 2, 4])
    @pytest.mark.parametrize("admission", ["none", "priority"])
    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 30),
        sizes=st.lists(st.integers(0, 6), min_size=1, max_size=4),
    )
    def test_phase_rows_and_group_rows_agree(
        self, objects, served_dbs, run, n_disks, admission, seed, n, sizes
    ):
        db = served_dbs[n_disks]
        priority = admission == "priority"
        if run == "sessions":
            sessions = {
                f"c{i}": mixed_stream(
                    objects, n_windows=size, n_points=size // 2,
                    seed=seed + i, data_space=10_000.0,
                )
                for i, size in enumerate(sizes)
            }
            policy = PriorityAdmission(
                classes={"c1": "analytics"}, rate=0.05, burst_ms=5.0
            )
            report = db.run_sessions(
                sessions, buffer_pages=64, admission=policy if priority else None
            )
            groups = report.clients
        else:
            sessions = generate(
                objects, n=n, seed=seed, rate_per_s=1000.0,
                analytics_fraction=0.3, ops_per_session=3,
            )
            policy = PriorityAdmission(
                classifier=class_of_session, rate=0.02, burst_ms=5.0
            )
            report = db.run_traffic(
                sessions, buffer_pages=64, admission=policy if priority else None
            )
            groups = report.classes
        phases = [p for p in report.phases if p.name != "flush"]
        for column in ("operations", "results", "hits", "misses"):
            assert sum(getattr(p, column) for p in phases) == sum(
                getattr(g, column) for g in groups
            ), column
        assert sorted(x for p in phases for x in p.latencies) == sorted(
            x for g in groups for x in g.latencies
        )
        assert sum(g.device_ms for g in groups) == pytest.approx(
            sum(p.io.total_ms for p in phases)
        )
        assert sum(g.sessions for g in groups) == len(sessions)


class TestPercentileCaching:
    def test_histogram_cache_invalidated_by_append(self):
        hist = Histogram("lat", {})
        for v in (5.0, 1.0, 3.0):
            hist.observe(v)
        assert hist.percentile(0.5) == 3.0
        # Appending AFTER a read must invalidate the cached sort.
        hist.observe(0.5)
        assert hist.sorted_values() == [0.5, 1.0, 3.0, 5.0]
        assert hist.percentile(1.0) == 5.0

    def test_row_percentiles_match_uncached(self):
        stats = Row("window")
        stats.latencies.extend([9.0, 2.0, 7.0, 4.0])
        assert stats.p50_ms == percentile_sorted([2.0, 4.0, 7.0, 9.0], 0.50)
        stats.latencies.append(1.0)
        assert stats.p50_ms == percentile_sorted([1.0, 2.0, 4.0, 7.0, 9.0], 0.50)
        assert stats.p99_ms == 9.0
        assert stats.p95_ms == percentile_sorted([1.0, 2.0, 4.0, 7.0, 9.0], 0.95)
        stats.latencies.append(40.0)
        assert stats.p99_ms == 40.0
        assert stats.sorted_latencies() == [1.0, 2.0, 4.0, 7.0, 9.0, 40.0]


class TestSessionDataclass:
    def test_defaults(self):
        session = TrafficSession(name="int-000000", klass="interactive", arrival_ms=3.5)
        assert session.operations == []
        assert session.think_ms == 0.0


# ----------------------------------------------------------------------
# a read-only run answered ahead is the same run served live
# ----------------------------------------------------------------------
def _serve_live(monkeypatch):
    """Make every run of this test serve its operations live: the
    answer-ahead step hands the streams back untouched."""
    monkeypatch.setattr(WorkloadEngine, "_answer_ahead", lambda self, streams: streams)


@pytest.fixture(scope="module")
def twin_objects():
    """Sizes up to 12 KB: with an 8 KB Smax some objects have pages of
    their own in every organization, so requests are not entry order."""
    return make_objects(160, seed=21, size_range=(200, 12_000))


def _twin_run(objects, organization, scheduler, n_disks, run, refines=2):
    """Build a fresh database, run ``run(db)`` on it and return what the
    twin compares: the report's text, per-disk I/O, the metrics and the
    makespan (the clock's too, under the overlap scheduler).  The run
    must make ``refines`` refinement calls (one per kind when answered
    ahead, one per read when served live; ``None``: any number)."""
    from unittest.mock import patch

    from repro.storage.base import SpatialOrganization

    db = SpatialDatabase(
        organization=organization, smax_bytes=2 * 4096,
        n_disks=n_disks, scheduler=scheduler,
    )
    db.build(objects)
    calls = []
    refine = SpatialOrganization._refine

    def counted(org, queries, points):
        calls.append(len(queries))
        return refine(org, queries, points)

    with patch.object(SpatialOrganization, "_refine", counted):
        report = run(db)
    assert refines is None or len(calls) == refines
    disk = db.disk
    per_disk = disk.per_disk_stats() if n_disks > 1 else [disk.stats()]
    clock = getattr(db.scheduler, "clock", None)
    return (
        report.format(), per_disk, db.metrics.snapshot(), report.makespan_ms,
        clock.makespan if clock is not None else None,
    )


def _read_sessions(objects, n_clients=3):
    return {
        f"c{i}": mixed_stream(
            objects, n_windows=8 + 3 * i, n_points=5 + i, seed=40 + i, data_space=10_000.0
        )
        for i in range(n_clients)
    }


class TestAnsweredAheadIsServedLive:
    """A read-only ``run_sessions`` or ``run_traffic`` filters and refines
    all its operations before it prices any; forced onto the live path,
    the same run must print, price, measure and time the same."""

    @pytest.mark.parametrize("organization", ["secondary", "primary", "cluster"])
    @pytest.mark.parametrize("scheduler", ["sync", "overlap"])
    @pytest.mark.parametrize("n_disks", [1, 4])
    def test_sessions(self, twin_objects, monkeypatch, organization, scheduler, n_disks):
        def run(db):
            return db.run_sessions(_read_sessions(twin_objects), buffer_pages=48)

        ahead = _twin_run(twin_objects, organization, scheduler, n_disks, run)
        _serve_live(monkeypatch)
        reads = sum(map(len, _read_sessions(twin_objects).values()))
        assert _twin_run(twin_objects, organization, scheduler, n_disks, run, reads) == ahead

    @pytest.mark.parametrize("organization", ["secondary", "primary", "cluster"])
    @pytest.mark.parametrize("n_disks", [1, 4])
    def test_traffic(self, twin_objects, monkeypatch, organization, n_disks):
        sessions = generate(
            twin_objects, n=40, rate_per_s=400.0, analytics_fraction=0.3, ops_per_session=3
        )

        def run(db):
            return db.run_traffic(sessions, buffer_pages=48)

        ahead = _twin_run(twin_objects, organization, "overlap", n_disks, run)
        _serve_live(monkeypatch)
        reads = sum(len(s.operations) for s in sessions)
        assert _twin_run(twin_objects, organization, "overlap", n_disks, run, reads) == ahead

    def test_closed_traffic_under_priority_admission(self, twin_objects, monkeypatch):
        """The ``traffic_closed_priority`` golden's configuration: closed
        arrivals, three operations a session and the traffic scenario's
        stingy priority bucket, whose re-queues reorder the service."""
        sessions = generate(twin_objects, n=30, arrival="closed", ops_per_session=3)

        def run(db):
            policy = PriorityAdmission(classifier=class_of_session, rate=0.05, burst_ms=20.0)
            return db.run_traffic(sessions, buffer_pages=64, admission=policy)

        ahead = _twin_run(twin_objects, "cluster", "overlap", 4, run)
        _serve_live(monkeypatch)
        reads = sum(len(s.operations) for s in sessions)
        assert _twin_run(twin_objects, "cluster", "overlap", 4, run, reads) == ahead

    def test_answered_in_several_batches(self, twin_objects, monkeypatch):
        """A run longer than one answer batch is answered batch by batch
        (here of 7 queries), each kind apart."""
        from repro.workload import engine

        sessions = generate(twin_objects, n=40, rate_per_s=400.0, ops_per_session=2)
        kinds = [op[0] for s in sessions for op in s.operations]
        batches = sum(-(-kinds.count(kind) // 7) for kind in ("window", "point"))
        assert batches > 2

        def run(db):
            return db.run_traffic(sessions, buffer_pages=48)

        monkeypatch.setattr(engine, "_ANSWER_BATCH", 7)
        ahead = _twin_run(twin_objects, "cluster", "overlap", 4, run, batches)
        _serve_live(monkeypatch)
        assert _twin_run(twin_objects, "cluster", "overlap", 4, run, len(kinds)) == ahead

    def test_answered_in_parts_and_walked_again(self, twin_objects, monkeypatch):
        """With blocks of 7 refined 3 candidates at a time and room for
        answers of 8 leaf groups, serving answers each block in one call
        (one traversal, several refinements) and keeps answers it has
        not served yet as counts (a session's later queries wait behind
        busy arms), whose visits and groups it walks the tree for again:
        every query is still refined once, and the run prints, prices
        and times as if served live."""
        from repro.rtree.rstar import RStarTree
        from repro.storage import base
        from repro.storage.base import SpatialOrganization
        from repro.workload import engine

        sessions = generate(twin_objects, n=40, rate_per_s=400.0, ops_per_session=3)
        queries = sum(len(s.operations) for s in sessions)
        answered, reached, refined = [], [], []
        answer, reach, refine = SpatialOrganization._answer, RStarTree._reach, SpatialOrganization._refine

        def counted(org, rects, points):
            answered.append(len(rects))
            return answer(org, rects, points)

        def walked(tree, rects):
            reached.append(len(rects))
            return reach(tree, rects)

        def sliced(org, candidates, points):
            refined.append(len(candidates[0]))
            return refine(org, candidates, points)

        def run(db):
            return db.run_traffic(sessions, buffer_pages=48)

        monkeypatch.setattr(engine, "_ANSWER_BATCH", 7)
        monkeypatch.setattr(engine, "_GROUPS_HELD", 8)
        monkeypatch.setattr(base, "_REFINE_ROWS", 3)
        monkeypatch.setattr(SpatialOrganization, "_answer", counted)
        monkeypatch.setattr(RStarTree, "_reach", walked)
        monkeypatch.setattr(SpatialOrganization, "_refine", sliced)
        ahead = _twin_run(twin_objects, "cluster", "overlap", 4, run, None)
        kinds = [op[0] for s in sessions for op in s.operations]
        blocks = sum(-(-kinds.count(kind) // 7) for kind in ("window", "point"))
        assert sum(answered) == queries and len(answered) == blocks
        assert sum(refined) == queries and len(refined) > blocks, "no block was refined in slices"
        assert len(reached) > len(answered), "no answer was kept as a count"
        _serve_live(monkeypatch)
        assert _twin_run(twin_objects, "cluster", "overlap", 4, run, queries) == ahead

    @pytest.mark.parametrize("live", [False, True])
    def test_a_malformed_op_raises_when_served(self, twin_objects, monkeypatch, live):
        """Round robin serves c0, c1, c2, c0, c1: the list in c1's second
        place is the fifth operation, so four are priced before it
        raises the error serving it always raised."""
        if live:
            _serve_live(monkeypatch)
        sessions = _read_sessions(twin_objects)
        sessions["c1"][1] = list(sessions["c1"][1])
        executed = []
        execute = WorkloadEngine._execute

        def counted(engine, op):
            executed.append(op)
            return execute(engine, op)

        monkeypatch.setattr(WorkloadEngine, "_execute", counted)
        db = traffic_db()
        db.build(twin_objects)
        before = db.disk.stats()
        with pytest.raises(ConfigurationError, match="malformed workload operation"):
            db.run_sessions(sessions, buffer_pages=48)
        assert len(executed) == 5
        assert executed[-1] == sessions["c1"][1]
        assert (db.disk.stats() - before).requests > 0

    def test_a_run_with_one_insert_is_served_live(self, twin_objects, monkeypatch):
        built = twin_objects[:-1]
        sessions = _read_sessions(built)
        sessions["c2"].insert(2, ("insert", twin_objects[-1]))
        reads = sum(len(ops) for ops in sessions.values()) - 1

        def run(db):
            return db.run_sessions(
                {name: list(ops) for name, ops in sessions.items()}, buffer_pages=48
            )

        # One refinement per read: served live, with or without the patch.
        ahead = _twin_run(built, "cluster", "overlap", 4, run, reads)
        _serve_live(monkeypatch)
        assert _twin_run(built, "cluster", "overlap", 4, run, reads) == ahead


class TestAnsweredInBoundedMemory:
    """A read-only run answers its queries a block at a time as serving
    reaches them, refines each block in slices of bounded size, and
    drops each answer once it is served, keeping the answers that wait
    whole only up to a bound: what it holds is bounded by the stage's
    sizes, not by the run's length.  Answering the whole run first held
    every operation's visited nodes and leaf groups until the run ended.

    The stage holds several MiB at its shipped sizes, which leave
    ``traffic_open`` inside one block per kind: a 10^4-session run on
    A-1 at scale 0.05 peaks at ~5.5x the live path's (ROADMAP S(3)).
    This test runs 500 sessions with every size scaled down 16-fold —
    blocks of 16 queries, holdings of 128 leaf groups, 4,096 candidates
    a refinement — so the run spans as many blocks and slices as one 16
    times as long; it shows the bounds hold, not the shipped sizes'
    ratio."""

    def test_peak_stays_within_four_times_the_live_peak(self, twin_objects, monkeypatch):
        import tracemalloc

        from repro.storage import base
        from repro.workload import engine

        sessions = generate(twin_objects, n=500, rate_per_s=400.0, ops_per_session=3)
        monkeypatch.setattr(engine, "_ANSWER_BATCH", engine._ANSWER_BATCH // 16)
        monkeypatch.setattr(engine, "_GROUPS_HELD", engine._GROUPS_HELD // 16)
        monkeypatch.setattr(base, "_REFINE_ROWS", base._REFINE_ROWS // 16)

        def peak() -> int:
            db = traffic_db()
            db.build(twin_objects)
            tracemalloc.start()
            try:
                db.run_traffic(sessions, buffer_pages=48)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        ahead = peak()
        _serve_live(monkeypatch)
        live = peak()
        assert ahead <= 4 * live, (ahead, live)


# ----------------------------------------------------------------------
# what a served operation costs, as counts (ROADMAP items A.2 and B)
# ----------------------------------------------------------------------
def served_op_counts() -> dict[str, float]:
    """Run a fixed 40-session traffic on a 4-disk ``overlap`` database
    at the benchmark's smoke size and count the calls the served path
    used to make once per plan, per page and per entry, and what the
    run, which answers its read-only operations ahead of serving them,
    costs the answer stage: its block traversals (``RStarTree._reach``),
    the node masks they take (``query_matrix`` reads) and the nodes they
    reach, its gathers (``Node.rows`` reads, one per data page a
    traversal reached with hits) and its refinement calls (``_refine``).
    What pricing a request costs: ``store_calls`` (batches the pool hands
    the store), ``evict_hook_calls`` (the pool's eviction hook, which a
    clean LRU victim no longer calls) and ``device_total_reads`` (disk
    totals the overlap scheduler differences: the devices a request
    priced, not every device).  Machine-independent; CI's ``Size
    report`` prints the ``*_per_op`` values, ``traversals`` and
    ``refine_calls``."""
    from contextlib import ExitStack
    from unittest.mock import patch

    from repro.buffer.pool import BufferPool
    from repro.data.series import scaled, spec_for
    from repro.data.tiger import generate_map
    from repro.disk.model import DiskModel
    from repro.geometry.rect import Rect
    from repro.iosched.scheduler import SyncScheduler
    from repro.pagestore.placement import PlacementPolicy
    from repro.pagestore.store import ShardedPageStore
    from repro.rtree.node import Node
    from repro.rtree.rstar import RStarTree
    from repro.storage.base import SpatialOrganization
    from repro.workload.engine import WorkloadEngine

    spec = scaled(spec_for("A-1"), 0.005)
    objects = generate_map(spec, seed=1994)
    db = SpatialDatabase(
        avg_object_size=spec.avg_object_size,
        n_disks=4,
        placement="spatial",
        scheduler="overlap",
    )
    db.build(objects)
    sessions = make_traffic(objects, 40, rate_per_s=10.0, seed=7)
    ops = sum(len(s.operations) for s in sessions)
    calls = dict.fromkeys(
        ("submits", "gets", "store_calls", "evict_hook_calls", "device_total_reads",
         "disk_of_in_transfer", "contains_in_refine", "traversals", "node_masks",
         "nodes_reached", "leaf_gathers", "leaves_reached", "refine_calls"), 0
    )
    submits_by_op: list[int] = []
    depth = {"transfer": 0, "refine": 0, "traversal": 0, "answer": 0}

    def spy(stack, owner, name, note):
        """Patch ``owner.name`` to run ``note(original, *args)``."""
        raw = owner.__dict__[name]
        original = raw.fget if isinstance(raw, property) else raw

        def wrapper(*args, **kwargs):
            return note(original, *args, **kwargs)

        patched = property(wrapper) if isinstance(raw, property) else wrapper
        stack.enter_context(patch.object(owner, name, patched))

    def counted(key, inside=None):
        def note(original, *args, **kwargs):
            if inside is None or depth[inside]:
                calls[key] += 1
            return original(*args, **kwargs)

        return note

    def scoped(scope, key=None):
        def note(original, *args, **kwargs):
            if key is not None:
                calls[key] += 1
            depth[scope] += 1
            try:
                return original(*args, **kwargs)
            finally:
                depth[scope] -= 1

        return note

    def traversal(original, tree, rects):
        depth["traversal"] += 1
        try:
            reach = original(tree, rects)
        finally:
            depth["traversal"] -= 1
        calls["traversals"] += 1
        calls["nodes_reached"] += len({id(node) for nodes in reach.visited for node in nodes})
        calls["leaves_reached"] += len(reach.leaves)
        return reach

    def per_op(original, *args):
        before = calls["submits"]
        try:
            return original(*args)
        finally:
            submits_by_op.append(calls["submits"] - before)

    def per_request(original, scheduler, request, *rest):
        calls["gets"] += request.op == "get"
        return original(scheduler, request, *rest)

    with ExitStack() as stack:
        spy(stack, BufferPool, "submit", counted("submits"))
        spy(stack, SyncScheduler, "_issue", per_request)
        spy(stack, WorkloadEngine, "_execute", per_op)
        spy(stack, RStarTree, "_reach", traversal)
        spy(stack, Node, "query_matrix", counted("node_masks", "traversal"))
        spy(stack, SpatialOrganization, "_answer", scoped("answer"))
        spy(stack, Node, "rows", counted("leaf_gathers", "answer"))
        spy(stack, BufferPool, "_write_back_victim", counted("evict_hook_calls"))
        spy(stack, DiskModel, "total_ms", counted("device_total_reads"))
        spy(stack, ShardedPageStore, "_transfer", scoped("transfer", "store_calls"))
        spy(stack, SpatialOrganization, "_refine", scoped("refine", "refine_calls"))
        spy(stack, PlacementPolicy, "disk_of", counted("disk_of_in_transfer", "transfer"))
        spy(stack, Rect, "contains", counted("contains_in_refine", "refine"))
        report = db.run_traffic(sessions, buffer_pages=16)
    assert len(submits_by_op) == ops == sum(c.operations for c in report.classes)
    evictions = db.metrics.snapshot()[f"pool.evictions{{pool={db.name}.workload}}"]
    assert evictions > ops, "a pool under pressure"
    return {
        "ops": ops,
        "max_submits_in_one_op": max(submits_by_op),
        **calls,
        **{f"{key}_per_op": n / ops for key, n in calls.items()},
    }


def insert_path_counts() -> dict[str, float]:
    """Build the benchmark's smoke-size ``update_mixed`` twin (cluster
    organization, one-by-one, then 60 deletes and 30 inserts) and count
    what an inserted object costs ChooseSubtree and the overflow check,
    and how often a whole node block is built (``block_of``) instead of
    kept row by row.  ``vertex_tuples`` counts the ``Polyline``s of the
    two generated maps that build their vertex tuples while the maps
    are generated, built and streamed; ``entry_index_calls`` the
    parent's linear scans for a child (``Node.entry_index``) the split,
    reinsert and condensation paths still make; ``access_plans`` the
    ``AccessPlan``s built while objects are inserted (the build and the
    30 inserts, not the deletes): node reads and writes, unit writes.
    Machine-independent; CI's ``Size report`` prints the ``*_per_insert``
    values and ``covered_share`` — the share of ChooseSubtree calls
    above the data pages that priced no overlap."""
    import sys
    from unittest.mock import patch

    import numpy as np

    from repro.data.series import scaled, spec_for
    from repro.data.tiger import generate_map
    from repro.geometry.polyline import Polyline
    from repro.iosched.request import AccessPlan
    from repro.rtree import chooser, rstar
    from repro.rtree import node as nodes
    from repro.rtree.node import Node

    calls = dict.fromkeys(
        (
            "overlap_criterion",
            "overlap_sums",
            "loads",
            "load_sums",
            "clip_in_rtree",
            "block_rebuilds",
            "vertex_tuples",
            "entry_index_calls",
            "access_plans",
        ),
        0,
    )
    inserting = True

    def counted(key, original, when=lambda *args: True):
        def wrapper(*args, **kwargs):
            calls[key] += bool(when(*args))
            return original(*args, **kwargs)

        return wrapper

    def from_rtree(*args):
        return "/repro/rtree/" in sys._getframe(2).f_code.co_filename

    def unsummed(node):
        return node._load is None

    def untupled(polyline):
        return polyline._vertices is None

    def while_inserting(*args):
        return inserting

    with (
        patch.object(rstar, "least_overlap_enlargement",
                     counted("overlap_criterion", rstar.least_overlap_enlargement)),
        patch.object(chooser, "_overlap_sums",
                     counted("overlap_sums", chooser._overlap_sums)),
        patch.object(Node, "load",
                     counted("load_sums", counted("loads", Node.load), unsummed)),
        patch.object(np, "clip", counted("clip_in_rtree", np.clip, from_rtree)),
        patch.object(nodes, "block_of", counted("block_rebuilds", nodes.block_of)),
        patch.object(Node, "entry_index", counted("entry_index_calls", Node.entry_index)),
        patch.object(AccessPlan, "__init__",
                     counted("access_plans", AccessPlan.__init__, while_inserting)),
        patch.object(Polyline, "__init__", counted("vertex_tuples", Polyline.__init__)),
        patch.object(Polyline, "vertices", property(
            counted("vertex_tuples", Polyline.vertices.fget, untupled)
        )),
    ):
        spec = scaled(spec_for("A-1"), 0.005)
        objects = generate_map(spec, seed=1994)
        spare = generate_map(
            scaled(spec_for("A-2"), 0.005), seed=1994, id_offset=10**6
        )[:30]
        db = SpatialDatabase(avg_object_size=spec.avg_object_size)
        db.build(objects)
        inserting = False
        for obj in objects[:60]:
            db.delete(obj.oid)
        inserting = True
        for obj in spare:
            db.insert(obj)
    inserts = len(objects) + len(spare)
    assert db.storage.tree.size == inserts - 60
    return {
        "inserts": inserts,
        **calls,
        **{f"{key}_per_insert": n / inserts for key, n in calls.items()},
        "covered_share": 1 - calls["overlap_sums"] / calls["overlap_criterion"],
    }


class TestServedOpCounts:
    def test_one_plan_per_op_no_per_page_or_per_entry_calls(self):
        counts = served_op_counts()
        ops = counts["ops"]
        # Per plan: every operation that touches a page is one submit.
        assert counts["max_submits_in_one_op"] == 1
        assert 0.9 * ops <= counts["submits"] <= ops
        # Per request: a node ``get`` is a one-page read, so a request
        # reaches the store at most once, with the batch of its missing
        # runs; a clean LRU victim calls no eviction hook (this run is
        # read-only).  The scheduler reads the totals of all four disks
        # once per plan and twice for the flush, and per request only
        # those of the disks the request priced: mostly one, as a
        # cluster unit is pinned to one arm.
        assert counts["gets"] > ops
        assert 0 < counts["store_calls"] < counts["gets"] + 2 * ops
        assert counts["evict_hook_calls"] == 0
        per_request = counts["device_total_reads"] - 4 * (counts["submits"] + 2)
        assert counts["store_calls"] <= per_request < 1.25 * counts["store_calls"]
        # Per run: the store routes whole runs; per entry: the
        # containment shortcut is one mask per query.
        assert counts["disk_of_in_transfer"] == 0
        assert counts["contains_in_refine"] == 0
        # Per run: a read-only run is filtered by one block traversal
        # and refined once per kind (windows, points; 44 operations are
        # one block of each) before it is priced.  A traversal masks each
        # node it reaches once for all the block's queries, and gathers
        # each data page it reached with hits once.  One walk per
        # operation masked 115 nodes (2.614 per operation) and gathered
        # rows 64 times (1.455), one per query and data page.
        assert counts["traversals"] == counts["refine_calls"] == 2
        assert counts["node_masks"] <= counts["nodes_reached"]
        assert counts["leaf_gathers"] == counts["leaves_reached"]


class TestInsertPathCounts:
    def test_chooser_and_overflow_check_cost_what_the_decision_needs(self):
        """ROADMAP A.2's ``update_mixed`` row.  Exact values: the maps,
        the tree and therefore every count are deterministic."""
        counts = insert_path_counts()
        assert counts["inserts"] == 687
        # ChooseSubtree above the data pages: one call per insert once
        # the root has split, of which 32 price overlap — one stacked
        # broadcast each (two per call before the covering shortcut).
        assert counts["overlap_criterion"] == 631
        assert counts["overlap_sums"] == 32
        assert round(counts["covered_share"], 4) == 0.9493
        assert counts["clip_in_rtree"] == 0
        # The overflow check asks for the byte load once per insert; it
        # is re-summed only after a split or a reinsert (a removal
        # lowers it by the entry's load: 30 sums before it did).
        assert counts["loads"] == 730
        assert counts["load_sums"] == 21
        # Every block is kept, never rebuilt (22 rect matrices were
        # rebuilt from ``Entry`` objects when a mutation dropped them),
        # and every node MBR is read off a block (79 ``Rect.union_of``
        # calls before; the function is gone).
        assert counts["block_rebuilds"] == 0
        # Maps are born as vertex matrices and stay so through the
        # build and the stream (1,301 polylines built their tuples
        # before: every generated one).
        assert counts["vertex_tuples"] == 0
        # An insert's upward walk reuses the descent's positions; the
        # parent's scan for a child is left to the split, the forced
        # reinsert and condensation (700 scans before: one or more per
        # insert).
        assert counts["entry_index_calls"] == 69
        # ROADMAP A's allocation pin: every priced node read and write of
        # an insert is one plan of its own (one get or one write), and a
        # unit write is another; ROADMAP O(2) would merge them.
        assert counts["access_plans"] == 1531
