"""Tests for the batched workload engine and SpatialDatabase.run_workload."""

from __future__ import annotations

import pytest

from repro.buffer.pool import BufferPool
from repro.database import SpatialDatabase
from repro.errors import ConfigurationError
from repro.geometry.feature import SpatialObject
from repro.geometry.polyline import Polyline
from repro.obs import trace as obs_trace
from repro.workload.engine import WorkloadEngine
from repro.workload.streams import mixed_stream
from repro.workload.traffic import TrafficSession

from tests.conftest import make_objects


def build_db(objects, name="r", **kwargs) -> SpatialDatabase:
    db = SpatialDatabase(
        organization="cluster", smax_bytes=16 * 4096, name=name, **kwargs
    )
    db.build(objects)
    return db


@pytest.fixture(scope="module")
def workload_setup():
    objects = make_objects(260, seed=23)
    resident, incoming = objects[:240], objects[240:]
    return resident, incoming


def make_stream(resident, incoming, join_with=None):
    return mixed_stream(
        resident,
        n_windows=15,
        window_area=1e-3,
        n_points=15,
        inserts=incoming,
        deletes=[o.oid for o in resident[:5]],
        join_with=join_with,
        seed=7,
        data_space=10_000.0,
    )


class TestMixedStream:
    def test_contains_all_kinds_interleaved(self, workload_setup):
        resident, incoming = workload_setup
        stream = make_stream(resident, incoming)
        kinds = [op[0] for op in stream]
        assert set(kinds) == {"window", "point", "insert", "delete"}
        # Round-robin: the first four operations cover four kinds.
        assert set(kinds[:4]) == {"window", "point", "insert", "delete"}
        assert kinds.count("insert") == len(incoming)
        assert kinds.count("delete") == 5

    def test_join_appended(self, workload_setup):
        resident, _ = workload_setup
        stream = mixed_stream(
            resident, n_windows=2, n_points=0, join_with="sentinel"
        )
        assert stream[-1][0] == "join"
        assert stream[-1][1] == "sentinel"

    def test_negative_counts_rejected(self, workload_setup):
        resident, _ = workload_setup
        with pytest.raises(ConfigurationError):
            mixed_stream(resident, n_windows=-1)


class TestRunWorkload:
    def test_report_phases_and_accounting(self, workload_setup):
        resident, incoming = workload_setup
        db = build_db(resident)
        report = db.run_workload(
            make_stream(resident, incoming), buffer_pages=256
        )
        kinds = {p.name for p in report.phases}
        assert {"window", "point", "insert", "delete"} <= kinds
        executed = sum(
            p.operations for p in report.phases if p.name != "flush"
        )
        assert executed == 15 + 15 + len(incoming) + 5
        assert 0.0 <= report.hit_rate <= 1.0
        window = report.phase("window")
        assert window is not None and window.operations == 15
        # Per-phase I/O adds up to the report total.
        total = report.total_io
        assert total.total_ms == pytest.approx(
            sum(p.io.total_ms for p in report.phases)
        )
        assert total.requests >= 1

    def test_caching_beats_cold_queries(self, workload_setup):
        """Repeating the same query stream under a warm pool must cost
        less than the pass-through measurement mode."""
        resident, _ = workload_setup
        db = build_db(resident)
        stream = [
            op
            for op in make_stream(resident, [])
            if op[0] in ("window", "point")
        ]
        before = db.io_stats()
        for op in stream:
            if op[0] == "window":
                db.storage.window_query(op[1])
            else:
                db.point_query(op[1], op[2])
        cold_ms = (db.io_stats() - before).total_ms

        report = db.run_workload(stream * 2, buffer_pages=4096)
        assert report.total_io.total_ms < 2 * cold_ms
        assert report.hit_rate > 0.0

    def test_policies_all_run(self, workload_setup):
        resident, incoming = workload_setup
        for policy in ("lru", "fifo", "clock", "lru-k"):
            db = build_db(resident)
            report = db.run_workload(
                make_stream(resident, incoming),
                buffer_pages=128,
                policy=policy,
            )
            assert report.policy == policy
            assert 0.0 <= report.hit_rate <= 1.0

    def test_join_operation(self, workload_setup):
        resident, _ = workload_setup
        db = build_db(resident)
        objs_s = make_objects(120, seed=29)
        for o in objs_s:
            o.oid += 1_000_000
        other = db.attach("s", organization="cluster", smax_bytes=16 * 4096)
        other.build(objs_s)
        report = db.run_workload(
            [("window", 0.0, 0.0, 500.0, 500.0), ("join", other)],
            buffer_pages=256,
        )
        join_phase = report.phase("join")
        assert join_phase is not None
        assert join_phase.results > 0  # candidate pairs found

    @pytest.mark.parametrize("op", [("join", "x"), ("join",)])
    def test_malformed_join_is_a_configuration_error(self, workload_setup, op):
        db = build_db(workload_setup[0])
        operand = repr(op[1]) if len(op) > 1 else "None"
        with pytest.raises(ConfigurationError, match=f"cannot join with {operand}"):
            db.run_workload([op])

    def test_pool_restored_after_run(self, workload_setup):
        resident, _ = workload_setup
        db = build_db(resident)
        original = db.storage.pool
        db.run_workload([("point", 1.0, 1.0)], buffer_pages=64)
        assert db.storage.pool is original
        assert db.storage._query_pager.pool is original

    def test_query_results_unchanged_by_pooling(self, workload_setup):
        """Caching changes pricing, never answers."""
        resident, _ = workload_setup
        db = build_db(resident)
        window = (200.0, 200.0, 2_000.0, 2_000.0)
        cold = {o.oid for o in db.window_query(*window).objects}
        report = db.run_workload(
            [("window", *window)] * 3, buffer_pages=1024
        )
        warm = {o.oid for o in db.window_query(*window).objects}
        assert cold == warm
        assert report.phase("window").results == 3 * len(cold)

    def test_malformed_ops_rejected(self, workload_setup):
        resident, _ = workload_setup
        db = build_db(resident)
        with pytest.raises(ConfigurationError):
            db.run_workload([("teleport", 1)])
        with pytest.raises(ConfigurationError):
            db.run_workload(["window"])
        with pytest.raises(ConfigurationError):
            db.run_workload([("insert", "not-an-object")])

    def test_dirty_pages_flushed(self, workload_setup):
        """Inserts under a caching pool defer their writes; the final
        flush phase writes them back."""
        resident, incoming = workload_setup
        db = build_db(resident)
        report = db.run_workload(
            [("insert", obj) for obj in incoming], buffer_pages=512
        )
        flush = report.phase("flush")
        assert flush is not None
        assert flush.io.pages_transferred > 0


class TestFreedExtentFrames:
    def test_primary_overflow_delete_discards_frames(self):
        """Freed overflow pages must leave the shared pool: stale dirty
        frames would otherwise be flushed as phantom writes."""
        from repro.geometry.polyline import Polyline

        db = SpatialDatabase(organization="primary", name="p")
        big = SpatialObject(
            1, Polyline([(0.0, 0.0), (50.0, 50.0)]), size_bytes=30_000
        )
        db.insert(big)
        db.finalize()
        org = db.storage
        pool = BufferPool(db.disk, capacity=64)
        with org.use_pool(pool):
            org.insert(
                SpatialObject(
                    2, Polyline([(0.0, 0.0), (60.0, 60.0)]), size_bytes=30_000
                )
            )
            extent = org.extent_of(2)
            assert all(p in pool for p in extent.pages())  # dirty frames
            org.delete(2)
            assert all(p not in pool for p in extent.pages())


class TestEngineDirect:
    def test_engine_over_shared_pool(self, workload_setup):
        resident, _ = workload_setup
        db = build_db(resident)
        pool = BufferPool(db.disk, capacity=128, policy="clock")
        engine = WorkloadEngine(db.storage, pool)
        report = engine.run([("point", 5.0, 5.0), ("point", 5.0, 5.0)])
        assert report.policy == "clock"
        assert report.buffer_pages == 128
        point = report.phase("point")
        assert point is not None and point.operations == 2


def fresh_served_db(scheduler, n_disks):
    """A freshly built database plus a mixed stream over it (windows,
    points, inserts, deletes) — rebuilt per run so runs share nothing."""
    objects = make_objects(260, seed=23)
    resident, incoming = objects[:240], objects[240:]
    db = build_db(resident, scheduler=scheduler, n_disks=n_disks)
    return db, make_stream(resident, incoming)


def phase_rows(report):
    return [
        (
            p.name,
            p.operations,
            p.results,
            p.hits,
            p.misses,
            p.io.total_ms,
            p.response_ms,
            p.latencies,
        )
        for p in report.phases
    ]


class TestSharedServeStep:
    """run / run_sessions / run_traffic are one serve step under three
    serving orders: a single client must not be able to tell them apart."""

    @pytest.mark.parametrize(
        "scheduler,n_disks", [("sync", 1), ("overlap", 1), ("overlap", 4)]
    )
    def test_single_client_identical_through_every_entry_point(
        self, scheduler, n_disks
    ):
        db, stream = fresh_served_db(scheduler, n_disks)
        reports = {"run": db.run_workload(stream, buffer_pages=48)}
        db, stream = fresh_served_db(scheduler, n_disks)
        reports["sessions"] = db.run_sessions({"main": stream}, buffer_pages=48)
        if scheduler == "overlap":
            db, stream = fresh_served_db(scheduler, n_disks)
            session = TrafficSession(
                name="main", klass="interactive", arrival_ms=0.0, operations=stream
            )
            reports["traffic"] = db.run_traffic([session], buffer_pages=48)
        expected = phase_rows(reports["run"])
        assert {kind for kind, *_ in expected} >= {
            "window", "point", "insert", "delete", "flush",
        }
        for name, report in reports.items():
            assert phase_rows(report) == expected, name
            assert report.makespan_ms == reports["run"].makespan_ms, name
        client = reports["sessions"].client("main")
        assert sorted(client.latencies) == sorted(
            latency
            for kind, *row in expected
            if kind != "flush"
            for latency in row[-1]
        )

    def test_sessions_served_in_step_then_client_order(self):
        db, _ = fresh_served_db("overlap", 4)
        window = ("window", 0.0, 0.0, 500.0, 500.0)
        point = ("point", 5.0, 5.0)
        with obs_trace.tracing() as tracer:
            db.run_sessions(
                [("a", [window, point, window]), ("b", [point]), ("c", [point, window])],
                buffer_pages=48,
            )
        served = [(s.track, s.name) for s in tracer.spans if s.cat == "operation"]
        assert served == [
            ("a", "window"), ("b", "point"), ("c", "point"),
            ("a", "point"), ("c", "window"),
            ("a", "window"),
        ]


class TestRaisingOperation:
    """An operation that raises mid-stream must leave nothing behind:
    no open span on the tracer, no per-run admission or suspended
    metrics on the scheduler, no workload pool on the organization."""

    @pytest.mark.parametrize("scheduler", ["sync", "overlap"])
    @pytest.mark.parametrize("entry", ["run", "sessions"])
    def test_scope_unwinds(self, entry, scheduler):
        db, stream = fresh_served_db(scheduler, 1)
        stream = stream[:6] + [("bogus",)] + stream[6:]
        reads = [op for op in stream if op[0] in ("window", "point")][:3]
        passthrough = db.storage.pool
        metrics = getattr(db.scheduler, "metrics", None)
        with obs_trace.tracing() as tracer:
            with pytest.raises(ConfigurationError, match="bogus"):
                if entry == "run":
                    db.run_workload(stream, buffer_pages=48)
                else:
                    db.run_sessions(
                        {"main": stream, "other": reads},
                        buffer_pages=48,
                        admission="priority" if scheduler == "overlap" else None,
                    )
            assert tracer.open_spans() == []
            # A span recorded afterwards is a root, not a child of the
            # dead operation.
            assert tracer.begin("after").parent is None
        assert db.storage.pool is passthrough
        assert getattr(db.scheduler, "admission", None) is None
        assert getattr(db.scheduler, "metrics", None) is metrics


class TestWorkloadCLI:
    def test_cli_smoke(self, capsys):
        from repro.eval.__main__ import main

        rc = main([
            "workload",
            "--scale", "0.002",
            "--queries", "5",
            "--buffer-pages", "64",
            "--policies", "lru,fifo",
            "--no-join",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "policy comparison" in out
        assert "lru" in out and "fifo" in out
        assert "hit rate" in out

    def test_cli_rejects_unknown_policy(self):
        from repro.eval.__main__ import main

        with pytest.raises(SystemExit):
            main(["workload", "--policies", "bogus"])


class TestHitRateGuards:
    """Satellite: every hit-rate surface returns 0.0 on an empty
    denominator via the shared repro.buffer.policy.hit_ratio rule."""

    def test_hit_ratio_helper(self):
        from repro.buffer.policy import hit_ratio

        assert hit_ratio(0, 0) == 0.0
        assert hit_ratio(3, 1) == 0.75

    def test_empty_pool_hit_rate(self):
        from repro.disk.model import DiskModel

        assert BufferPool(DiskModel()).hit_rate == 0.0
        assert BufferPool(DiskModel(), capacity=8).hit_rate == 0.0

    def test_empty_phase_and_report_hit_rate(self):
        from repro.workload.engine import Row, RunReport

        assert Row("window").hit_rate == 0.0
        report = RunReport("workload", policy="lru", buffer_pages=8)
        assert report.hit_rate == 0.0
        report.phases.append(Row("window"))
        assert report.hit_rate == 0.0

    def test_empty_sessions_report(self):
        from repro.workload.engine import RunReport

        report = RunReport("sessions", policy="lru", buffer_pages=8)
        assert report.hit_rate == 0.0
        assert report.makespan_ms == 0.0

    def test_empty_workload_run_reports_zero(self, workload_setup):
        resident, _ = workload_setup
        db = build_db(resident, name="hr")
        report = db.run_workload([], buffer_pages=16)
        assert report.hit_rate == 0.0
        assert report.operations == 0
