"""Tests for the unified observability layer (repro.obs): the metrics
registry, the virtual-clock span tracer and its invariants on real
runs, Chrome trace-event export and prefetch accuracy accounting."""

from __future__ import annotations

import json

import pytest

from repro.buffer.pool import BufferPool
from repro.database import SpatialDatabase
from repro.disk.model import DiskModel
from repro.errors import ConfigurationError
from repro.obs import (
    MetricsRegistry,
    Tracer,
    chrome_trace,
    metric_key,
    register_store_devices,
    trace_device_totals,
    tracing,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.export import CLIENT_PID, DEVICE_PID, REQUIRED_EVENT_KEYS
from repro.workload.streams import mixed_stream

from tests.conftest import make_objects
from tests.interval_list_clock import busy

SMAX = 16 * 4096


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestMetricKey:
    def test_plain_name(self):
        assert metric_key("pool.hits", {}) == "pool.hits"

    def test_labels_sorted(self):
        assert metric_key("a", {"b": "2", "a": "1"}) == "a{a=1,b=2}"


class TestMetricsRegistry:
    def test_counter_get_or_create(self):
        reg = MetricsRegistry()
        c = reg.counter("tier.promotions")
        c.inc()
        c.inc(3)
        assert reg.counter("tier.promotions") is c
        assert reg.snapshot()["tier.promotions"] == 4

    def test_counter_labels_distinct(self):
        reg = MetricsRegistry()
        reg.counter("sched.queueing_ms", client="alpha").inc(5)
        reg.counter("sched.queueing_ms", client="beta").inc(7)
        assert reg.snapshot()["sched.queueing_ms{client=alpha}"] == 5
        assert reg.snapshot()["sched.queueing_ms{client=beta}"] == 7

    def test_gauge_is_live_view(self):
        reg = MetricsRegistry()
        state = {"hits": 0}
        reg.gauge("pool.hits", lambda: state["hits"])
        state["hits"] = 42
        assert reg.snapshot()["pool.hits"] == 42

    def test_gauge_reregistration_rebinds(self):
        reg = MetricsRegistry()
        reg.gauge("pool.hits", lambda: 1)
        reg.gauge("pool.hits", lambda: 2)
        assert reg.snapshot()["pool.hits"] == 2
        assert len(reg) == 1

    def test_histogram_summaries(self):
        reg = MetricsRegistry()
        h = reg.histogram("op.latency_ms", phase="window")
        for v in (1.0, 2.0, 3.0, 4.0, 5.0):
            h.observe(v)
        assert h.count == 5
        assert h.sum == 15.0
        assert h.percentile(0.50) == 3.0
        assert h.percentile(0.95) == 5.0
        snap = reg.snapshot()
        assert snap["op.latency_ms.count{phase=window}"] == 5.0
        assert snap["op.latency_ms.p50{phase=window}"] == 3.0
        assert snap["op.latency_ms.p95{phase=window}"] == 5.0

    def test_type_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigurationError):
            reg.histogram("x")
        with pytest.raises(ConfigurationError):
            reg.gauge("x", lambda: 0)

    def test_snapshot_is_sorted(self):
        reg = MetricsRegistry()
        reg.counter("z")
        reg.counter("a")
        assert list(reg.snapshot()) == sorted(reg.snapshot())

    def test_write(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("pool.misses").inc(3)
        out = tmp_path / "metrics.json"
        reg.write(str(out), extra={"run": {"scale": 0.01}})
        data = json.loads(out.read_text())
        assert data["metrics"]["pool.misses"] == 3
        assert data["run"]["scale"] == 0.01


# ----------------------------------------------------------------------
# tracer unit behavior (serial clock)
# ----------------------------------------------------------------------
class TestTracerUnits:
    def test_stack_parentage(self):
        t = Tracer()
        a = t.begin("a")
        b = t.begin("b")
        assert b.parent is a
        t.end(b)
        c = t.begin("c")
        assert c.parent is a
        t.end(c)
        t.end(a)
        assert a.parent is None
        assert not t.open_spans()

    def test_detached_root_is_parentless(self):
        t = Tracer()
        a = t.begin("a")
        detached = t.begin("prefetch", parent=None)
        assert detached.parent is None
        # Ending the detached span must not orphan later children of a.
        t.end(detached)
        child = t.begin("child")
        assert child.parent is a

    def test_out_of_order_end_tolerated(self):
        t = Tracer()
        a = t.begin("a")
        b = t.begin("b")
        t.end(a)
        t.end(b)
        assert not t.open_spans()

    def test_end_clamps_negative_durations(self):
        t = Tracer()
        a = t.begin("a", ts=10.0)
        t.end(a, ts=5.0)
        assert a.end_ms == 10.0
        assert a.duration_ms == 0.0

    def test_serial_device_spans_advance_clock(self):
        t = Tracer()
        disk = DiskModel()
        with tracing(t):
            cost = disk.read(0, 4)
            cost += disk.read(100, 2)
        spans = [span for span in t.spans if span.cat == "device"]
        assert len(spans) == 2
        assert t.now_ms == pytest.approx(cost)
        assert t.device_totals() == {"disk0": pytest.approx(cost)}
        # Back-to-back layout: second span starts where the first ends.
        assert spans[1].start_ms == spans[0].end_ms

    def test_span_contextmanager(self):
        t = Tracer()
        with t.span("op", cat="operation") as s:
            assert t.open_spans() == [s]
        assert s.end_ms is not None

    def test_single_disk_is_disk0(self):
        single = DiskModel()
        t = Tracer()
        register_store_devices(t, single)
        assert t.device_track(single) == "disk0"

    def test_module_sink_disabled_by_default(self):
        from repro.obs import trace as obs_trace

        assert obs_trace.ACTIVE is None
        disk = DiskModel()
        disk.read(0, 4)  # must not record anywhere or raise


# ----------------------------------------------------------------------
# device names: one source (the store's device_labels()), three readers
# ----------------------------------------------------------------------
class TestDeviceNaming:
    @pytest.mark.parametrize(
        "config, labels",
        [
            (dict(n_disks=4), ["0", "1", "2", "3"]),
            (dict(tiering="static", fast_pages=8), ["fast", "capacity"]),
            (
                dict(tiering="promote-on-hit", fast_pages=8, n_disks=2),
                ["fast-0", "fast-1", "capacity-0", "capacity-1"],
            ),
        ],
    )
    def test_tracks_gauges_and_write_counters_agree(self, config, labels):
        db = SpatialDatabase(smax_bytes=SMAX, **config)
        objects = make_objects(120, seed=31)
        db.build(objects[:-1])
        assert db.disk.device_labels() == labels
        tracks = [("disk" if label.isdigit() else "tier.") + label for label in labels]
        tracer = Tracer()
        register_store_devices(tracer, db.disk)
        assert [tracer.device_track(d) for d in db.disk.disks] == tracks
        with tracing(tracer):
            db.insert(objects[-1])
            db.window_query(0.0, 0.0, 10_000.0, 10_000.0)
        # No span fell onto an auto-named track.
        assert list(tracer.device_tracks) == tracks
        assert tracer.device_totals() and set(tracer.device_totals()) <= set(tracks)

        def disk_labels(name):
            return {
                m.labels["disk"] for m in db.metrics
                if m.name == name and "disk" in m.labels
            }

        assert disk_labels("store.device_ms") == set(labels)
        # Write counters appear per device written to (write-through
        # tiering never writes the fast tier), under the same labels.
        written = disk_labels("write.device_ms")
        assert written and written <= set(labels)

    def test_file_backed_database_traces_onto_disk0(self, tmp_path):
        """The tracer used to name the ``FilePageStore`` while pricing
        happened on its inner model: ``disk0`` stayed empty and every
        span landed on an auto-named ``disk1``."""
        db = SpatialDatabase(smax_bytes=SMAX)
        db.build(make_objects(120, seed=31))
        path = str(tmp_path / "spatial.db")
        db.save(path)
        live = SpatialDatabase.open(path, backing="file")
        try:
            tracer = Tracer()
            register_store_devices(tracer, live.disk)
            with tracing(tracer):
                result = live.window_query(0.0, 0.0, 10_000.0, 10_000.0)
        finally:
            live.close()
        assert result.io.total_ms > 0.0
        assert tracer.device_tracks == ("disk0",)
        assert tracer.device_totals() == {"disk0": result.io.total_ms}


# ----------------------------------------------------------------------
# invariants on a real overlapped two-client run
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_run():
    objects = make_objects(200, seed=31)
    db = SpatialDatabase(
        smax_bytes=SMAX,
        n_disks=4,
        placement="spatial",
        scheduler="overlap",
        prefetch="cluster",
    )
    db.build(objects)
    devices = list(db.disk.disks)
    before = [d.total_ms for d in devices]
    tracer = Tracer(label="test-run")
    register_store_devices(tracer, db.disk)
    streams = {
        "alpha": mixed_stream(objects, n_windows=6, n_points=3, seed=7),
        "beta": mixed_stream(objects, n_windows=6, n_points=3, seed=8),
    }
    with tracing(tracer):
        report = db.run_sessions(streams, buffer_pages=64)
    deltas = {
        tracer.device_track(d): d.total_ms - b for d, b in zip(devices, before)
    }
    return db, tracer, report, deltas


class TestRunInvariants:
    def test_no_open_spans(self, traced_run):
        _, tracer, _, _ = traced_run
        assert tracer.open_spans() == []

    def test_children_nest_within_parents(self, traced_run):
        _, tracer, _, _ = traced_run
        for span in tracer.spans:
            parent = span.parent
            if parent is None or parent.end_ms is None:
                continue
            assert span.start_ms >= parent.start_ms - 1e-9
            assert span.end_ms <= parent.end_ms + 1e-9

    def test_session_spans_are_roots_per_client(self, traced_run):
        _, tracer, _, _ = traced_run
        sessions = [s for s in tracer.spans if s.cat == "session"]
        assert {s.track for s in sessions} >= {"alpha", "beta"}
        assert all(s.parent is None for s in sessions)

    def test_device_spans_lie_on_clock_busy_intervals(self, traced_run):
        # Query-only overlap run: every placed service span must sit
        # inside one of the virtual clock's merged per-disk busy
        # intervals ("charge" records are analytic, not placed).
        db, tracer, _, _ = traced_run
        intervals = busy(db.scheduler.clock)
        checked = 0
        for span in tracer.spans:
            if span.cat != "device" or span.name == "charge":
                continue
            disk = int(span.track.removeprefix("disk"))
            assert any(
                start - 1e-9 <= span.start_ms and span.end_ms <= end + 1e-9
                for start, end in intervals[disk]
            ), span
            checked += 1
        assert checked > 0

    def test_device_span_totals_equal_diskstats(self, traced_run):
        _, tracer, _, deltas = traced_run
        totals = tracer.device_totals()
        assert deltas and sum(deltas.values()) > 0
        for track, measured in deltas.items():
            assert totals.get(track, 0.0) == pytest.approx(measured, abs=1e-6)

    def test_chrome_export_roundtrip(self, traced_run, tmp_path):
        _, tracer, _, deltas = traced_run
        out = tmp_path / "trace.json"
        write_chrome_trace(str(out), tracer)
        data = json.loads(out.read_text())
        counts = validate_chrome_trace(data)
        assert counts.get("X", 0) > 0
        assert counts.get("M", 0) >= 2
        for event in data["traceEvents"]:
            for key in REQUIRED_EVENT_KEYS:
                assert key in event
            assert event["pid"] in (CLIENT_PID, DEVICE_PID)
        exported = trace_device_totals(data)
        for track, measured in deltas.items():
            assert exported.get(track, 0.0) == pytest.approx(measured, abs=1e-6)

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([])
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": []})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"name": "x", "ph": "X"}]})

    def test_open_span_closed_in_export_only(self):
        t = Tracer()
        t.begin("never-ended", ts=1.0)
        data = chrome_trace(t)
        events = [e for e in data["traceEvents"] if e["ph"] == "X"]
        assert events and events[0]["dur"] >= 0
        assert len(t.open_spans()) == 1


class TestDisabledStateIdentical:
    def test_pricing_bit_identical_with_and_without_tracer(self):
        objects = make_objects(120, seed=41)

        def run(traced: bool):
            db = SpatialDatabase(
                smax_bytes=SMAX,
                n_disks=2,
                scheduler="overlap",
                prefetch="cluster",
            )
            db.build(objects)
            streams = {
                "alpha": mixed_stream(objects, n_windows=4, n_points=2, seed=3),
                "beta": mixed_stream(objects, n_windows=4, n_points=2, seed=4),
            }
            if traced:
                with tracing(Tracer()):
                    report = db.run_sessions(streams, buffer_pages=32)
            else:
                report = db.run_sessions(streams, buffer_pages=32)
            return report

        plain = run(False)
        traced = run(True)
        assert plain.total_io.total_ms == traced.total_io.total_ms
        assert plain.makespan_ms == traced.makespan_ms
        assert plain.hit_rate == traced.hit_rate
        assert [c.queueing_ms for c in plain.clients] == [
            c.queueing_ms for c in traced.clients
        ]


# ----------------------------------------------------------------------
# prefetch accuracy accounting
# ----------------------------------------------------------------------
class TestPrefetchAccuracy:
    def test_demand_hit_counts_useful(self):
        pool = BufferPool(DiskModel(), capacity=8)
        pool.admit(1)
        pool._prefetched.add(1)
        assert pool.access(1)
        assert pool.prefetch_stats()["useful"] == 1
        # A second hit on the same page is a plain hit, not double-useful.
        assert pool.access(1)
        assert pool.prefetch_stats()["useful"] == 1

    def test_eviction_counts_wasted(self):
        pool = BufferPool(DiskModel(), capacity=8)
        pool.admit(2)
        pool._prefetched.add(2)
        pool.discard(2)
        assert pool.prefetch_stats()["wasted"] == 1

    def test_workload_report_folds_prefetch_counters(self):
        objects = make_objects(200, seed=51)
        db = SpatialDatabase(
            smax_bytes=SMAX, n_disks=2, scheduler="overlap", prefetch="cluster"
        )
        db.build(objects)
        stream = mixed_stream(objects, n_windows=10, n_points=5, seed=9)
        report = db.run_workload(stream, buffer_pages=32)
        prefetch = report.prefetch
        assert prefetch["issued"] >= 0
        assert prefetch["useful"] + prefetch["wasted"] <= prefetch["pages"]
        if prefetch["pages"] or prefetch["issued"]:
            assert "prefetch:" in report.format()

    def test_report_format_omits_prefetch_line_when_unused(self):
        objects = make_objects(80, seed=52)
        db = SpatialDatabase(smax_bytes=SMAX)
        db.build(objects)
        stream = mixed_stream(objects, n_windows=3, n_points=2, seed=5)
        report = db.run_workload(stream, buffer_pages=32)
        assert report.prefetch["issued"] == 0
        assert "prefetch:" not in report.format()


# ----------------------------------------------------------------------
# CLI: the trace subcommand produces a valid, cross-checked artifact
# ----------------------------------------------------------------------
class TestTraceCLI:
    def test_trace_subcommand_end_to_end(self, tmp_path, capsys):
        from repro.eval.__main__ import main

        trace_out = tmp_path / "trace.json"
        metrics_out = tmp_path / "metrics.json"
        rc = main([
            "trace", "--scale", "0.01", "--queries", "4",
            "--trace-out", str(trace_out),
            "--metrics-out", str(metrics_out),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "span totals match DiskStats device time exactly." in out
        data = json.loads(trace_out.read_text())
        validate_chrome_trace(data)
        metrics = json.loads(metrics_out.read_text())
        assert any(k.startswith("pool.") for k in metrics["metrics"])
