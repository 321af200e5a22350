"""Tests for the persisted (JSONL) workload-trace format."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.geometry.feature import SpatialObject
from repro.geometry.polyline import Polyline
from repro.geometry.rect import Rect
from repro.workload.streams import mixed_stream
from repro.workload.trace import load_trace, save_trace

from tests.conftest import make_objects


class TestRoundTrip:
    def test_mixed_stream_round_trips(self, tmp_path):
        objects = make_objects(60, seed=41)
        stream = mixed_stream(
            objects[:50],
            n_windows=5,
            n_points=5,
            inserts=objects[50:],
            deletes=[objects[0].oid, objects[1].oid],
            seed=9,
            data_space=10_000.0,
        )
        path = tmp_path / "trace.jsonl"
        assert save_trace(stream, path) == len(stream)
        loaded = load_trace(path)
        assert len(loaded) == len(stream)
        for original, replayed in zip(stream, loaded):
            assert original[0] == replayed[0]
            if original[0] == "window":
                assert replayed[1].as_tuple() == original[1].as_tuple()
            elif original[0] == "point":
                assert replayed[1:] == original[1:]
            elif original[0] == "insert":
                a, b = original[1], replayed[1]
                assert (a.oid, a.size_bytes) == (b.oid, b.size_bytes)
                assert type(a.geometry) is type(b.geometry)
                assert list(a.geometry.vertices) == list(b.geometry.vertices)
            elif original[0] == "delete":
                assert replayed[1] == original[1]

    def test_window_coordinate_form(self, tmp_path):
        path = tmp_path / "t.jsonl"
        save_trace([("window", 1.0, 2.0, 3.0, 4.0)], path)
        assert load_trace(path) == [("window", Rect(1.0, 2.0, 3.0, 4.0))]

    def test_closed_ring_and_mbr_override_survive(self, tmp_path):
        ring = [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 0.0)]
        obj = SpatialObject(
            3, Polyline(ring), size_bytes=900, mbr_override=Rect(-1.0, -1.0, 5.0, 5.0)
        )
        path = tmp_path / "t.jsonl"
        save_trace([("insert", obj)], path)
        assert json.loads(path.read_text())["geometry"] == "polyline"
        (_, replayed), = load_trace(path)
        assert replayed.geometry == Polyline(ring)
        assert replayed.mbr_override == Rect(-1.0, -1.0, 5.0, 5.0)

    def test_replay_produces_identical_results(self, tmp_path):
        """The point of the format: a replayed run answers like the
        recorded one."""
        from repro.database import SpatialDatabase

        objects = make_objects(150, seed=3)
        stream = mixed_stream(
            objects, n_windows=8, n_points=8, seed=5, data_space=10_000.0
        )
        path = tmp_path / "trace.jsonl"
        save_trace(stream, path)

        def run(ops):
            db = SpatialDatabase(smax_bytes=16 * 4096)
            db.build(objects)
            return db.run_workload(ops, buffer_pages=128)

        recorded = run(stream)
        replayed = run(load_trace(path))
        for a, b in zip(recorded.phases, replayed.phases):
            assert (a.name, a.operations, a.results) == (b.name, b.operations, b.results)
            assert a.io.total_ms == pytest.approx(b.io.total_ms)

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert save_trace([], path) == 0
        assert load_trace(path) == []


class TestJoinOperations:
    def test_join_needs_rebinding(self, tmp_path):
        path = tmp_path / "t.jsonl"
        save_trace([("join", object(), "threshold")], path)
        with pytest.raises(ConfigurationError):
            load_trace(path)
        target = object()
        assert load_trace(path, join_with=target) == [("join", target, "threshold")]

    def test_join_default_technique(self, tmp_path):
        path = tmp_path / "t.jsonl"
        save_trace([("join", object())], path)
        target = "s"
        assert load_trace(path, join_with=target) == [("join", "s", "complete")]


class TestMalformedTraces:
    def test_unknown_operation_rejected_on_save(self, tmp_path):
        with pytest.raises(ConfigurationError):
            save_trace([("teleport", 1)], tmp_path / "t.jsonl")
        with pytest.raises(ConfigurationError):
            save_trace(["window"], tmp_path / "t.jsonl")
        with pytest.raises(ConfigurationError):
            save_trace([("insert", "not-an-object")], tmp_path / "t.jsonl")

    def test_unknown_operation_rejected_on_load(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"op": "teleport"}) + "\n")
        with pytest.raises(ConfigurationError):
            load_trace(path)

    def test_invalid_json_names_the_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"op": "point", "x": 1.0, "y": 2.0}\nnot json\n')
        with pytest.raises(ConfigurationError, match=":2"):
            load_trace(path)

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ConfigurationError):
            load_trace(path)

    def test_unknown_geometry_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps(
                {"op": "insert", "oid": 1, "geometry": "blob",
                 "vertices": [[0, 0]], "size_bytes": 10}
            )
            + "\n"
        )
        with pytest.raises(ConfigurationError):
            load_trace(path)

    def test_polygon_record_rejected(self, tmp_path):
        """A polygon record (what a trace of an older checkout could
        hold) is refused as an unknown geometry: the load raises, so no
        stream with the operations before it comes back."""
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps({"op": "window", "rect": [0.0, 0.0, 1.0, 1.0]}) + "\n"
            + json.dumps(
                {"op": "insert", "oid": 1, "geometry": "polygon",
                 "vertices": [[0, 0], [4, 0], [4, 4]], "size_bytes": 900}
            )
            + "\n"
        )
        with pytest.raises(ConfigurationError, match="unknown geometry 'polygon'"):
            load_trace(path)


class TestWorkloadCLITrace:
    def test_record_then_replay(self, tmp_path, capsys):
        from repro.eval.__main__ import main

        path = tmp_path / "run.jsonl"
        args = [
            "workload",
            "--scale", "0.002",
            "--queries", "4",
            "--buffer-pages", "64",
            "--policies", "lru",
            "--no-join",
            "--trace", str(path),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert f"recorded" in out and str(path) in out
        assert path.exists()
        n_ops = sum(1 for line in path.read_text().splitlines() if line.strip())
        assert n_ops > 0

        assert main(args) == 0  # second run replays
        out = capsys.readouterr().out
        assert f"replaying {n_ops} operations" in out
