"""Smoke test of the benchmark: every workload at scale 0.005, one
repetition, traced.  Checks the printed contract, not the speeds."""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from perf import run
from perf.metrics import END_TO_END, PER_LAYER
from perf.shim import WRAP_TABLE, Attribution, Shim
from perf.workloads import WORKLOADS, make_workload

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def smoke_lines() -> dict[tuple[str, str], tuple[float, str]]:
    """``(workload, metric) -> (value, unit)`` of one traced smoke run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run.main(["--smoke", "--reps", "1"])
    assert status == 0
    lines = {}
    for line in out.getvalue().splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] in WORKLOADS and parts[1] not in ("dataset", "probe"):
            lines[(parts[0], parts[1])] = (float(parts[2]), parts[3])
    return lines


def test_benchmark_json_is_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["perf"]
    assert BENCHMARK["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]
    ] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(PER_LAYER)
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_every_metric_is_printed_with_its_unit(smoke_lines):
    for workload in WORKLOADS:
        for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            value, unit = smoke_lines[(workload, metric["name"])]
            assert unit == metric["unit"]
        for metric in BENCHMARK["end_to_end"]:
            assert smoke_lines[(workload, metric["name"])][0] > 0


def test_no_operation_fails_and_the_layers_cover_the_wall_time(smoke_lines):
    for workload in WORKLOADS:
        assert smoke_lines[(workload, "failed_ops_share")][0] == 0
        assert smoke_lines[(workload, "obs.attributed_share")][0] >= 0.95
        assert smoke_lines[(workload, "obs.shim_overhead_ratio")][0] > 0


def test_self_times_sum_to_the_wall_time():
    entries = [("a", "A.f", None), ("b", "B.g", None)]
    spans = [
        (0, 1.0, 5.0, -1, None),  # a: 4 s, 2.5 s of it in children
        (1, 1.5, 3.0, 0, None),
        (1, 3.5, 4.5, 0, None),
        (1, 6.0, 7.0, -1, None),
        (0, 20.0, 21.0, -1, None),  # outside the interval
    ]
    attribution = Attribution(entries, spans, 0.0, 10.0)
    assert attribution.self_s["a"] == pytest.approx(1.5)
    assert attribution.self_s["b"] == pytest.approx(3.5)
    assert attribution.self_s["driver"] == pytest.approx(5.0)
    assert sum(attribution.self_s.values()) == pytest.approx(attribution.wall_s)
    assert attribution.calls_from[("B.g", "a")] == 2
    assert attribution.calls_from[("B.g", "driver")] == 1


def test_every_wrapped_entry_point_resolves_and_is_restored():
    from repro.buffer.pool import BufferPool

    original = BufferPool.submit
    shim = Shim()
    with shim:
        assert len(shim.entries) == len(WRAP_TABLE)
        assert BufferPool.submit is not original
    assert BufferPool.submit is original


def test_a_renamed_entry_point_fails_loudly(monkeypatch):
    from perf import shim as shim_module

    broken = WRAP_TABLE + (("rtree", "repro.rtree.rstar:RStarTree.no_such_method", None),)
    monkeypatch.setattr(shim_module, "WRAP_TABLE", broken)
    with pytest.raises(LookupError):
        Shim().install()


def test_a_wrong_oracle_entry_counts_as_a_failure():
    workload = make_workload("query_cold", smoke=True)
    workload.setup(run.DEFAULT_SEED)
    workload.expect()
    assert workload.rep().failed == 0
    workload.window_answers[0] = workload.window_answers[0] | {-1}
    assert workload.rep().failed == 1
