"""Golden stdout of every ``python -m repro.eval`` subcommand.

The files under ``tests/golden/eval_cli/`` were captured at the commit
*before* the subcommands were rewritten onto one flag table, one
scenario table and one runner, so they pin "same flags, same defaults,
same output" rather than promise it.  Only wall-clock fields are
masked.  Regenerate (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_eval_cli.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import re

import pytest

from repro.eval.__main__ import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "eval_cli"

SMALL = ["--scale", "0.005"]

# name -> argv; "{tmp}" is replaced by the test's scratch directory.
CASES = {
    "figures": [*SMALL, "--only", "table1,fig8"],
    "workload": [
        "workload", *SMALL, "--queries", "6", "--buffer-pages", "64",
        "--policies", "lru,clock",
        "--trace-out", "{tmp}/trace.json", "--metrics-out", "{tmp}/metrics.json",
    ],
    "workload_overlap_profile": [
        "workload", *SMALL, "--queries", "5", "--buffer-pages", "64",
        "--policies", "fifo", "--no-join", "--scheduler", "overlap",
        "--prefetch", "cluster", "--disks", "2", "--organization", "secondary",
        "--profile",
    ],
    "pagestore": [
        "pagestore", *SMALL, "--queries", "5", "--disks", "1,2",
        "--placements", "spatial,hash",
    ],
    "iosched": [
        "iosched", *SMALL, "--queries", "6", "--buffer-pages", "64",
        "--admission", "none,priority",
    ],
    "iosched_single_traced": [
        "iosched", *SMALL, "--queries", "4", "--disks", "2",
        "--schedulers", "overlap", "--prefetch", "sequential",
        "--trace-out", "{tmp}/trace.json", "--metrics-out", "{tmp}/metrics.json",
    ],
    "traffic": ["traffic", *SMALL, "--sessions", "60", "--buffer-pages", "64"],
    "traffic_closed_priority": [
        "traffic", *SMALL, "--sessions", "30", "--arrival", "closed",
        "--ops-per-session", "3", "--admission", "priority",
    ],
    "traffic_ablation": ["traffic", *SMALL, "--sessions", "60", "--ablation"],
    "tiering": [
        "tiering", *SMALL, "--queries", "20", "--fast-pages", "32",
        "--trace-out", "{tmp}/trace.json", "--metrics-out", "{tmp}/metrics.json",
    ],
    "trace": [
        "trace", *SMALL, "--queries", "4",
        "--trace-out", "{tmp}/trace.json", "--metrics-out", "{tmp}/metrics.json",
    ],
    "storage": [
        "storage", *SMALL, "--queries", "5", "--crash-points", "3",
        "--report-out", "{tmp}/report.json",
    ],
    "reorg": [
        "reorg", *SMALL, "--sessions", "60", "--rounds", "5",
        "--budget-pages", "16",
    ],
}

_WALL_LINE = re.compile(r"^\[(\w+): [\d.]+s wall\]$", re.M)
_STORAGE_ROW = re.compile(r"^(file-backed \(measured\) +\S+) +\S+ +\S+$", re.M)
# pstats indents every line it prints; the block ends at the first
# line that starts in column 0 again.
_PROFILE_BLOCK = re.compile(
    r"^(--- cProfile top 15 by cumulative time.*? ---)\n(?:[ \t].*\n|\n)*", re.M
)


def run_cli(argv: list[str], tmp: pathlib.Path) -> tuple[int, str]:
    """Exit code and masked stdout of one CLI invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([a.replace("{tmp}", str(tmp)) for a in argv])
    text = out.getvalue().replace(str(tmp), "<tmp>")
    text = _WALL_LINE.sub(r"[\1: <wall>]", text)
    text = _STORAGE_ROW.sub(r"\1  <wall>  <wall>", text)
    text = _PROFILE_BLOCK.sub(r"\1\n<profile>\n", text)
    return code, text


@pytest.mark.parametrize("name", CASES)
def test_stdout_matches_parent_golden(name, tmp_path):
    code, text = run_cli(CASES[name], tmp_path)
    assert code == 0
    assert text == (GOLDEN / f"{name}.txt").read_text()


def test_flags_and_defaults_match_parent():
    """No subcommand gained, lost or re-defaulted a flag: each
    ``{flag: default}`` map, read off the built parser, equals the one
    read off the parent commit's parsers (flag_defaults.json)."""
    import argparse

    from repro.eval.__main__ import PAPER, SCENARIOS, build_parser

    built = {
        scenario.name: {
            action.option_strings[0]: action.default
            for action in build_parser(scenario)._actions
            if not isinstance(action, argparse._HelpAction)
        }
        for scenario in (PAPER, *SCENARIOS.values())
    }
    assert built == json.loads((GOLDEN / "flag_defaults.json").read_text())


BAD_VALUES = [
    ("iosched", "--placement", "bogus"),
    ("traffic", "--placement", "bogus"),
    ("trace", "--placement", "bogus"),
    ("workload", "--organization", "bogus"),
    ("workload", "--series", "Z-9"),
    ("workload", "--disks", "0"),
    ("workload", "--scheduler", "bogus"),
    ("pagestore", "--disks", "1,0"),
    ("pagestore", "--window-area", "0"),
    ("iosched", "--prefetch", "none,bogus"),
    ("traffic", "--arrival", "bogus"),
    ("traffic", "--rate", "0"),
    ("tiering", "--migrations", ","),
    ("tiering", "--hot-fraction", "1.5"),
    ("trace", "--admission", "bogus"),
    ("storage", "--crash-points", "1"),
    ("reorg", "--delete-fraction", "1"),
    ("reorg", "--sessions", "0"),
]


@pytest.mark.parametrize("subcommand, flag, value", BAD_VALUES)
def test_bad_value_is_a_usage_error_before_any_work(
    subcommand, flag, value, monkeypatch, capsys
):
    def no_map(*args, **kwargs):
        raise AssertionError("the map was generated before the flags were checked")

    monkeypatch.setattr("repro.eval.context.generate_map", no_map)
    with pytest.raises(SystemExit) as exit_info:
        main([subcommand, *SMALL, flag, value])
    assert exit_info.value.code == 2
    assert f"argument {flag}: " in capsys.readouterr().err


@pytest.mark.parametrize("fraction", [0.1, 0.3, 0.5, 0.9])
def test_reorg_deletes_the_requested_fraction(fraction):
    from repro.eval.config import ExperimentConfig
    from repro.eval.context import ExperimentContext

    dataset = ExperimentContext(ExperimentConfig(scale=0.005)).dataset("A-1")
    n = len(dataset.objects)
    doomed, survivors = dataset.deleted(fraction)
    assert len(doomed) + len(survivors) == n
    assert abs(len(doomed) / n - fraction) <= 1 / n
    if fraction == 0.5:  # the committed reorg ablation deletes the even indices
        assert doomed == dataset.objects[::2]


def test_reorg_delete_fraction_reaches_the_run(tmp_path):
    """``--delete-fraction 0.9`` used to delete 50% like the default."""
    code, text = run_cli([*CASES["reorg"], "--delete-fraction", "0.9"], tmp_path)
    assert code == 0
    assert "90% deleted" in text
    default = (GOLDEN / "reorg.txt").read_text()
    assert text.split("=\n")[-1] != default.split("=\n")[-1]


def test_traffic_ablation_writes_metrics_per_configuration(tmp_path):
    out = tmp_path / "metrics.json"
    argv = [*CASES["traffic_ablation"], "--metrics-out", str(out)]
    code, text = run_cli(argv, tmp_path)
    assert code == 0
    for tag in ("200.none", "200.priority", "2000.none", "2000.priority"):
        written = tmp_path / f"metrics.{tag}.json"
        assert f"-> <tmp>/{written.name}]" in text
        snapshot = json.loads(written.read_text())
        assert snapshot["run"]["sessions"] == 60
        assert any(key.startswith("pool.") for key in snapshot["metrics"])


def test_readme_table_lists_every_subcommand():
    """The README's subcommand table and the scenario table agree."""
    from repro.eval.__main__ import SCENARIOS

    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("<!-- eval-subcommands -->")[1]
    first_column = re.findall(r"^\| `(\w+)` ", section, re.M)
    assert first_column == list(SCENARIOS)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    for case, case_argv in CASES.items():
        with tempfile.TemporaryDirectory() as scratch:
            status, masked = run_cli(case_argv, pathlib.Path(scratch))
        assert status == 0, case
        (GOLDEN / f"{case}.txt").write_text(masked)
        print(f"wrote {GOLDEN / case}.txt")
