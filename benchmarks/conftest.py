"""Benchmark harness plumbing.

One :class:`~repro.eval.ExperimentContext` is shared across all
benchmark modules, so each organization is built at most once per run.
Every benchmark prints its table and also writes it to
``benchmarks/results/<name>.txt`` (``RESULTS_DIR``) so the output
survives pytest's capture.

Scale is controlled by ``REPRO_SCALE`` (default 0.08 ≈ 10,500 objects
per map); see README.md, "Reproducing the paper", and the
:mod:`repro.eval.config` docstring for why the figure *shapes* are
scale-invariant.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.eval.context import ExperimentContext
from repro.eval.figures import FIGURES

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def ctx() -> ExperimentContext:
    return ExperimentContext()


@pytest.fixture()
def record_table():
    """Print a result table and persist it under benchmarks/results/."""

    def _record(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print()
        print(text)

    return _record


def once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiments are deterministic simulations — repeated rounds
    would only re-measure Python overhead — so every benchmark uses a
    single round/iteration.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture()
def run_figure(ctx, benchmark, record_table):
    """Generate one row of ``FIGURES`` (once, timed), record its table
    under ``record_as`` and hand back the ``{column: value}`` rows."""

    def _run(name: str, record_as: str, **selection) -> list[dict]:
        figure = FIGURES[name]
        rows = once(benchmark, lambda: list(figure.rows(ctx, **selection)))
        record_table(record_as, figure.render(ctx, rows))
        return rows

    return _run
