"""Every figure renders, under the columns its committed table has;
plus a few residual paths."""

from __future__ import annotations

import pathlib
import re

import pytest

from repro.disk.model import DiskStats
from repro.eval.__main__ import FLAGS
from repro.eval.config import DEFAULT_SCALE, ExperimentConfig
from repro.eval.context import ExperimentContext
from repro.eval.figures import FIGURES
from repro.join.multistep import JoinResult

RESULTS = pathlib.Path(__file__).parents[1] / "benchmarks" / "results"


def columns(header_line: str) -> list[str]:
    """Column names of a rendered header line (cells are padded to the
    widest value and two spaces apart; no name holds a double space)."""
    return re.split(r" {2,}", header_line.strip())


@pytest.fixture(scope="module")
def ctx() -> ExperimentContext:
    return ExperimentContext(ExperimentConfig(scale=0.005))


@pytest.fixture(scope="module")
def committed() -> dict[str, list[str]]:
    """Title -> column names of every table under benchmarks/results/."""
    tables = {}
    for path in RESULTS.glob("*.txt"):
        title, header = path.read_text().splitlines()[:2]
        tables[title] = columns(header)
    return tables


class TestFigures:
    @pytest.mark.parametrize("name", FIGURES)
    def test_renders_under_its_committed_columns(self, name, ctx, committed):
        """Column drift shows here in seconds, not after the figure
        suite has rewritten benchmarks/results/."""
        figure = FIGURES[name]
        rows = list(figure.rows(ctx))
        title, header, rule, *body = figure.render(ctx, rows).splitlines()
        assert title == figure.title.format(scale=0.005)
        assert len(body) >= len(rows) > 0
        assert columns(header) == list(rows[0])
        # benchmarks/results/ is recorded at the default scale
        assert columns(header) == committed[figure.title.format(scale=DEFAULT_SCALE)]

    @pytest.mark.parametrize(
        "name, nothing", [("fig10", {"series": ()}), ("fig16", {"versions": ()})]
    )
    def test_no_rows_still_render_the_title(self, name, nothing, ctx):
        """The two figures whose columns come from their ``techniques``
        selection: an empty selection is an empty table, not an error."""
        figure = FIGURES[name]
        rows = list(figure.rows(ctx, **nothing))
        assert rows == []
        assert figure.render(ctx, rows).splitlines()[0] == figure.title

    def test_only_accepts_exactly_the_figure_names(self):
        label, accepts = FLAGS["only"].check
        assert label == f"one of {', '.join(FIGURES)}"
        assert all(accepts(name) for name in FIGURES)
        assert not accepts("fig9") and not accepts("figures")


class TestJoinResultProperties:
    def test_io_and_total(self):
        res = JoinResult(
            mbr_io=DiskStats(seek_ms=100.0),
            transfer_io=DiskStats(seek_ms=300.0),
            exact_tests=2,
            exact_ms=1.5,
        )
        assert res.io_ms == pytest.approx(400.0)
        assert res.io_s == pytest.approx(0.4)
        assert res.total_ms == pytest.approx(401.5)


class TestResidualPaths:
    def test_window_workload_full_space(self):
        from repro.data.workload import window_workload
        from tests.conftest import make_objects

        objs = make_objects(20, seed=95, space=1000.0)
        windows = window_workload(
            objs, 1.0, n_queries=3, data_space=1000.0
        )
        for w in windows:
            assert w.width == pytest.approx(1000.0)
            assert w.xmin == 0.0

    def test_sequential_write_then_read(self):
        from repro.disk.model import DiskModel

        disk = DiskModel()
        disk.write(10, 2)
        # Reading right after the write head position is sequential.
        assert disk.read(12, 1) == 1.0

    def test_context_smax_override_cached_separately(self):
        from repro.eval.config import ExperimentConfig
        from repro.eval.context import ExperimentContext

        ctx = ExperimentContext(ExperimentConfig(scale=0.003, seed=9))
        a = ctx.org("cluster", "A-1")
        b = ctx.org("cluster", "A-1", smax_bytes=10 * 4096)
        assert a is not b
        assert b.policy.smax_pages == 10

    def test_region_of_expanded_map_shares_geometry(self):
        from repro.eval.config import ExperimentConfig
        from repro.eval.context import ExperimentContext

        ctx = ExperimentContext(ExperimentConfig(scale=0.003, seed=9))
        plain = ctx.objects("A-1")
        fat = ctx.objects("A-1", 2.0)
        assert fat[0].geometry is plain[0].geometry
        assert fat[0].mbr.contains(plain[0].mbr)
