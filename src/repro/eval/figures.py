"""Every table and figure of the paper, one row of :data:`FIGURES` each.

A figure is a name, a title and a generator that turns an
:class:`~repro.eval.context.ExperimentContext` into rows of
``{column: value}`` — the column a value is printed under is the name
tests and benchmarks read it by (``row["speedup vs sec"]``), derived
ratios included.  :meth:`Figure.render` is the one way rows become
text, through the formatter the CLI scenarios and the ablations under
``benchmarks/`` use for their dict rows too.

Each generator's docstring says what shape the paper reports for it;
``benchmarks/test_paper_claims.py`` checks the paper's statements on
the rows, with its values, and lists them in
``benchmarks/results/paper_claims.txt``.  The reproduction runs at a
reduced cardinality (``REPRO_SCALE``), so what is compared is that
*shape* — who wins, by roughly what factor, where the curves cross —
and the paper's one message behind all of them: global clustering (the
cluster organization) costs selective queries nothing and wins the
more, the more data an operation touches (large windows, joins), at
construction and storage costs the restricted buddy system keeps near
the other organizations'.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.data.series import TABLE1
from repro.data.workload import PAPER_WINDOW_AREAS
from repro.eval.config import PAPER_JOIN_BUFFERS
from repro.eval.context import ORG_NAMES, ExperimentContext
from repro.eval.metrics import run_point_queries, run_window_queries
from repro.eval.report import format_rows
from repro.join.multistep import spatial_join

__all__ = ["COMPLETE_JOIN_SPEEDUP_PAPER", "FIGURES", "Figure"]

MAP1_SERIES = ("A-1", "B-1", "C-1")


@dataclass(frozen=True)
class Figure:
    name: str
    title: str  # ``{scale}`` stands for the configured scale
    generator: Callable[..., Iterator[dict]]  # generator(ctx, **selection)
    footer: Callable[[list[dict]], Iterable[str]] | None = None

    def rows(self, ctx: ExperimentContext, *args, **selection) -> Iterator[dict]:
        """The figure's rows over ``ctx``, generated after
        :meth:`ExperimentContext.rewind`: an organization ``ctx`` built
        before is queried from the disk head its build left, so the
        rows do not depend on which figure ran first."""
        ctx.rewind()
        return self.generator(ctx, *args, **selection)

    def render(self, ctx: ExperimentContext, rows: list[dict]) -> str:
        lines = [format_rows(self.title.format(scale=ctx.config.scale), rows)]
        if self.footer is not None:
            lines.extend(self.footer(rows))
        return "\n".join(lines)


def _ratio(cost: float, base: float) -> float:
    return cost / base if base > 0 else float("inf")


def _area(fraction: float) -> str:
    return f"{fraction * 100:g}%"


@contextmanager
def _reading(org, technique: str):
    """Query a built cluster organization under another read technique:
    the technique only affects how units are transferred, so one build
    serves every technique."""
    original, org.technique = org.technique, technique
    try:
        yield org
    finally:
        org.technique = original


def table1(ctx: ExperimentContext) -> Iterator[dict]:
    """Object counts, average object sizes, total volume and ``Smax`` per
    series of the synthetic maps against the paper's values (counts
    scale with ``REPRO_SCALE``; sizes and ``Smax`` do not)."""
    for key in TABLE1:
        spec = ctx.config.spec(key)
        objects = ctx.objects(key)
        total = sum(o.size_bytes for o in objects)
        yield {
            "series-map": key,
            "#objects": len(objects),
            "avg size (paper)": spec.avg_object_size,
            "avg size (measured)": round(total / len(objects), 1),
            "total MB": round(total / 1e6, 1),
            "Smax KB": spec.smax_kb,
        }


def fig5(ctx: ExperimentContext, series=tuple(TABLE1)) -> Iterator[dict]:
    """Building each organization model with unsorted input: the cluster
    organization is cheapest (no leaf reinserts, and the cluster split
    copies objects with single large requests); the primary
    organization is most expensive and grows strongly with the object
    size."""
    for key in series:
        cost = {n: ctx.org(n, key).construction_io.total_s for n in ORG_NAMES}
        yield {
            "series": key,
            "sec. org (s)": cost["secondary"],
            "prim. org (s)": cost["primary"],
            "cluster org (s)": cost["cluster"],
        }


def fig6(ctx: ExperimentContext, series=tuple(TABLE1)) -> Iterator[dict]:
    """The secondary organization's byte-packed file is best; the plain
    cluster organization is worst (every unit binds a full ``Smax``
    extent)."""
    for key in series:
        pages = {n: ctx.org(n, key).occupied_pages() for n in ORG_NAMES}
        yield {
            "series": key,
            "sec. org (pages)": pages["secondary"],
            "prim. org (pages)": pages["primary"],
            "cluster org (pages)": pages["cluster"],
        }


def fig7(ctx: ExperimentContext, series=MAP1_SERIES) -> Iterator[dict]:
    """The restricted buddy system (sizes ``Smax``, ``Smax/2``,
    ``Smax/4``) brings the cluster organization's utilization to roughly
    the primary organization's level at only slightly higher
    construction cost than the fixed-unit variant."""
    for key in series:
        fixed = ctx.org("cluster", key)
        buddy = ctx.org("cluster", key, buddy_sizes=3)
        yield {
            "series": key,
            "fixed (pages)": fixed.occupied_pages(),
            "buddy (pages)": buddy.occupied_pages(),
            "primary (pages)": ctx.org("primary", key).occupied_pages(),
            "fixed constr (s)": fixed.construction_io.total_s,
            "buddy constr (s)": buddy.construction_io.total_s,
            "moves": buddy.unit_moves,
        }


def fig8(
    ctx: ExperimentContext, series=("A-1", "C-1"), areas=PAPER_WINDOW_AREAS
) -> Iterator[dict]:
    """Window areas from 0.001 % to 10 % of the data space on the
    smallest-object (A-1) and largest-object (C-1) series: the larger
    the window, the stronger the cluster organization wins; the primary
    organization lands between the two and profits most on small
    objects."""
    for key in series:
        for area in areas:
            windows = ctx.windows(key, area)
            agg = {n: run_window_queries(ctx.org(n, key), windows) for n in ORG_NAMES}
            sec, clu = agg["secondary"].ms_per_4kb, agg["cluster"].ms_per_4kb
            yield {
                "series": key,
                "window area": _area(area),
                "sec (ms/4KB)": sec,
                "prim (ms/4KB)": agg["primary"].ms_per_4kb,
                "cluster (ms/4KB)": clu,
                "speedup vs sec": _ratio(sec, clu),
                "answers/query": agg["cluster"].answers_per_query,
            }


def fig10(
    ctx: ExperimentContext,
    series=("A-1", "C-1"),
    areas=PAPER_WINDOW_AREAS,
    techniques=("complete", "threshold", "slm", "optimum"),
) -> Iterator[dict]:
    """The query techniques within the cluster organization: visible
    savings only for the most selective queries on large cluster units
    (C-1), where SLM approaches the optimum; no difference from 0.1 %
    upward."""
    for key in series:
        org = ctx.org("cluster", key)
        for area in areas:
            windows = ctx.windows(key, area)
            row = {"series": key, "window area": _area(area)}
            for technique in techniques:
                with _reading(org, technique):
                    cost = run_window_queries(org, windows).ms_per_4kb
                row[f"{technique} (ms/4KB)"] = cost
            yield row


def fig11(
    ctx: ExperimentContext,
    series="B-1",
    sweep_pages=(5, 10, 20, 40, 80, 160),
    base_areas=(1e-5, 1e-4, 1e-3, 1e-2),
    techniques=("complete", "threshold", "slm"),
) -> Iterator[dict]:
    """Should the cluster size adapt to the query size (after Dröge &
    Schek [DS93])?  For each window area sweep the cluster size
    (``Smax``) for the best size ``s1``; change the area by a factor
    10 / 100 and find the best size ``s2`` for the *changed* area; the
    adaptation gain is the percentage of cost that keeping ``s1`` loses
    against ``s2``; the smarter techniques gain less from adapting than
    ``complete`` reads do.  The exceptional ``0.001 % → 0.1 %``
    transition (small best size, much bigger queries later) is its own
    column."""
    areas = sorted(
        {a * f for a in base_areas for f in (1.0, 10.0, 100.0) if a * f <= 0.1}
    )
    for technique in techniques:
        cost: dict[float, dict[int, float]] = {}  # cost[area][pages]
        for area in areas:
            windows = ctx.windows(series, area)
            cost[area] = {}
            for pages in sweep_pages:
                org = ctx.org("cluster", series, smax_bytes=pages * 4096)
                with _reading(org, technique):
                    cost[area][pages] = run_window_queries(org, windows).ms_per_4kb

        def gain(base_area: float, factor: float) -> float | None:
            target = base_area * factor
            if base_area not in cost or target not in cost:
                return None
            stuck = cost[target][min(cost[base_area], key=cost[base_area].get)]
            adapted = min(cost[target].values())
            return (stuck - adapted) / stuck * 100.0 if stuck > 0 else 0.0

        def mean_gain(factor: float) -> float:
            gains = [g for a in base_areas if (g := gain(a, factor)) is not None]
            return sum(gains) / len(gains) if gains else 0.0

        yield {
            "technique": technique,
            "gain factor 10 (%)": mean_gain(10.0),
            "gain factor 100 (%)": mean_gain(100.0),
            "gain 0.001%->0.1% (%)": gain(1e-5, 100.0) or 0.0,
        }


def fig12(ctx: ExperimentContext, series=MAP1_SERIES) -> Iterator[dict]:
    """678 point queries at the centers of the Section 5.4 windows:
    secondary and cluster organization are nearly identical; the primary
    organization is best for the smallest objects (A-1: the object comes
    for free with its data page) and worst for the largest (C-1: objects
    that do not fit a data page cost an extra access)."""
    for key in series:
        points = ctx.points(key)
        agg = {n: run_point_queries(ctx.org(n, key), points) for n in ORG_NAMES}
        sec, clu = agg["secondary"].ms_per_4kb, agg["cluster"].ms_per_4kb
        yield {
            "series": key,
            "sec (ms/4KB)": sec,
            "prim (ms/4KB)": agg["primary"].ms_per_4kb,
            "cluster (ms/4KB)": clu,
            # the paper reports "almost no difference", i.e. ~1.0
            "cluster/sec": _ratio(clu, sec),
        }


def fig14(
    ctx: ExperimentContext,
    series_r="C-1",
    series_s="C-2",
    versions=("a", "b"),
    buffers=None,
) -> Iterator[dict]:
    """C-1 ⋈ C-2, versions *a* and *b* (the denser join, its MBRs
    expanded), buffers from 200 to 6400 pages scaled with the data: the
    cluster organization wins clearly."""
    for version in versions:
        for buffer_pages in ctx.config.join_buffers if buffers is None else buffers:
            join = {
                n: spatial_join(
                    *ctx.join_pair(n, series_r, series_s, version), buffer_pages
                )
                for n in ORG_NAMES
            }
            clu = join["cluster"]
            yield {
                "version": version,
                "buffer": buffer_pages,
                "sec (s)": join["secondary"].io_s,
                "prim (s)": join["primary"].io_s,
                "cluster (s)": clu.io_s,
                "speedup vs sec": _ratio(join["secondary"].io_ms, clu.io_ms),
                "speedup vs prim": _ratio(join["primary"].io_ms, clu.io_ms),
                "MBR pairs": clu.candidate_pairs,
            }


def fig16(
    ctx: ExperimentContext,
    series_r="C-1",
    series_s="C-2",
    versions=("a", "b"),
    buffers=PAPER_JOIN_BUFFERS,
    techniques=("complete", "vector", "read", "optimum"),
) -> Iterator[dict]:
    """The cluster organization's join transfer techniques: the SLM
    ``read`` beats ``vector``; ``complete`` wins except for small
    buffers; with large buffers everything approaches the optimum.  The
    trade-off hinges on the buffer-to-unit ratio, and cluster units keep
    their paper size (``Smax`` pages) at any data scale — so this figure
    (and Figure 17) uses the paper's *absolute* buffer sizes, unlike
    Figure 14 whose buffers scale with the data."""
    for version in versions:
        pair = ctx.join_pair("cluster", series_r, series_s, version)
        for buffer_pages in buffers:
            row = {"version": version, "buffer": buffer_pages}
            for technique in techniques:
                row[f"{technique} (s)"] = spatial_join(
                    *pair, buffer_pages, technique=technique
                ).io_s
            yield row


def fig17(
    ctx: ExperimentContext,
    series_r="C-1",
    series_s="C-2",
    versions=("a", "b"),
    buffer_pages=1600,
) -> Iterator[dict]:
    """The complete three-step intersection join (MBR join, object
    transfer, exact geometry test at 0.75 ms per candidate pair): global
    clustering slashes the transfer share."""
    for version in versions:
        for name in ("secondary", "cluster"):
            result = spatial_join(
                *ctx.join_pair(name, series_r, series_s, version), buffer_pages
            )
            mbr, transfer = result.mbr_io.total_s, result.transfer_io.total_s
            exact = result.exact_ms / 1000.0
            yield {
                "version": version,
                "organization": name,
                "MBR-join (s)": mbr,
                "obj transfer (s)": transfer,
                "exact test (s)": exact,
                "total (s)": mbr + transfer + exact,
            }


#: Figure 17's complete-join speed-ups in the paper.
COMPLETE_JOIN_SPEEDUP_PAPER = "3.9x for a, 4.3x for b"


def fig17_speedups(rows: list[dict]) -> Iterator[str]:
    total = {(r["version"], r["organization"]): r["total (s)"] for r in rows}
    for version in dict.fromkeys(r["version"] for r in rows):
        speedup = total[version, "secondary"] / total[version, "cluster"]
        yield (
            f"version {version}: complete-join speedup "
            f"{speedup:.1f}x (paper: {COMPLETE_JOIN_SPEEDUP_PAPER})"
        )


FIGURES = {
    figure.name: figure
    for figure in (
        Figure("table1", "Table 1 — maps and test series (scale={scale})", table1),
        Figure(
            "fig5", "Figure 5 — I/O cost for constructing the organization models",
            fig5,
        ),
        Figure("fig6", "Figure 6 — storage utilization (occupied pages)", fig6),
        Figure(
            "fig7",
            "Figure 7 — restricted buddy system: utilization and construction cost",
            fig7,
        ),
        Figure("fig8", "Figure 8 — window queries across organization models", fig8),
        Figure(
            "fig10", "Figure 10 — query techniques for window queries (cluster org)",
            fig10,
        ),
        Figure(
            "fig11",
            "Figure 11 — performance gains from adapting the cluster size (B-1)",
            fig11,
        ),
        Figure(
            "fig12", "Figure 12 — point queries across organization models", fig12
        ),
        Figure(
            "fig14", "Figure 14 — spatial join I/O across organization models", fig14
        ),
        Figure("fig16", "Figure 16 — join transfer techniques (cluster org)", fig16),
        Figure(
            "fig17", "Figure 17 — complete intersection join cost breakdown", fig17,
            fig17_speedups,
        ),
    )
}
