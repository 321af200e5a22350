"""The paper's claims, one case per row of ``FIGURES``.

A case generates its figure once, records its table under
``benchmarks/results/`` and fails if a claim of the figure does not
hold.  ``CLAIMS`` holds one function per figure: over the figure's rows
it returns each claim as ``(claim, the paper's value or "-", the value
here, whether it holds)``; a claim's value here is the one nearest its
bound.  Once every case has checked its claims, they are listed in
``benchmarks/results/paper_claims.txt``.
"""

from __future__ import annotations

import pytest

from repro.data.workload import PAPER_WINDOW_AREAS
from repro.eval.figures import COMPLETE_JOIN_SPEEDUP_PAPER, FIGURES
from repro.eval.report import format_rows

from benchmarks import conftest

# Each case's table, in the order of the claims in paper_claims.txt.
RECORDED_AS = {
    "table1": "table1_datasets",
    "fig5": "fig5_construction",
    "fig6": "fig6_storage",
    "fig7": "fig7_buddy",
    "fig8": "fig8_window_queries",
    "fig10": "fig10_techniques",
    "fig11": "fig11_adaptation",
    "fig12": "fig12_point_queries",
    "fig14": "fig14_join_orgs",
    "fig14 series": "fig14_series_comparison",  # Figure 14's addendum
    "fig16": "fig16_join_techniques",
    "fig17": "fig17_complete_join",
}


def _groups(rows: list[dict], column: str) -> list[list[dict]]:
    groups: dict[object, list[dict]] = {}
    for row in rows:
        groups.setdefault(row[column], []).append(row)
    return list(groups.values())


def _row(rows: list[dict], key: str) -> dict:
    """The first row whose first column is ``key``."""
    return next(r for r in rows if next(iter(r.values())) == key)


def _techniques(row: dict) -> dict[str, float]:
    return {c.split()[0]: v for c, v in row.items() if c.endswith(("(ms/4KB)", "(s)"))}


def _optimum_least(rows: list[dict]) -> tuple[str, bool]:
    least = [(t := _techniques(r))["optimum"] <= min(t.values()) + 1e-9 for r in rows]
    return f"{sum(least)}/{len(least)}", all(least)


def _span(rows: list[dict], column: str) -> tuple[float, float]:
    return min(r[column] for r in rows), max(r[column] for r in rows)


def table1(rows):
    error = max(abs(r["avg size (measured)"] - r["avg size (paper)"]) / r["avg size (paper)"] for r in rows)
    return [
        ("six series-maps", "6", len(rows), len(rows) == 6),
        ("avg object size within 10 % of the paper's", "-", error, error <= 0.1),
    ]


def fig5(rows):
    sec, prim, clu = "sec. org (s)", "prim. org (s)", "cluster org (s)"
    prim_sec = min(r[prim] / r[sec] for r in rows)
    prim_clu = min(r[prim] / r[clu] for r in rows)
    clu_sec = max(r[clu] / r[sec] for r in rows)
    prim_grows = _row(rows, "C-1")[prim] / _row(rows, "A-1")[prim]
    sec_grows = _row(rows, "C-1")[sec] / _row(rows, "A-1")[sec]
    return [
        ("primary > 1.2x secondary", "-", prim_sec, prim_sec > 1.2),
        ("primary > 1.1x cluster", "-", prim_clu, prim_clu > 1.1),
        ("cluster < 1.6x secondary", "-", clu_sec, clu_sec < 1.6),
        ("primary grows with size: C-1 > 1.1x A-1", "-", prim_grows, prim_grows > 1.1),
        ("secondary stays flat: C-1 < 2x A-1", "-", sec_grows, sec_grows < 2.0),
    ]


def fig6(rows):
    sec, prim, clu = "sec. org (pages)", "prim. org (pages)", "cluster org (pages)"
    ordered = sum(r[sec] < r[prim] < r[clu] for r in rows)
    clu_sec = min(r[clu] / r[sec] for r in rows)
    return [
        ("pages: secondary < primary < cluster", "-", f"{ordered}/{len(rows)}", ordered == len(rows)),
        ("cluster > 1.4x secondary", "-", clu_sec, clu_sec > 1.4),
    ]


def fig7(rows):
    pages = max(r["buddy (pages)"] / r["fixed (pages)"] for r in rows)
    off_primary = max(abs(r["buddy (pages)"] - r["primary (pages)"]) / r["primary (pages)"] for r in rows)
    fixed_buddy = max(r["fixed constr (s)"] / r["buddy constr (s)"] for r in rows)
    buddy_fixed = max(r["buddy constr (s)"] / r["fixed constr (s)"] for r in rows)
    moves = min(r["moves"] for r in rows)
    return [
        ("buddy < fixed pages", "-", pages, pages < 1.0),
        ("|buddy - primary| < 0.35x primary pages", "-", off_primary, off_primary < 0.35),
        ("fixed <= buddy to build", "-", fixed_buddy, fixed_buddy <= 1.0),
        ("buddy < 1.35x fixed to build", "-", buddy_fixed, buddy_fixed < 1.35),
        ("buddy units move", "-", moves, moves > 0),
    ]


def fig8(rows):
    series = _groups(rows, "series")  # each by ascending window area
    speedups = [[r["speedup vs sec"] for r in g] for g in series]
    grows = min(s[-1] / s[0] for s in speedups)
    largest = min(s[-1] for s in speedups)
    smallest = min(s[0] for s in speedups)
    best = {g[0]["series"]: max(s) for g, s in zip(series, speedups)}
    a_over_c = best["A-1"] / best["C-1"]
    ordered = sum(g[-1]["cluster (ms/4KB)"] < g[-1]["prim (ms/4KB)"] < g[-1]["sec (ms/4KB)"] for g in series)
    areas = [r["window area"] for r in rows if r["series"] == "A-1"]
    return [
        ("speedup grows: largest > smallest window", "-", grows, grows > 1.0),
        ("largest window: speedup > 6", "20 (A-1), 12.5 (C-1)", largest, largest > 6.0),
        ("smallest window: speedup > 0.5", "-", smallest, smallest > 0.5),
        ("best speedup: A-1 > C-1", "1.6 (20 / 12.5)", a_over_c, a_over_c > 1.0),
        (
            "largest window: cluster < primary < secondary", "-",
            f"{ordered}/{len(series)}", ordered == len(series),
        ),
        (
            "window areas", "0.001%..10%", f"{areas[0]}..{areas[-1]}",
            areas == [f"{a * 100:g}%" for a in sorted(PAPER_WINDOW_AREAS)],
        ),
    ]


def fig10(rows):
    # C-1's most selective windows, against complete reads
    selective = [_techniques(r) for r in rows if (r["series"], r["window area"]) == ("C-1", "0.001%")]
    slm = max(t["slm"] / t["complete"] for t in selective)
    threshold = max(t["threshold"] / t["complete"] for t in selective)
    spread = max(
        max(t.values()) / min(t.values())
        for t in (_techniques(r) for r in rows if r["window area"] == "10%")
    )
    least = _optimum_least(rows)
    return [
        ("optimum is the least cost", "-", *least),
        ("C-1 at 0.001 %: slm < 0.95x complete", "0.73 (27 % saved)", slm, slm < 0.95),
        ("C-1 at 0.001 %: threshold <= 1.02x complete", "0.85 (15 % saved)", threshold, threshold <= 1.02),
        ("10 % windows: techniques within 1.3x", "~1 (no significant difference)", spread, spread < 1.3),
    ]


def fig11(rows):
    g10, g100 = _span(rows, "gain factor 10 (%)"), _span(rows, "gain factor 100 (%)")
    never_less = min(r["gain factor 100 (%)"] - r["gain factor 10 (%)"] for r in rows)
    gain = {r["technique"]: r["gain factor 100 (%)"] for r in rows}
    smart = max(gain["threshold"], gain["slm"]) - gain["complete"]
    return [
        (
            "factor-10 gains within 0..60 %", "-",
            "{:,.2f}..{:,.2f}".format(*g10), 0.0 <= g10[0] and g10[1] <= 60.0,
        ),
        (
            "factor-100 gains within 0..60 %", "6.5..23 (threshold..complete)",
            "{:,.2f}..{:,.2f}".format(*g100), 0.0 <= g100[0] and g100[1] <= 60.0,
        ),
        ("factor-100 gain >= factor-10 gain - 3 points", "-", never_less, never_less >= -3.0),
        (
            "factor 100: threshold, slm gain <= complete's + 5 points", "-12 (11 slm, 23 complete)",
            smart, smart <= 5.0,
        ),
    ]


def fig12(rows):
    same = _span(rows, "cluster/sec")
    # the secondary organization's point-query I/O over the primary's
    advantage = {r["series"]: r["sec (ms/4KB)"] / r["prim (ms/4KB)"] for r in rows}
    a_over_c = advantage["A-1"] / advantage["C-1"]
    return [
        (
            "point-query I/O: cluster / secondary within 0.8..1.2", "~1 (almost no difference)",
            "{:,.2f}..{:,.2f}".format(*same), 0.8 <= same[0] and same[1] <= 1.2,
        ),
        ("point-query I/O: primary's advantage A-1 > C-1", "-", a_over_c, a_over_c > 1.0),
        ("point-query I/O: A-1 secondary > 1.2x primary", "-", advantage["A-1"], advantage["A-1"] > 1.2),
    ]


def fig14(rows):
    vs_sec = min(r["speedup vs sec"] for r in rows)
    vs_prim = min(r["speedup vs prim"] for r in rows)
    pairs = _row(rows, "b")["MBR pairs"] / _row(rows, "a")["MBR pairs"]
    best = {v: max(r["speedup vs sec"] for r in rows if r["version"] == v) for v in ("a", "b")}
    b_over_a = best["b"] / best["a"]
    # per version, the largest buffer's I/O against the smallest's
    buffers = max(
        g[-1][org] / g[0][org]
        for org in ("sec (s)", "prim (s)", "cluster (s)") for g in _groups(rows, "version")
    )
    return [
        ("speedup vs sec > 1.5", "up to 4.9 (a), 9.5 (b)", vs_sec, vs_sec > 1.5),
        ("speedup vs prim > 1", "up to 4.6 (a), 6.2 (b)", vs_prim, vs_prim > 1.0),
        ("version b > 4x the MBR pairs of a", "13.8 (9 / 0.65 per MBR)", pairs, pairs > 4),
        ("best speedup vs sec: b >= 0.8x a", "1.9 (9.5 / 4.9)", b_over_a, b_over_a >= 0.8),
        ("largest buffer <= 1.1x the smallest's I/O", "-", buffers, buffers <= 1.1),
    ]


def fig14_series(rows):
    # Section 6.1's closing remark: "For spatial joins with smaller object
    # sizes (B-1/2 and A-1/2), the performance gains are even higher".
    a_over_c = rows[0]["speedup vs sec"] / rows[1]["speedup vs sec"]
    return [("smaller objects gain more: A-1/2 > C-1/2 speedup vs sec", "-", a_over_c, a_over_c > 1.0)]


def fig16(rows):
    read_vector = max(r["read (s)"] / r["vector (s)"] for r in rows if r["buffer"] >= 64)
    wins = sum(r["complete (s)"] <= min(r["read (s)"], r["vector (s)"]) * 1.02 for r in rows)
    # per version, at the largest buffer: the best technique against the optimum
    largest = max(
        min(c for n, c in t.items() if n != "optimum") / t["optimum"]
        for t in (_techniques(max(g, key=lambda r: r["buffer"])) for g in _groups(rows, "version"))
    )
    return [
        ("optimum is a lower bound", "-", *_optimum_least(rows)),
        ("buffer >= 64: read <= 1.1x vector", "-", read_vector, read_vector <= 1.1),
        (
            "complete within 2 % of read and vector in half the rows", "-",
            f"{wins}/{len(rows)}", wins >= len(rows) / 2,
        ),
        ("largest buffer: best technique <= 2x optimum", "-", largest, largest <= 2.0),
    ]


def fig17(rows):
    # per version, the secondary and the cluster row
    sec, clu = ([r for r in rows if r["organization"] == name] for name in ("secondary", "cluster"))
    exact = max(abs(s["exact test (s)"] - c["exact test (s)"]) for s, c in zip(sec, clu))
    transfer = max(c["obj transfer (s)"] / s["obj transfer (s)"] for s, c in zip(sec, clu))
    transfer_mbr = min(s["obj transfer (s)"] / s["MBR-join (s)"] for s in sec)
    speedup = min(s["total (s)"] / c["total (s)"] for s, c in zip(sec, clu))
    return [
        ("exact-test cost equal in both organizations", "-", exact, exact < 1e-9),
        ("object transfer: cluster < 0.5x secondary", "-", transfer, transfer < 0.5),
        ("secondary: object transfer > MBR join", "-", transfer_mbr, transfer_mbr > 1.0),
        ("complete-join speedup > 1.5", COMPLETE_JOIN_SPEEDUP_PAPER, speedup, speedup > 1.5),
    ]


CLAIMS = {
    "table1": table1, "fig5": fig5, "fig6": fig6, "fig7": fig7, "fig8": fig8, "fig10": fig10, "fig11": fig11,
    "fig12": fig12, "fig14": fig14, "fig14 series": fig14_series, "fig16": fig16, "fig17": fig17,
}


def claims_text(scale: float, checked: list[dict]) -> str:
    return format_rows(f"The paper's claims, checked at scale={scale}", checked) + "\n"


def check(checked: dict[str, list[dict]], case: str, claims, rows: list[dict]) -> None:
    """Check ``claims(rows)``, keep their rows of ``paper_claims.txt``
    under ``case`` and fail naming the claims that do not hold."""
    checked[case] = [
        dict(figure=case.split()[0], claim=claim, paper=paper, here=here, holds="yes" if holds else "no")
        for claim, paper, here, holds in claims(rows)
    ]
    failed = [row["claim"] for row in checked[case] if row["holds"] != "yes"]
    assert not failed, f"{case}: {failed}"


@pytest.fixture(scope="module")
def checked(ctx):
    """The claim rows per case, written out once every case has checked
    its claims, whether they held or not."""
    checked: dict[str, list[dict]] = {}
    yield checked
    if checked.keys() == RECORDED_AS.keys():
        (conftest.RESULTS_DIR / "paper_claims.txt").write_text(
            claims_text(ctx.config.scale, [row for case in RECORDED_AS for row in checked[case]])
        )


@pytest.mark.parametrize("name", FIGURES)
def test_claims(name, run_figure, checked):
    check(checked, name, CLAIMS[name], run_figure(name, RECORDED_AS[name]))


def test_fig14_smaller_objects_gain_more(ctx, benchmark, record_table, checked):
    """Figure 14's join of the A and of the C series at one buffer size."""

    def run():
        rows = []
        for series_r, series_s in (("A-1", "A-2"), ("C-1", "C-2")):
            (row,) = FIGURES["fig14"].rows(
                ctx, series_r, series_s, versions=("a",),
                buffers=[ctx.config.join_buffer(1600)],
            )
            shown = ("sec (s)", "cluster (s)", "speedup vs sec")
            rows.append({"series": f"{series_r}/2 a", **{c: row[c] for c in shown}})
        return rows

    rows = conftest.once(benchmark, run)
    record_table(
        RECORDED_AS["fig14 series"],
        format_rows("Figure 14 addendum — smaller objects profit more (buffer 1600 scaled)", rows),
    )
    check(checked, "fig14 series", CLAIMS["fig14 series"], rows)
