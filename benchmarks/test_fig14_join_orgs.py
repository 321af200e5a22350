"""Figure 14 — spatial join I/O across the organization models
(C-1 ⋈ C-2, versions a and b, buffer sweep).

Paper shape: the cluster organization wins clearly at every buffer
size; speed-ups versus the secondary organization reach ~4.9 (version
a) and ~9.5 (version b), i.e. the denser join profits more from global
clustering.
"""

from __future__ import annotations

from repro.eval.figures import FIGURES
from repro.eval.report import format_rows

from benchmarks.conftest import once


def test_fig14_join_orgs(run_figure):
    rows = run_figure("fig14", "fig14_join_orgs")

    for row in rows:
        # The cluster organization always wins.
        assert row["speedup vs sec"] > 1.5, row
        assert row["speedup vs prim"] > 1.0, row

    # Version b (the denser join) produces far more pairs and profits
    # at least as much from clustering as version a.
    a_rows = [r for r in rows if r["version"] == "a"]
    b_rows = [r for r in rows if r["version"] == "b"]
    assert b_rows[0]["MBR pairs"] > 4 * a_rows[0]["MBR pairs"]
    assert max(r["speedup vs sec"] for r in b_rows) >= 0.8 * max(
        r["speedup vs sec"] for r in a_rows
    )

    # Larger buffers help every organization (monotone-ish I/O).
    for version_rows in (a_rows, b_rows):
        first, last = version_rows[0], version_rows[-1]
        for org in ("sec (s)", "prim (s)", "cluster (s)"):
            assert last[org] <= first[org] * 1.1


def test_fig14_smaller_objects_gain_more(ctx, benchmark, record_table):
    """Section 6.1's closing remark: "For spatial joins with smaller
    object sizes (B-1/2 and A-1/2), the performance gains are even
    higher" — compare the A and C series at one buffer size."""

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

    row_a, row_c = rows = once(benchmark, run)
    record_table(
        "fig14_series_comparison",
        format_rows(
            "Figure 14 addendum — smaller objects profit more (buffer 1600 scaled)",
            rows,
        ),
    )
    assert row_a["speedup vs sec"] > row_c["speedup vs sec"]
