"""Figure 6 — storage utilization of the organization models.

Paper shape: the secondary organization's byte-packed sequential file
is best; the primary organization pays the R*-tree's ~70 % page fill;
the plain cluster organization is worst because every cluster unit
binds a full ``Smax`` extent.
"""

from __future__ import annotations

SERIES = ("A-1", "B-1", "C-1", "A-2", "B-2", "C-2")


def test_fig6_storage(run_figure):
    rows = run_figure("fig6", "fig6_storage", series=SERIES)

    for row in rows:
        sec, prim, cluster = (
            row[f"{org} org (pages)"] for org in ("sec.", "prim.", "cluster")
        )
        assert sec < prim < cluster, row["series"]
        # The plain cluster organization wastes roughly half its pages.
        assert cluster > 1.4 * sec, row["series"]
