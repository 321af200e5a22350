"""Figure 12 — point queries across the organization models.

Paper shape: almost no difference between the secondary and the cluster
organization (global clustering costs selective queries nothing); the
primary organization is best for the smallest objects (A-1) and loses
its edge as objects grow (series C's page-overflowing objects each cost
an extra access).
"""

from __future__ import annotations


def test_fig12_point_queries(run_figure):
    rows = run_figure("fig12", "fig12_point_queries", series=("A-1", "B-1", "C-1"))

    for row in rows:
        # "Almost no difference between the secondary organization and
        # the cluster organization."
        assert 0.8 <= row["cluster/sec"] <= 1.2, row["series"]

    by_series = {r["series"]: r for r in rows}

    def primary_advantage(series: str) -> float:
        row = by_series[series]
        return row["sec (ms/4KB)"] / row["prim (ms/4KB)"]

    # The primary organization profits from small objects and loses the
    # advantage as objects grow (A-1 best, C-1 relatively worst).
    assert primary_advantage("A-1") > primary_advantage("C-1")
    assert primary_advantage("A-1") > 1.2
