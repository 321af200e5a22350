"""Figure 5 — I/O cost for constructing the organization models.

Paper shape: the primary organization is by far the most expensive and
grows strongly with the object size; secondary and cluster organization
are of similar cost and nearly independent of the object size (the
cluster organization avoids the forced reinsert and copies whole cluster
units during its splits).
"""

from __future__ import annotations

SERIES = ("A-1", "B-1", "C-1", "A-2", "B-2", "C-2")
SEC, PRIM, CLUSTER = "sec. org (s)", "prim. org (s)", "cluster org (s)"


def test_fig5_construction(run_figure):
    rows = run_figure("fig5", "fig5_construction", series=SERIES)

    for row in rows:
        # Primary clearly the most expensive organization to build.
        assert row[PRIM] > 1.2 * row[SEC], row["series"]
        assert row[PRIM] > 1.1 * row[CLUSTER], row["series"]
        # Secondary and cluster stay within a small factor of each other.
        assert row[CLUSTER] < 1.6 * row[SEC], row["series"]

    # Primary grows with the object size; secondary/cluster stay flat-ish.
    a1 = next(r for r in rows if r["series"] == "A-1")
    c1 = next(r for r in rows if r["series"] == "C-1")
    assert c1[PRIM] > 1.1 * a1[PRIM]
    assert c1[SEC] < 2.0 * a1[SEC]
