"""Figure 7 — storage utilization and construction cost with the
restricted buddy system (3 buddy sizes).

Paper shape: the buddy system brings the cluster organization's
utilization to roughly the primary organization's level; construction
cost rises only slightly (the unit moves between buddies).
"""

from __future__ import annotations

SERIES = ("A-1", "B-1", "C-1")


def test_fig7_buddy(run_figure):
    rows = run_figure("fig7", "fig7_buddy", series=SERIES)

    for row in rows:
        assert row["buddy (pages)"] < row["fixed (pages)"], row["series"]
        # "About the same storage utilization as the primary organization"
        assert abs(row["buddy (pages)"] - row["primary (pages)"]) < (
            0.35 * row["primary (pages)"]
        )
        # "The cost of construction is only slightly higher than before"
        assert row["fixed constr (s)"] <= row["buddy constr (s)"]
        assert row["buddy constr (s)"] < 1.35 * row["fixed constr (s)"]
        assert row["moves"] > 0
