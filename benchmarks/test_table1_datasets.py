"""Table 1 — the maps and the test series.

Regenerates the dataset-characteristics table and checks the synthetic
maps hit the paper's per-series object sizes.
"""

from __future__ import annotations


def test_table1_datasets(run_figure):
    rows = run_figure("table1", "table1_datasets")

    assert len(rows) == 6
    for row in rows:
        # Average object sizes match Table 1 (counts are scaled).
        assert abs(row["avg size (measured)"] - row["avg size (paper)"]) <= (
            0.1 * row["avg size (paper)"]
        ), row["series-map"]
