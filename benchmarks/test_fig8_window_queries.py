"""Figure 8 — window queries across the organization models.

Paper shape: normalised I/O cost (ms per 4 KB of queried data) of the
cluster organization falls sharply with the window size — speed-up
factors versus the secondary organization reach ~20 for the small-object
series A-1 and ~12.5 for the large-object series C-1 — while the
primary organization lands between the two and profits most from small
objects.
"""

from __future__ import annotations

from repro.data.workload import PAPER_WINDOW_AREAS


def test_fig8_window_queries(run_figure):
    rows = run_figure("fig8", "fig8_window_queries", series=("A-1", "C-1"))

    by_series: dict[str, list] = {}
    for row in rows:  # per series in ascending window area
        by_series.setdefault(row["series"], []).append(row)

    for series, series_rows in by_series.items():
        speedups = [r["speedup vs sec"] for r in series_rows]
        # Monotone benefit: bigger windows, bigger win (allowing noise).
        assert speedups[-1] > speedups[0], series
        # Large windows: clearly accelerated.
        assert speedups[-1] > 6.0, (series, speedups)
        # The cluster organization never collapses for point-like windows.
        assert speedups[0] > 0.5, (series, speedups)

    # A-1 (small objects) gains more than C-1, as in the paper (20 vs 12.5).
    assert max(r["speedup vs sec"] for r in by_series["A-1"]) > max(
        r["speedup vs sec"] for r in by_series["C-1"]
    )

    # The primary organization sits between secondary and cluster for
    # large windows.
    for series_rows in by_series.values():
        big = series_rows[-1]
        assert big["cluster (ms/4KB)"] < big["prim (ms/4KB)"] < big["sec (ms/4KB)"]

    assert [r["window area"] for r in by_series["A-1"]] == [
        f"{area * 100:g}%" for area in sorted(PAPER_WINDOW_AREAS)
    ]
