"""Figure 16 — transfer techniques for join processing (cluster org).

Paper shape: the normal SLM read beats the vector read; reading
complete cluster units wins in most settings (it is the paper's
recommended join technique); with reasonable buffers the cost
approaches the analytic optimum (one seek + one rotational delay per
unit, queried pages transferred once).
"""

from __future__ import annotations


def test_fig16_join_techniques(run_figure):
    rows = run_figure("fig16", "fig16_join_techniques")
    techniques = ("complete (s)", "vector (s)", "read (s)", "optimum (s)")

    for row in rows:
        # The analytic optimum is a true lower bound.
        assert row["optimum (s)"] <= min(row[t] for t in techniques) + 1e-9, row
        # Normal read vs vector read (Section 6.2), beyond tiny buffers.
        if row["buffer"] >= 64:
            assert row["read (s)"] <= row["vector (s)"] * 1.1, row

    # "The simplest query technique (reading the complete cluster unit)
    # exhibits the best performance in most cases."
    complete_wins = sum(
        1
        for row in rows
        if row["complete (s)"] <= min(row["read (s)"], row["vector (s)"]) * 1.02
    )
    assert complete_wins >= len(rows) / 2

    # With the largest buffer the cost approaches the optimum.
    for version in ("a", "b"):
        version_rows = [r for r in rows if r["version"] == version]
        last = max(version_rows, key=lambda r: r["buffer"])
        best = min(last[t] for t in techniques if t != "optimum (s)")
        assert best <= 2.0 * last["optimum (s)"], version
