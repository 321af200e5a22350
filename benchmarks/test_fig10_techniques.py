"""Figure 10 — query techniques for window queries (cluster org).

Paper shape: for the small cluster units of A-1 all techniques are
within ~12 % of the optimum; for C-1's large units the threshold
technique saves ~15 % and the SLM technique ~27 % on the most selective
queries (optimum: 35 %); from 0.1 % window area upward there is no
significant difference.
"""

from __future__ import annotations


def per_technique(row: dict) -> dict[str, float]:
    return {c.split()[0]: v for c, v in row.items() if c.endswith("(ms/4KB)")}


def test_fig10_techniques(run_figure):
    rows = run_figure("fig10", "fig10_techniques", series=("A-1", "C-1"))
    by_key = {(r["series"], r["window area"]): per_technique(r) for r in rows}

    for key, per in by_key.items():
        assert per["optimum"] <= min(per.values()) + 1e-9, key

    # C-1, most selective queries: SLM saves clearly over complete.
    per = by_key["C-1", "0.001%"]
    assert per["slm"] < 0.95 * per["complete"]
    assert per["threshold"] <= per["complete"] * 1.02

    # Large windows: no significant difference between the techniques.
    for series in ("A-1", "C-1"):
        per = by_key[series, "10%"]
        assert max(per.values()) < 1.3 * min(per.values()), (series, per)
