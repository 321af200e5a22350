"""Figure 17 — the complete three-step intersection join.

Paper shape: with the secondary organization the object transfer
dominates; the cluster organization slashes exactly that component
while MBR-join and exact-test costs stay put, so the complete join
speeds up by ~3.9× (version a) / ~4.3× (version b).
"""

from __future__ import annotations


def test_fig17_complete_join(run_figure):
    rows = run_figure("fig17", "fig17_complete_join")

    by_version: dict[str, dict[str, dict]] = {}
    for row in rows:
        by_version.setdefault(row["version"], {})[row["organization"]] = row

    for version, orgs in by_version.items():
        sec, clu = orgs["secondary"], orgs["cluster"]
        # The exact geometry test costs the same in both organizations.
        assert abs(sec["exact test (s)"] - clu["exact test (s)"]) < 1e-9
        # Global clustering slashes the object transfer…
        assert clu["obj transfer (s)"] < 0.5 * sec["obj transfer (s)"], version
        # …and the transfer dominates the secondary organization's cost.
        assert sec["obj transfer (s)"] > sec["MBR-join (s)"], version
        # Total speed-up in the paper's ballpark (>2x; paper ~4x).
        speedup = sec["total (s)"] / clu["total (s)"]
        assert speedup > 1.5, (version, speedup)
