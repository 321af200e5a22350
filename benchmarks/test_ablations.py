"""Ablation benchmarks for the design decisions README.md's
architecture map calls out.

These go beyond the paper's figures: each ablation isolates one design
choice of the cluster organization and quantifies it.

* ``Smax`` factor — the 1.5 in ``Smax = 1.5 * M * S_obj``;
* leaf-level forced reinsert — Section 4.2.1 switches it off because a
  reinsertion physically moves objects between cluster units;
* buddy size-set cardinality — the paper restricts the buddy system to
  3 sizes; what do 1, 2, 4 buy?
* SLM gap length — the read-schedule rule ``l = tl/tt - 1/2``.

(Multi-disk declustering, the Section 7 outlook, runs on the live stack
in ``test_pagestore_decluster.py``.)
"""

from __future__ import annotations

from repro.core.organization import ClusterOrganization
from repro.core.policy import ClusterPolicy
from repro.core.techniques import slm_schedule
from repro.disk.params import DiskParameters
from repro.eval.metrics import run_window_queries
from repro.eval.report import format_rows

from benchmarks.conftest import once


def build_cluster(ctx, series, smax_bytes=None, buddy_sizes=None,
                  leaf_reinsert=False, order="insertion"):
    spec = ctx.config.spec(series)
    org = ClusterOrganization(
        policy=ClusterPolicy(
            smax_bytes or spec.smax_bytes, buddy_sizes=buddy_sizes
        ),
        leaf_reinsert=leaf_reinsert,
        construction_buffer_pages=ctx.config.construction_buffer_pages,
    )
    org.build(ctx.objects(series), order=order)
    return org


def test_ablation_smax_factor(ctx, benchmark, record_table):
    """The cluster-size rule: vary the 1.5 factor.

    Expected: with the complete-read technique, query cost is fairly
    insensitive to the cluster size (the paper's Section 5.4.4 point),
    while storage (fixed units) grows with Smax.
    """

    def run():
        rows = []
        spec = ctx.config.spec("B-1")
        windows = ctx.windows("B-1", 1e-3)
        for factor in (0.5, 1.0, 1.5, 3.0):
            smax_pages = max(2, int(spec.smax_bytes / 4096 * factor / 1.5))
            org = build_cluster(ctx, "B-1", smax_bytes=smax_pages * 4096)
            agg = run_window_queries(org, windows)
            rows.append(
                {
                    "Smax factor": factor,
                    "unit pages": smax_pages,
                    "occupied pages": org.occupied_pages(),
                    "construction (s)": org.construction_io.total_s,
                    "0.1% windows (ms/4KB)": agg.ms_per_4kb,
                }
            )
        return rows

    rows = once(benchmark, run)
    record_table(
        "ablation_smax_factor",
        format_rows("Ablation — cluster size factor (B-1, complete reads)", rows),
    )
    costs = [r["0.1% windows (ms/4KB)"] for r in rows]
    # Query performance varies far less than the 6x size sweep.
    assert max(costs) < 3.0 * min(costs)


def test_ablation_leaf_reinsert(ctx, benchmark, record_table):
    """Section 4.2.1's second modification: forced reinsert on the data
    page level moves objects between cluster units and must hurt
    construction while buying little at query time."""

    def run():
        rows = []
        windows = ctx.windows("A-1", 1e-3)
        for reinsert in (False, True):
            org = build_cluster(ctx, "A-1", leaf_reinsert=reinsert)
            agg = run_window_queries(org, windows)
            rows.append(
                {
                    "leaf reinsert": "on" if reinsert else "off (paper)",
                    "construction (s)": org.construction_io.total_s,
                    "data pages": org.tree.leaf_count,
                    "0.1% windows (ms/4KB)": agg.ms_per_4kb,
                }
            )
        return rows

    off, on = rows = once(benchmark, run)
    record_table(
        "ablation_leaf_reinsert",
        format_rows("Ablation — forced reinsert on the data-page level (A-1)", rows),
    )
    # Reinserting costs construction I/O (it moves objects) ...
    assert on["construction (s)"] > off["construction (s)"]
    # ... while query cost stays in the same ballpark.
    assert off["0.1% windows (ms/4KB)"] < 1.4 * on["0.1% windows (ms/4KB)"]


def test_ablation_buddy_sizes(ctx, benchmark, record_table):
    """How many buddy sizes are worth having?  The paper uses 3."""

    def run():
        rows = []
        for sizes in (None, 2, 3, 5):
            org = build_cluster(ctx, "B-1", buddy_sizes=sizes)
            rows.append(
                {
                    "buddy sizes": "fixed" if sizes is None else str(sizes),
                    "occupied pages": org.occupied_pages(),
                    "construction (s)": org.construction_io.total_s,
                    "moves": org.unit_moves,
                }
            )
        return rows

    rows = once(benchmark, run)
    record_table(
        "ablation_buddy_sizes",
        format_rows("Ablation — buddy size-set cardinality (B-1)", rows),
    )
    pages = [r["occupied pages"] for r in rows]
    # More buddy sizes monotonically improve utilization...
    assert pages[0] >= pages[1] >= pages[2] >= pages[3]
    # ...with bounded extra construction cost.
    assert rows[-1]["construction (s)"] < 1.5 * rows[0]["construction (s)"]


def test_ablation_slm_gap(ctx, benchmark, record_table):
    """The SLM gap rule: plan the same request sets with different gap
    lengths and compare the planned read cost.  The paper's
    ``l = tl/tt - 1/2 = 5.5`` should be near the sweet spot."""

    params = DiskParameters()

    def planned_cost(requested: list[int], gap: int) -> float:
        runs = slm_schedule(requested, gap)
        cost = 0.0
        for i, (_start, npages) in enumerate(runs):
            cost += (
                params.random_access_ms(npages)
                if i == 0
                else params.continuation_ms(npages)
            )
        return cost

    def run():
        org = build_cluster(ctx, "C-1")
        request_sets: list[list[int]] = []
        for window in ctx.windows("C-1", 1e-4):
            for leaf, hits in org.tree.window_leaves(window):
                unit = leaf.tag
                if unit is None:
                    continue
                oids = [
                    leaf.entries[i].oid for i in hits.tolist()
                    if org.extent_of(leaf.entries[i].oid) is None
                ]
                if oids:
                    request_sets.append(unit.requested_pages(oids))
        rows = []
        for gap in (1, 2, 4, 6, 12, 24):
            total = sum(planned_cost(req, gap) for req in request_sets)
            rows.append(
                {"gap l (pages)": gap, "planned read cost (s)": total / 1000.0}
            )
        return rows

    rows = once(benchmark, run)
    record_table(
        "ablation_slm_gap",
        format_rows(
            "Ablation — SLM gap length over C-1 0.01% window requests "
            "(paper rule: l = 6)",
            rows,
        ),
    )
    costs = {r["gap l (pages)"]: r["planned read cost (s)"] for r in rows}
    # The paper's gap is within a few percent of the best swept value.
    assert costs[6] <= 1.05 * min(costs.values())


def test_ablation_hilbert_loading(ctx, benchmark, record_table):
    """Extension: insert in Hilbert order ([HSW88]/[HWZ91]'s global
    order) instead of the paper's unsorted insertion.  Expected:
    construction I/O drops sharply (consecutive inserts hit
    neighbouring data pages and unit tails) at equal query quality."""

    def run():
        rows = []
        windows = ctx.windows("A-1", 1e-3)
        for order in ("insertion", "hilbert"):
            org = build_cluster(ctx, "A-1", order=order)
            agg = run_window_queries(org, windows)
            rows.append(
                {
                    "insert order": order,
                    "construction (s)": org.construction_io.total_s,
                    "occupied pages": org.occupied_pages(),
                    "0.1% windows (ms/4KB)": agg.ms_per_4kb,
                }
            )
        return rows

    plain, hilbert = rows = once(benchmark, run)
    record_table(
        "ablation_hilbert_loading",
        format_rows(
            "Extension — Hilbert-ordered bulk loading (A-1, cluster org)", rows
        ),
    )
    # construction clearly cheaper
    assert hilbert["construction (s)"] < 0.8 * plain["construction (s)"]
    # queries no worse than ~noise
    assert hilbert["0.1% windows (ms/4KB)"] < 1.3 * plain["0.1% windows (ms/4KB)"]


def test_ablation_adaptive_technique(ctx, benchmark, record_table):
    """Extension: the adaptive technique (exact candidate counts) vs
    the paper's geometric threshold, across window sizes on A-1 — the
    series where the geometric estimator misfires (see
    ``benchmarks/results/fig10_techniques.txt``)."""

    def run():
        org = build_cluster(ctx, "A-1")
        rows = []
        for area in (1e-5, 1e-4, 1e-3, 1e-2):
            windows = ctx.windows("A-1", area)
            row = {"window area": f"{area * 100:g}%"}
            for technique in ("complete", "threshold", "adaptive", "optimum"):
                org.technique = technique
                row[technique] = run_window_queries(org, windows).ms_per_4kb
            org.technique = "complete"
            rows.append(row)
        return rows

    rows = once(benchmark, run)
    record_table(
        "ablation_adaptive_technique",
        format_rows(
            "Extension — adaptive read technique vs geometric threshold "
            "(A-1, ms/4KB)",
            rows,
        ),
    )
    for row in rows:
        # The adaptive decision never loses to either baseline...
        assert row["adaptive"] <= min(row["complete"], row["threshold"]) * 1.05
        # ...and respects the lower bound.
        assert row["optimum"] <= row["adaptive"] * 1.001
