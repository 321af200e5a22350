"""Ablation — background reorganization as a paced workload (PR 10).

A cluster database is degraded by online deletes: dead space
accumulates in the cluster units (compaction is lazy), so every window
query drags dead pages along.  The same foreground traffic then runs
twice over the overlap scheduler with priority admission — once
without and once with interleaved ``ana-reorg-`` sessions, each one
:class:`~repro.reorg.Reorganizer` round moving a bounded page budget
through priced write plans.

Acceptance: paced reorganization recovers at least **half** the
clustering-quality gap (live fraction of the pages a unit scan pays
for) while the foreground interactive p95 stays within **1.5x** of the
no-reorg baseline — background repair must not starve the foreground.
"""

from __future__ import annotations

from repro.eval.report import format_rows
from repro.eval.scenarios import reorg_runs

from benchmarks.conftest import once

SESSIONS = 1200
DELETE_FRACTION = 0.5  # every other object
BUDGET_PAGES = 64
ROUNDS = 40


def run_reorg_ablation(ctx, series="A-1"):
    """The `eval reorg` scenario at this ablation's sizes."""
    rows = []
    for with_reorg, _db, reorganizer, report, degraded in reorg_runs(
        ctx.dataset(series),
        sessions=SESSIONS,
        rate=200.0,
        buffer_pages=512,
        delete_fraction=DELETE_FRACTION,
        budget_pages=BUDGET_PAGES,
        rounds=ROUNDS,
        n_disks=4,
        construction_buffer_pages=ctx.config.construction_buffer_pages,
    ):
        inter = report.traffic_class("interactive")
        rows.append(
            {
                "run": "with reorg" if with_reorg else "no reorg",
                "quality degraded": round(degraded, 4),
                "quality after": round(reorganizer.quality(), 4),
                "moved pages": reorganizer.moved_pages,
                "rounds": reorganizer.runs,
                "int p95 (ms)": inter.p95_ms if inter else 0.0,
                "makespan (s)": report.makespan_ms / 1000.0,
            }
        )
    return rows


def test_reorg_recovery(ctx, benchmark, record_table):
    """Acceptance: paced reorganization recovers >= half the
    clustering-quality gap at <= 1.5x foreground p95 interference."""
    rows = once(benchmark, lambda: run_reorg_ablation(ctx))

    record_table(
        "ablation_reorg",
        format_rows(
            "Ablation — background reorganization "
            f"(A-1, {SESSIONS} sessions, 4 disks, priority "
            f"admission, {ROUNDS} rounds x {BUDGET_PAGES} pages)",
            rows,
        ),
    )

    by_run = {r["run"]: r for r in rows}
    base, reorg = by_run["no reorg"], by_run["with reorg"]
    # Both runs degrade identically before the traffic.
    assert reorg["quality degraded"] == base["quality degraded"]
    # Without reorganization the dead space stays.
    assert base["quality after"] == base["quality degraded"]
    assert base["moved pages"] == 0
    # The acceptance bar: at least half the quality gap recovered ...
    gap = 1.0 - reorg["quality degraded"]
    assert gap > 0.0
    assert reorg["quality after"] - reorg["quality degraded"] >= 0.5 * gap
    assert reorg["moved pages"] > 0
    # ... with bounded foreground interference.
    assert reorg["int p95 (ms)"] <= 1.5 * base["int p95 (ms)"]
