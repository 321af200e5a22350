"""Ablation — admission control and the tiered page store (PR 5).

Two experiments at the scheduler/pagestore seam:

* **Admission.**  An interactive client (many small windows) and an
  analytics client (few full-space scans) run as interleaved sessions
  over a 4-disk store under the overlap scheduler.  ``priority``
  admission paces the analytics client's dispatch with a stingy token
  bucket; the gap-aware virtual clock lets the interactive operations
  back-fill the idle intervals the paced bulk work leaves behind.
  Acceptance: the interactive p95 latency and queueing delay drop
  below the unadmitted baseline at **bit-identical device time** (the
  priced calls never change — admission only moves virtual dispatch).
* **Tiering.**  A skewed window workload (90 % of the queries hammer a
  hot corner placed away from the construction order's first touches)
  runs over the two-tier store under each migration policy, with a
  fast tier deliberately smaller than the dataset.  Acceptance:
  ``promote-on-hit`` beats ``static`` first-touch placement on both
  device and response time — access statistics find the hot set,
  first-touch cannot.
"""

from __future__ import annotations

import random

from repro.eval.report import format_rows
from repro.eval.scenarios import build_database
from repro.iosched.admission import PriorityAdmission

from benchmarks.conftest import once

FAST_PAGES = 256
MIGRATIONS = ("none", "static", "promote-on-hit", "lru-demote")


def admission_streams(ctx, series):
    """An interactive client (50 small windows) and an analytics client
    (10 full-space scans)."""
    bound = ctx.dataset(series).bound
    rng = random.Random(ctx.config.seed + 3)
    ui = []
    for _ in range(50):
        x = rng.uniform(0.0, 0.9 * bound)
        y = rng.uniform(0.0, 0.9 * bound)
        ui.append(("window", x, y, x + 0.06 * bound, y + 0.06 * bound))
    batch = [("window", 0.0, 0.0, bound, bound)] * 10
    return {"ui": ui, "batch": batch}


def skewed_queries(ctx, series, n_queries=150, hot_every=10):
    """90 % of the windows target a hot corner far from the origin —
    the construction order's first-touch pages do *not* cover it."""
    bound = ctx.dataset(series).bound
    rng = random.Random(ctx.config.seed + 23)
    queries = []
    for i in range(n_queries):
        if i % hot_every != hot_every - 1:
            x = rng.uniform(0.75 * bound, 0.88 * bound)
            y = rng.uniform(0.75 * bound, 0.88 * bound)
        else:
            x = rng.uniform(0.0, 0.9 * bound)
            y = rng.uniform(0.0, 0.9 * bound)
        size = 0.05 * bound
        queries.append((x, y, x + size, y + size))
    return queries


def run_admission(ctx, series="A-1"):
    rows = []
    for admission in ("none", "priority"):
        db = build_database(
            ctx.dataset(series),
            n_disks=4,
            scheduler="overlap",
            construction_buffer_pages=ctx.config.construction_buffer_pages,
        )
        policy = None
        if admission == "priority":
            policy = PriorityAdmission(
                classes={"batch": "analytics"}, rate=0.25, burst_ms=10.0
            )
        report = db.run_sessions(
            admission_streams(ctx, series), buffer_pages=64, admission=policy
        )
        ui = report.client("ui")
        batch = report.client("batch")
        rows.append(
            {
                "admission": admission,
                "device (s)": report.total_io.total_ms / 1000.0,
                "ui p95 (ms)": ui.p95_ms,
                "ui queue (s)": ui.queueing_ms / 1000.0,
                "batch p95 (ms)": batch.p95_ms,
                "makespan (s)": report.makespan_ms / 1000.0,
            }
        )
    return rows


def run_tiering(ctx, series="A-1"):
    queries = skewed_queries(ctx, series)
    rows = []
    for migration in MIGRATIONS:
        db = build_database(
            ctx.dataset(series),
            tiering=None if migration == "none" else migration,
            fast_pages=FAST_PAGES,
            construction_buffer_pages=ctx.config.construction_buffer_pages,
        )
        mark = db.disk.snapshot()
        answers = 0
        for window in queries:
            answers += len(db.window_query(*window).objects)
        cost = db.disk.cost_since(mark)
        tiered = db.tiering != "none"
        rows.append(
            {
                "migration": migration,
                "device (s)": cost.total_ms / 1000.0,
                "response (s)": cost.response_ms / 1000.0,
                "promotions": db.disk.promotions if tiered else 0,
                "demotions": db.disk.demotions if tiered else 0,
                "answers": answers,
            }
        )
    return rows


def test_admission_tiering(ctx, benchmark, record_table):
    """Acceptance: priority admission cuts the interactive client's p95
    latency at identical device time; promote-on-hit tiering beats
    static placement on the skewed workload."""

    def run():
        return run_admission(ctx), run_tiering(ctx)

    admission_rows, tiering_rows = once(benchmark, run)

    parts = [
        format_rows(
            "Ablation — priority admission (A-1, interactive + analytics "
            "clients, 4 disks, 64-page pool)",
            admission_rows,
        ),
        format_rows(
            "Ablation — tiered page store "
            f"(A-1, skewed windows, {FAST_PAGES}-page fast tier)",
            tiering_rows,
        ),
    ]
    record_table("ablation_admission_tiering", "\n\n".join(parts))

    by_admission = {r["admission"]: r for r in admission_rows}
    none, priority = by_admission["none"], by_admission["priority"]
    # Admission never changes what is priced: device time is identical.
    assert priority["device (s)"] == none["device (s)"]
    # The acceptance bar: the interactive tail and queueing delay drop.
    assert priority["ui p95 (ms)"] < none["ui p95 (ms)"]
    assert priority["ui queue (s)"] < none["ui queue (s)"]
    # The flip side: the paced analytics client waits longer.
    assert priority["batch p95 (ms)"] > none["batch p95 (ms)"]

    by_migration = {r["migration"]: r for r in tiering_rows}
    static, promote = by_migration["static"], by_migration["promote-on-hit"]
    # Migration policies never change answers.
    assert len({r["answers"] for r in tiering_rows}) == 1
    # The acceptance bar: access-driven promotion beats first-touch
    # placement on both device and response time.
    assert promote["device (s)"] < static["device (s)"]
    assert promote["response (s)"] < static["response (s)"]
    assert promote["promotions"] > 0 and static["promotions"] == 0
    # And any tier beats the flat single disk on this hot workload.
    assert static["device (s)"] < by_migration["none"]["device (s)"]
