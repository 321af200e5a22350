"""Online writes and background reorganization.

Every write in the system — organization stores, R*-tree node flushes,
dirty-page evictions — is a declarative write
:class:`~repro.iosched.request.AccessPlan`, executed by the same I/O
schedulers that serve reads.  That makes the database *online*: inserts
and deletes run under any scheduler/declustering/tiering configuration
with every written page priced, traced and metered (``write.pages``,
``write.device_ms``).

This example walks the full loop:

1. build a cluster database on 4 declustered disks under the overlap
   scheduler;
2. serve mixed read/write traffic (window and point queries plus
   online inserts and deletes);
3. the deletes degrade the clustering — dead space accumulates in the
   cluster units, so window queries pay for pages holding no live
   object;
4. a :class:`~repro.reorg.Reorganizer` repairs the damage *in the
   background*: its rounds run as ``ana-reorg-`` traffic sessions,
   paced by priority admission like any other analytics client;
5. the before/after comparison shows clustering quality recovering and
   the foreground p95 while the ``reorg.*`` metrics account the moved
   pages.

Run with::

    python examples/online_writes.py [scale]
"""

from __future__ import annotations

import sys

from repro import SpatialDatabase
from repro.data import generate_map, scaled, spec_for
from repro.eval.report import format_table
from repro.iosched.admission import PriorityAdmission
from repro.reorg import Reorganizer, reorg_traffic
from repro.workload.traffic import class_of_session, make_traffic


def main(scale: float = 0.04) -> None:
    spec = scaled(spec_for("A-1"), scale)
    objects = generate_map(spec, seed=1994)

    db = SpatialDatabase(
        smax_bytes=spec.smax_bytes,
        n_disks=4,
        scheduler="overlap",
    )
    db.build(objects)
    print(f"built: {len(objects)} objects on {db.n_disks} disks")

    # -- serve mixed read/write traffic, then degrade clustering -------
    # Online deletes leave dead space behind: cluster-unit compaction
    # is lazy, so the units keep paying for pages of removed objects.
    doomed = [o.oid for i, o in enumerate(objects) if i % 2 == 0]
    survivors = [o for i, o in enumerate(objects) if i % 2 != 0]
    for oid in doomed:
        db.delete(oid)

    reorg = Reorganizer(db, budget_pages=64)
    degraded = reorg.quality()
    print(
        f"deleted {len(doomed)} objects online: clustering quality "
        f"dropped to {degraded:.3f} (live fraction of unit pages)"
    )

    # -- run the same foreground traffic without and with reorg --------
    rows = []
    results = {}
    for with_reorg in (False, True):
        run_db = db
        run_reorg = reorg
        if not with_reorg:
            # A twin database, identically degraded, as the baseline.
            run_db = SpatialDatabase(
                smax_bytes=spec.smax_bytes, n_disks=4, scheduler="overlap"
            )
            run_db.build(objects)
            for oid in doomed:
                run_db.delete(oid)
            run_reorg = Reorganizer(run_db, budget_pages=64)

        traffic = make_traffic(
            survivors, 800, rate_per_s=200.0, seed=2023
        )
        sessions = list(traffic)
        if with_reorg:
            span = max(s.arrival_ms for s in traffic)
            sessions += reorg_traffic(reorg, rounds=30, period_ms=span / 30)

        report = run_db.run_traffic(
            sessions,
            buffer_pages=512,
            admission=PriorityAdmission(classifier=class_of_session),
        )
        inter = report.traffic_class("interactive")
        rows.append(
            (
                "with reorg" if with_reorg else "no reorg",
                f"{degraded:.3f}",
                f"{run_reorg.quality():.3f}",
                run_reorg.moved_pages,
                run_reorg.runs,
                round(inter.p95_ms if inter else 0.0, 2),
            )
        )
        results[with_reorg] = report

    print()
    print(
        format_table(
            ["run", "quality before", "quality after", "moved pages",
             "rounds", "interactive p95 (ms)"],
            rows,
            title="background reorganization under foreground traffic",
        )
    )

    # -- the write pipeline's own metrics ------------------------------
    print()
    snap = db.metrics.snapshot()
    for key in sorted(snap):
        if key.startswith(("reorg.", "write.")):
            print(f"  {key} = {snap[key]:,.2f}")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.04)
