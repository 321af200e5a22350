"""I/O pipeline ablation: overlapped (async-simulated) scheduling and
prefetching over the declustered page store.

Where ``test_pagestore_decluster.py`` prices one serial query stream
against the sharded store (response = per-query max over the disks),
this ablation runs **two interleaved client sessions** through the
request-based I/O pipeline of :mod:`repro.iosched`:

* ``sync`` — every access plan executes immediately; the workload's
  makespan is the serial sum of the per-operation max-over-disks
  responses (PR 2's pricing model);
* ``overlap`` — the same priced requests, additionally timed on the
  virtual clock: an operation's plans dispatch asynchronously at its
  start, queue per disk, and overlap across the clients, so disks
  service different sessions concurrently;
* ``overlap`` + ``cluster`` prefetch — the cluster-unit-aware
  read-ahead rides along on the non-blocking plan path.

Device time must not move between sync and overlap (the schedulers
issue identical priced calls); the makespan must drop on four disks.
"""

from __future__ import annotations

from repro.eval.report import format_rows
from repro.eval.scenarios import build_database, run_client_pair

from benchmarks.conftest import once

CONFIGS = [
    # (n_disks, scheduler, prefetch)
    (1, "sync", "none"),
    (1, "overlap", "none"),
    (4, "sync", "none"),
    (4, "overlap", "none"),
    (4, "overlap", "cluster"),
]


def test_iosched_overlap(ctx, benchmark, record_table):
    """Acceptance: on 4 disks the overlapped concurrent workload's
    response time (makespan) drops below the sync baseline at
    bit-identical device time."""

    def run():
        rows = []
        baseline_results = None
        data = ctx.dataset("A-1")
        for n_disks, scheduler, prefetch in CONFIGS:
            # The `eval iosched` scenario at the figures' construction buffer.
            db = build_database(
                data,
                n_disks=n_disks,
                placement="spatial",
                scheduler=scheduler,
                prefetch=prefetch,
                construction_buffer_pages=ctx.config.construction_buffer_pages,
            )
            report = run_client_pair(db, data, queries=40, buffer_pages=400)
            results = sum(p.results for p in report.phases)
            if baseline_results is None:
                baseline_results = results
            rows.append(
                {
                    "disks": n_disks,
                    "scheduler": scheduler,
                    "prefetch": prefetch,
                    "hit rate": f"{report.hit_rate:.1%}",
                    "device (s)": report.total_io.total_ms / 1000.0,
                    "client resp (s)": report.total_response_ms / 1000.0,
                    "makespan (s)": report.makespan_ms / 1000.0,
                    "answers ok": results == baseline_results,
                }
            )
        return rows

    rows = once(benchmark, run)
    record_table(
        "ablation_iosched_overlap",
        format_rows(
            "Ablation — overlapped I/O scheduling & prefetching "
            "(A-1, 2 interleaved clients, 400-page pool)",
            rows,
        ),
    )
    by_config = {(r["disks"], r["scheduler"], r["prefetch"]): r for r in rows}
    # Interleaving and scheduling never change answers.
    assert all(r["answers ok"] for r in rows)
    # The schedulers issue identical priced calls: device time matches
    # exactly between sync and overlap (same disks, no prefetch).
    for n_disks in (1, 4):
        assert (
            by_config[(n_disks, "sync", "none")]["device (s)"]
            == by_config[(n_disks, "overlap", "none")]["device (s)"]
        )
    # One arm cannot overlap with itself: the single-disk makespan
    # stays at the device time.
    single = by_config[(1, "overlap", "none")]
    assert single["makespan (s)"] >= single["device (s)"] * 0.999
    # The acceptance bar: 4 disks + overlap beat the sync baseline's
    # response time.
    sync4 = by_config[(4, "sync", "none")]
    overlap4 = by_config[(4, "overlap", "none")]
    assert overlap4["makespan (s)"] < sync4["makespan (s)"]
