"""Declustering ablation: the sharded page store behind the buffer pool.

The Section 7 outlook (multi-disk parallel cluster organizations) run on
the live stack: ``SpatialDatabase(n_disks=..., placement=...)``, where
the whole storage path (construction, R*-tree pager, unit and oversize
transfers) runs over the sharded store and cluster units are
declustered by the Hilbert-on-extent placement at allocation time.

Reported per configuration: window-query device time (summed over the
disks), response time (per query the busiest disk, i.e. the paper's
parallel execution model) and the achieved parallelism.
"""

from __future__ import annotations

from repro.eval.report import format_rows
from repro.eval.scenarios import build_database, measure_windows

from benchmarks.conftest import once


def test_pagestore_declustering(ctx, benchmark, record_table):
    """Section 7, system-wide: 1% window queries over 1-8 disks with the
    three placement policies; spatial (Hilbert-on-extent) placement must
    deliver > 1.5x parallelism on 4 disks."""

    windows = ctx.windows("A-1", 1e-2)
    configs = [
        (1, "spatial"),
        (2, "spatial"),
        (4, "round_robin"),
        (4, "hash"),
        (4, "spatial"),
        (8, "spatial"),
    ]

    def run():
        rows = []
        baseline_answers = None
        for n_disks, placement in configs:
            # The `eval pagestore` scenario at the figures' windows and
            # construction buffer.
            db = build_database(
                ctx.dataset("A-1"),
                n_disks=n_disks,
                placement=placement,
                construction_buffer_pages=ctx.config.construction_buffer_pages,
            )
            device, response, answers = measure_windows(db, windows)
            if baseline_answers is None:
                baseline_answers = answers
            label = placement if n_disks > 1 else "(single disk)"
            rows.append(
                {
                    "disks": n_disks,
                    "placement": label,
                    "device (s)": device / 1000.0,
                    "response (s)": response / 1000.0,
                    "parallelism": device / response if response else 1.0,
                    "answers ok": answers == baseline_answers,
                }
            )
        return rows

    rows = once(benchmark, run)
    record_table(
        "ablation_pagestore_decluster",
        format_rows(
            "Ablation — sharded page store declustering "
            "(A-1, 1% windows, whole stack behind the pool)",
            rows,
        ),
    )
    by_config = {(r["disks"], r["placement"]): r for r in rows}
    response = {config: r["response (s)"] for config, r in by_config.items()}
    # Declustered execution never changes answers.
    assert all(r["answers ok"] for r in rows)
    # One disk: response time == device time.
    assert by_config[(1, "(single disk)")]["parallelism"] == 1.0
    # The acceptance bar: 4 disks + spatial placement parallelise the
    # window workload by more than 1.5x.
    spatial4 = by_config[(4, "spatial")]
    assert spatial4["parallelism"] > 1.5
    # More disks never hurt the response time.
    assert response[(4, "spatial")] <= response[(2, "spatial")] * 1.05
    assert response[(8, "spatial")] <= response[(4, "spatial")] * 1.05
    # Spatial placement beats the blind policies where it matters: the
    # response time clients observe (it also keeps units whole on one
    # disk, so its *device* time stays at the single-disk level while
    # chunk-striping tears units across seek boundaries).
    assert response[(4, "spatial")] <= response[(4, "round_robin")] * 1.05
    assert response[(4, "spatial")] <= response[(4, "hash")] * 1.05
    assert spatial4["device (s)"] <= by_config[(4, "round_robin")]["device (s)"]
