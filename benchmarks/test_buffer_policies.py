"""Ablation — replacement policies of the shared buffer pool.

Beyond the paper: the reproduction's buffer pool accepts pluggable
replacement policies (LRU / CLOCK / FIFO / LRU-K).  This ablation runs
the Sequoia-style mixed query workload of Sections 5.4/5.5 — window
queries whose centers follow the MBR distribution, plus point queries
on the window centers — through one shared pool per policy and compares
hit rates and total I/O.

Expected shape: the recency-based policies (LRU, CLOCK, LRU-K) track
the workload's spatial locality and end up within a few points of each
other, with FIFO trailing; every policy returns identical answers, the
pool only changes pricing.
"""

from __future__ import annotations

from repro.buffer.policy import POLICIES
from repro.buffer.pool import BufferPool
from repro.core.organization import ClusterOrganization
from repro.core.policy import ClusterPolicy
from repro.eval.config import ExperimentConfig
from repro.eval.context import ExperimentContext
from repro.eval.report import format_rows

from benchmarks.conftest import once


def _run_policy(org, pool, windows, points):
    answers = 0
    before = org.disk.stats()
    with org.use_pool(pool):
        for window in windows:
            answers += len(org.window_query(window).objects)
        for x, y in points:
            answers += len(org.point_query(x, y).objects)
    io = org.disk.stats() - before
    return answers, io, pool.hit_rate


def run_buffer_policy_ablation(buffer_pages: int = 400):
    # Its own context: this ablation caps the scale at 0.04.
    ctx = ExperimentContext(
        ExperimentConfig(scale=min(0.04, ExperimentConfig().scale))
    )
    org = ClusterOrganization(
        policy=ClusterPolicy(ctx.config.spec("A-1").smax_bytes),
        region_prefix="ablation",
    )
    org.build(ctx.objects("A-1"))
    windows, points = ctx.windows("A-1", 1e-3), ctx.points("A-1", 1e-3)

    rows, hits = [], {}
    for policy in POLICIES:
        pool = BufferPool(org.disk, capacity=buffer_pages, policy=policy)
        answers, io, hits[policy] = _run_policy(org, pool, windows, points)
        rows.append(
            {
                "policy": policy,
                "answers": answers,
                "hit rate": f"{hits[policy]:.1%}",
                "requests": io.requests,
                "io ms": io.total_ms,
            }
        )
    return rows, hits


def test_buffer_policy_ablation(benchmark, record_table):
    rows, hits = once(benchmark, run_buffer_policy_ablation)
    record_table(
        "ablation_buffer_policy",
        format_rows(
            "Ablation — buffer replacement policies "
            "(mixed window+point workload, shared 400-page pool)",
            rows,
        ),
    )
    assert set(hits) == set(POLICIES)

    # The pool changes pricing, never answers.
    assert len({row["answers"] for row in rows}) == 1

    for row in rows:
        assert 0.0 <= hits[row["policy"]] <= 1.0, row
        assert row["requests"] > 0 and row["io ms"] > 0, row

    # Warm queries must beat the cold pass-through pricing: every
    # policy's hit rate is well above zero on the clustered workload.
    assert min(hits.values()) > 0.2

    # Recency-aware LRU never loses to plain FIFO on this workload.
    assert hits["lru"] >= hits["fifo"] - 0.02
