"""Wall-clock overhead budget of the *disabled* observability layer.

The tracer guards on the hot path are one module-global load plus an
identity test (``if _obs.ACTIVE is not None``) in
:meth:`DiskModel._transfer` / :meth:`DiskModel.charge` and one in
:meth:`SyncScheduler.execute`.  This benchmark measures what those
guards cost when tracing is off (the default) by racing the real
classes against ``Bare*`` subclasses whose pricing bodies are replicas
with the guard deleted.

The comparison is wall-clock and therefore noisy on shared CI
machines, so the <2% budget is only *asserted* when
``REPRO_OBS_OVERHEAD_STRICT=1`` is set (the CI observability smoke
sets it in a non-blocking step); otherwise a loose sanity bound keeps
the test deterministic.  What is always asserted: pricing with the
guards present (and tracing disabled) is bit-identical to pricing
without them.
"""

from __future__ import annotations

import os
import statistics
import time

from repro.data.tiger import generate_map
from repro.data.workload import window_workload
from repro.database import Layout, SpatialDatabase
from repro.disk.allocator import PageAllocator
from repro.disk.model import DiskModel
from repro.iosched.scheduler import SyncScheduler
from repro.obs.metrics import MetricsRegistry


class BareDisk(DiskModel):
    """The disk model with the tracer guards stripped from pricing."""

    __slots__ = ()

    def _transfer(self, start, npages, continuation, kind):
        from repro.disk.model import DiskError

        if npages <= 0:
            raise DiskError(f"cannot transfer {npages} pages")
        if start < 0:
            raise DiskError(f"negative page number {start}")
        p = self.params
        sequential = self._head is not None and start == self._head
        if sequential:
            cost = p.sequential_ms(npages)
            self._stats.transfer_ms += npages * p.transfer_ms
        elif continuation:
            cost = p.continuation_ms(npages)
            self._stats.rotations += 1
            self._stats.latency_ms += p.latency_ms
            self._stats.transfer_ms += npages * p.transfer_ms
        else:
            cost = p.random_access_ms(npages)
            self._stats.seeks += 1
            self._stats.rotations += 1
            self._stats.seek_ms += p.seek_ms
            self._stats.latency_ms += p.latency_ms
            self._stats.transfer_ms += npages * p.transfer_ms
        self._stats.requests += 1
        self._stats.pages_transferred += npages
        self._head = start + npages
        return cost

    def charge(self, seeks=0, rotations=0, pages=0):
        from repro.disk.model import DiskError

        if min(seeks, rotations, pages) < 0:
            raise DiskError("cannot charge negative cost components")
        p = self.params
        self._stats.seeks += seeks
        self._stats.rotations += rotations
        self._stats.pages_transferred += pages
        self._stats.seek_ms += seeks * p.seek_ms
        self._stats.latency_ms += rotations * p.latency_ms
        self._stats.transfer_ms += pages * p.transfer_ms
        if seeks or rotations or pages:
            self._stats.requests += 1
        return seeks * p.seek_ms + rotations * p.latency_ms + pages * p.transfer_ms


class BareSync(SyncScheduler):
    """The sync scheduler without the tracer dispatch check."""

    def execute(self, plan, pool):
        return self._run(plan, pool)


def _build(ctx, bare: bool) -> SpatialDatabase:
    spec = ctx.config.spec("A-1")
    objects = generate_map(spec, seed=ctx.config.seed)
    if bare:
        # The bare disk is no constructor knob: hand the parts to the
        # entry attach and the catalog loader build through.
        db = SpatialDatabase._from_parts(
            Layout(smax_bytes=spec.smax_bytes),
            "db",
            BareDisk(),
            PageAllocator(),
            BareSync(),
            None,
            MetricsRegistry(),
        )
    else:
        db = SpatialDatabase(smax_bytes=spec.smax_bytes)
    db.build(objects)
    return db


def test_disabled_tracing_overhead_within_budget(ctx):
    spec = ctx.config.spec("A-1")
    objects = generate_map(spec, seed=ctx.config.seed)
    windows = window_workload(
        objects, 1e-3, n_queries=80, seed=ctx.config.seed + 11
    )

    guarded = _build(ctx, bare=False)
    bare = _build(ctx, bare=True)

    def sweep(db) -> float:
        begin = time.perf_counter()
        for window in windows:
            db.storage.window_query(window)
        return time.perf_counter() - begin

    # Warm both, then interleave the repeats so clock drift and cache
    # state hit both variants evenly.
    sweep(guarded)
    sweep(bare)
    guarded_times, bare_times = [], []
    for _ in range(5):
        guarded_times.append(sweep(guarded))
        bare_times.append(sweep(bare))

    # Pricing must be bit-identical: the guard never changes costs.
    assert guarded.disk.total_ms == bare.disk.total_ms

    ratio = statistics.median(guarded_times) / statistics.median(bare_times)
    print(
        f"\ndisabled-tracing overhead: guarded/bare wall-clock ratio "
        f"{ratio:.4f} (budget 1.02 strict)"
    )
    if os.environ.get("REPRO_OBS_OVERHEAD_STRICT") == "1":
        assert ratio < 1.02, (
            f"disabled tracing costs {100 * (ratio - 1):.2f}% wall clock; "
            "budget is 2%"
        )
    else:
        # Loose sanity bound only — wall-clock assertions flake on busy
        # machines, so the strict budget is enforced by the CI smoke.
        assert ratio < 1.5
