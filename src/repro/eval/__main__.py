"""Run the full evaluation from the command line.

::

    python -m repro.eval [--scale 0.08] [--only fig8,fig12,...]
    python -m repro.eval workload [--policies lru,clock] [--scale 0.02] [--profile]
    python -m repro.eval pagestore [--disks 1,2,4,8] [--placements spatial]
    python -m repro.eval iosched [--schedulers sync,overlap] [--prefetch none,cluster]
                                 [--admission none,priority]
    python -m repro.eval traffic [--sessions 100000] [--arrival poisson] [--ablation]
    python -m repro.eval tiering [--migrations none,static,promote-on-hit,lru-demote]
    python -m repro.eval trace [--trace-out trace.json] [--metrics-out metrics.json]
    python -m repro.eval storage [--scale 0.02] [--path db.dat]
                                 [--report-out storage_report.json]
    python -m repro.eval reorg [--sessions 2000] [--budget-pages 64]
                               [--rounds 40] [--delete-fraction 0.5]

The default mode regenerates every table and figure of the paper in
sequence and prints the report tables; individual experiments can be
selected with ``--only`` (names: table1, fig5, fig6, fig7, fig8,
fig10, fig11, fig12, fig14, fig16, fig17).

The ``workload`` subcommand runs a batched mixed operation stream
(window queries, point queries, inserts, deletes and a spatial join)
through the shared buffer pool under one or more replacement policies
and prints per-phase I/O statistics and hit rates; ``--trace PATH``
makes the run replayable (records the stream to PATH, or replays PATH
if it already exists).

The ``pagestore`` subcommand measures the sharded multi-disk page
store: window-query device time, response time and achieved
parallelism across disk counts and declustering placements.

The ``iosched`` subcommand ablates the request-based I/O pipeline:
two client sessions run interleaved over a declustered store under
each (scheduler, prefetch, admission) combination, reporting device
time, summed client response, per-client queueing delay and p95
latency, workload makespan and the speed-up of overlapped asynchronous
service over the synchronous baseline.

The ``traffic`` subcommand generates arrival-process traffic —
open-loop Poisson/bursty/diurnal or closed-loop think-time sessions,
10^4-10^5 of them — over the overlap scheduler's virtual clock and
reports per-class (interactive/analytics) latency percentiles and
open-loop throughput; ``--ablation`` compares admission ``none`` vs
``priority`` at the base arrival rate and at 10x overload.

The ``tiering`` subcommand ablates the tiered page store: a skewed
window workload (most queries hammer a hot corner of the data space)
runs over each migration policy of the fast-tier/capacity-tier store
and reports device time, response time and the migration counters.

``--profile`` on the workload, iosched and tiering subcommands prints
the top cProfile entries of the run so perf work can find the next hot
spot, and ``--profile-out PATH`` additionally writes the raw pstats
dump for offline analysis (``python -m pstats PATH``, snakeviz, ...).

The ``trace`` subcommand runs a canonical two-client overlapped
workload with the :mod:`repro.obs` span tracer installed and writes a
Chrome trace-event / Perfetto JSON timeline (one track per client
session, one per disk arm; open it at https://ui.perfetto.dev) plus a
flattened metrics snapshot, then cross-checks the exported per-disk
span totals against the device time the :class:`DiskStats` accounting
measured.  The same artifacts can be captured from the workload,
iosched and tiering subcommands with ``--trace-out`` /
``--metrics-out``.

The ``storage`` subcommand exercises the durable file-backed page
store end to end: it saves a built database to a real single-file page
image, reopens it with ``backing="file"`` and cross-validates answers
and simulated pricing against the in-memory store (reporting measured
wall-clock alongside the simulated cost), then runs the crash
ablation — an incremental re-save is killed at sampled write
boundaries (clean and torn variants) and the reopened file must answer
every query from the last durably committed checkpoint; a persistent
bit flip must surface as :class:`~repro.errors.PageCorruptionError`.
``--report-out`` writes the machine-readable report CI archives.

The ``reorg`` subcommand measures background reorganization as a paced
workload: a cluster database is degraded by online deletes (dead space
accumulates in the cluster units), then identical foreground traffic
runs once without and once with interleaved ``ana-reorg-`` sessions
(:class:`~repro.reorg.Reorganizer` rounds paced by priority admission);
it reports the clustering-quality recovery, the pages the reorganizer
moved (``reorg.*`` metrics) and the foreground p95 interference ratio.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.eval.adaptation import format_fig11, run_fig11_adaptation
from repro.eval.config import ExperimentConfig
from repro.eval.construction import (
    format_fig5,
    format_fig6,
    format_fig7,
    run_fig5_construction,
    run_fig6_storage,
    run_fig7_buddy,
)
from repro.eval.context import ExperimentContext
from repro.eval.joins import (
    format_fig14,
    format_fig16,
    format_fig17,
    run_fig14_join_orgs,
    run_fig16_join_techniques,
    run_fig17_complete_join,
)
from repro.eval.point import format_fig12, run_fig12_points
from repro.eval.report import format_header, format_table
from repro.eval.table1 import format_table1, run_table1
from repro.eval.window import (
    format_fig8,
    format_fig10,
    run_fig8_windows,
    run_fig10_techniques,
)

EXPERIMENTS = {
    "table1": lambda ctx: format_table1(run_table1(ctx), ctx.config.scale),
    "fig5": lambda ctx: format_fig5(run_fig5_construction(ctx)),
    "fig6": lambda ctx: format_fig6(run_fig6_storage(ctx)),
    "fig7": lambda ctx: format_fig7(run_fig7_buddy(ctx)),
    "fig8": lambda ctx: format_fig8(run_fig8_windows(ctx)),
    "fig10": lambda ctx: format_fig10(run_fig10_techniques(ctx)),
    "fig11": lambda ctx: format_fig11(run_fig11_adaptation(ctx)),
    "fig12": lambda ctx: format_fig12(run_fig12_points(ctx)),
    "fig14": lambda ctx: format_fig14(run_fig14_join_orgs(ctx)),
    "fig16": lambda ctx: format_fig16(run_fig16_join_techniques(ctx)),
    "fig17": lambda ctx: format_fig17(run_fig17_complete_join(ctx)),
}


from contextlib import contextmanager


@contextmanager
def _profiled(active: bool, out: str | None = None, label: str = ""):
    """Run the block under cProfile when requested.

    Prints the top-15 cumulative-time entries; when ``out`` is given the
    raw pstats dump is written there as well (readable with
    ``python -m pstats``).  A no-op when neither is requested.
    """
    if not active and out is None:
        yield
        return
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        buf = io.StringIO()
        pstats.Stats(profiler, stream=buf).sort_stats("cumulative").print_stats(15)
        print()
        suffix = f" ({label})" if label else ""
        print(f"--- cProfile top 15 by cumulative time{suffix} ---")
        print(buf.getvalue())
        if out is not None:
            profiler.dump_stats(out)
            print(f"[profile: raw pstats dump written to {out}]")


def _tagged(path: str | None, tag: str, multi: bool) -> str | None:
    """Suffix an output path per configuration when a subcommand runs
    several (``trace.json`` -> ``trace.lru.json`` for policy ``lru``)."""
    if path is None or not multi:
        return path
    import os

    root, ext = os.path.splitext(path)
    safe = tag.replace("/", "-").replace(" ", "-")
    return f"{root}.{safe}{ext}" if ext else f"{path}.{safe}"


def _export_obs(tracer, metrics, trace_out, metrics_out, extra=None) -> None:
    """Write and validate the Chrome trace and/or metrics snapshot."""
    from repro.obs import validate_chrome_trace, write_chrome_trace

    if trace_out is not None and tracer is not None:
        data = write_chrome_trace(trace_out, tracer)
        counts = validate_chrome_trace(data)
        rendered = ", ".join(f"{k}:{v}" for k, v in sorted(counts.items()))
        print(f"[trace: {sum(counts.values())} events ({rendered}) -> {trace_out}]")
    if metrics_out is not None and metrics is not None:
        metrics.write(metrics_out, extra=extra)
        print(f"[metrics: {len(metrics)} metrics -> {metrics_out}]")


def workload_main(argv: list[str]) -> int:
    """The ``workload`` subcommand: batched mixed streams over the
    shared buffer pool, under one or more replacement policies."""
    from repro.buffer.policy import POLICIES
    from repro.data.tiger import generate_map
    from repro.database import SpatialDatabase
    from repro.errors import ConfigurationError
    from repro.workload.streams import mixed_stream
    from repro.workload.trace import load_trace, save_trace

    parser = argparse.ArgumentParser(
        prog="python -m repro.eval workload",
        description="Run a batched mixed workload through the shared "
        "buffer pool and report per-phase I/O and hit rates.",
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="dataset scale in (0, 1] (default: REPRO_SCALE or 0.08)",
    )
    parser.add_argument("--seed", type=int, default=1994)
    parser.add_argument(
        "--series", type=str, default="A-1", help="Table 1 series (default A-1)"
    )
    parser.add_argument(
        "--organization", type=str, default="cluster",
        help="cluster / secondary / primary (default cluster)",
    )
    parser.add_argument(
        "--buffer-pages", type=int, default=400,
        help="shared pool size in page frames (default 400)",
    )
    parser.add_argument(
        "--policies", type=str, default="lru,clock",
        help=f"comma-separated replacement policies (valid: {', '.join(POLICIES)})",
    )
    parser.add_argument(
        "--queries", type=int, default=60,
        help="window and point queries each (default 60)",
    )
    parser.add_argument(
        "--no-join", action="store_true",
        help="skip the spatial-join operation at the end of the stream",
    )
    parser.add_argument(
        "--trace", type=str, default=None, metavar="PATH",
        help="JSONL workload trace: replayed when PATH exists, recorded "
        "there otherwise (runs become replayable)",
    )
    parser.add_argument(
        "--scheduler", type=str, default="sync",
        help="I/O scheduler servicing access plans: sync (default, the "
        "paper's pricing) or overlap (virtual-clock async simulation)",
    )
    parser.add_argument(
        "--prefetch", type=str, default="none",
        help="read-ahead policy: none (default), sequential or cluster",
    )
    parser.add_argument(
        "--disks", type=int, default=1,
        help="number of disks behind the buffer pool (default 1)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run under cProfile and print the top-15 cumulative-time "
        "entries (per policy), so perf PRs can find the next hot spot",
    )
    parser.add_argument(
        "--profile-out", type=str, default=None, metavar="PATH",
        help="write the raw cProfile pstats dump to PATH (implies "
        "--profile; with several policies a .<policy> suffix is added)",
    )
    parser.add_argument(
        "--trace-out", type=str, default=None, metavar="PATH",
        help="run under the span tracer and write a Chrome trace-event "
        "/ Perfetto JSON timeline to PATH (per policy, suffixed when "
        "several policies run)",
    )
    parser.add_argument(
        "--metrics-out", type=str, default=None, metavar="PATH",
        help="write the flattened metrics-registry snapshot as JSON to "
        "PATH (per policy, suffixed when several policies run)",
    )
    args = parser.parse_args(argv)

    from repro.iosched import PREFETCHERS, SCHEDULERS

    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    unknown = [p for p in policies if p not in POLICIES]
    if unknown:
        parser.error(f"unknown policies: {unknown}; valid: {tuple(POLICIES)}")
    if args.scheduler not in SCHEDULERS:
        parser.error(
            f"unknown scheduler '{args.scheduler}'; valid: {SCHEDULERS}"
        )
    if args.prefetch not in PREFETCHERS:
        parser.error(
            f"unknown prefetch policy '{args.prefetch}'; valid: {PREFETCHERS}"
        )

    if args.scale is not None:
        config = ExperimentConfig(scale=args.scale, seed=args.seed)
    else:
        config = ExperimentConfig(seed=args.seed)
    spec = config.spec(args.series)
    objects = generate_map(spec, seed=config.seed)
    # Hold the tail of the map out of the build: the stream inserts it.
    held_out = max(1, len(objects) // 50)
    resident, incoming = objects[:-held_out], objects[-held_out:]

    import os

    replay = args.trace is not None and os.path.exists(args.trace)
    recorded = False

    print(
        format_header(
            f"batched workload — {args.organization} organization, "
            f"{args.series} (scale={config.scale}), "
            f"{args.buffer_pages}-page pool"
        )
    )
    summary: list[tuple[str, float, float]] = []
    for policy in policies:
        db_kwargs = dict(
            organization=args.organization,
            name="r",
            n_disks=args.disks,
            scheduler=args.scheduler,
            prefetch=args.prefetch,
        )
        if args.organization == "cluster":
            db_kwargs["smax_bytes"] = spec.smax_bytes
        db = SpatialDatabase(**db_kwargs)
        db.build(resident)
        join_target = None
        if not args.no_join:
            other_key = f"{args.series[:-1]}2" if args.series.endswith("1") else args.series
            other_spec = config.spec(other_key)
            attach_kwargs = dict(organization=args.organization)
            if args.organization == "cluster":
                attach_kwargs["smax_bytes"] = other_spec.smax_bytes
            join_target = db.attach("s", **attach_kwargs)
            join_target.build(
                generate_map(other_spec, seed=config.seed, id_offset=10_000_000)
            )
        if replay:
            try:
                stream = load_trace(args.trace, join_with=join_target)
            except ConfigurationError as exc:
                hint = (
                    " (recorded with a join: run without --no-join)"
                    if join_target is None and "join" in str(exc)
                    else ""
                )
                parser.error(f"cannot replay {args.trace}: {exc}{hint}")
            print(f"[trace: replaying {len(stream)} operations from {args.trace}]")
        else:
            stream = mixed_stream(
                resident,
                n_windows=args.queries,
                n_points=args.queries,
                inserts=incoming,
                deletes=[o.oid for o in resident[: held_out // 2]],
                join_with=join_target,
                seed=config.seed + 17,
            )
            if args.trace is not None and not recorded:
                recorded = True
                count = save_trace(stream, args.trace)
                print(f"[trace: recorded {count} operations to {args.trace}]")
        multi = len(policies) > 1
        tracer = None
        if args.trace_out is not None:
            from repro.obs import Tracer, register_store_devices, tracing

            tracer = Tracer(label=f"workload:{policy}")
            register_store_devices(tracer, db.disk)
        profile_on = args.profile or args.profile_out is not None
        with _profiled(profile_on, _tagged(args.profile_out, policy, multi), policy):
            if tracer is not None:
                with tracing(tracer):
                    report = db.run_workload(
                        stream, buffer_pages=args.buffer_pages, policy=policy
                    )
            else:
                report = db.run_workload(
                    stream, buffer_pages=args.buffer_pages, policy=policy
                )
        _export_obs(
            tracer,
            db.metrics,
            _tagged(args.trace_out, policy, multi),
            _tagged(args.metrics_out, policy, multi),
            extra={"run": {"policy": policy, "hit_rate": report.hit_rate,
                           "device_ms": report.total_io.total_ms}},
        )
        print()
        print(report.format())
        print()
        print(
            format_table(
                ("phase", "ops", "p50 ms", "p95 ms"),
                [
                    (p.kind, p.operations, p.p50_ms, p.p95_ms)
                    for p in report.phases
                ],
                title="operation latency percentiles",
            )
        )
        summary.append((policy, report.hit_rate, report.total_io.total_ms))

    print()
    print(
        format_table(
            ("policy", "hit rate", "total io ms"),
            [(p, f"{h:.1%}", ms) for p, h, ms in summary],
            title="policy comparison",
        )
    )
    return 0


def pagestore_main(argv: list[str]) -> int:
    """The ``pagestore`` subcommand: window-query cost over the sharded
    multi-disk page store, across disk counts and placements."""
    from repro.data.tiger import generate_map
    from repro.data.workload import window_workload
    from repro.database import SpatialDatabase
    from repro.pagestore.placement import PLACEMENTS

    parser = argparse.ArgumentParser(
        prog="python -m repro.eval pagestore",
        description="Measure declustered query execution: device time, "
        "response time and parallelism of window queries over the "
        "sharded page store.",
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="dataset scale in (0, 1] (default: REPRO_SCALE or 0.08)",
    )
    parser.add_argument("--seed", type=int, default=1994)
    parser.add_argument(
        "--series", type=str, default="A-1", help="Table 1 series (default A-1)"
    )
    parser.add_argument(
        "--disks", type=str, default="1,2,4,8",
        help="comma-separated disk counts (default 1,2,4,8)",
    )
    parser.add_argument(
        "--placements", type=str, default="spatial,round_robin,hash",
        help=f"comma-separated placements (valid: {', '.join(PLACEMENTS)})",
    )
    parser.add_argument(
        "--queries", type=int, default=60,
        help="window queries per configuration (default 60)",
    )
    parser.add_argument(
        "--window-area", type=float, default=1e-2,
        help="window area as a fraction of the data space (default 1e-2)",
    )
    args = parser.parse_args(argv)

    try:
        disk_counts = [int(d) for d in args.disks.split(",") if d.strip()]
    except ValueError:
        parser.error(f"--disks must be comma-separated integers: {args.disks!r}")
    if not disk_counts or min(disk_counts) < 1:
        parser.error(f"--disks needs positive disk counts: {args.disks!r}")
    placements = [p.strip() for p in args.placements.split(",") if p.strip()]
    unknown = [p for p in placements if p not in PLACEMENTS]
    if unknown:
        parser.error(f"unknown placements: {unknown}; valid: {tuple(PLACEMENTS)}")

    if args.scale is not None:
        config = ExperimentConfig(scale=args.scale, seed=args.seed)
    else:
        config = ExperimentConfig(seed=args.seed)
    spec = config.spec(args.series)
    objects = generate_map(spec, seed=config.seed)
    windows = window_workload(
        objects, args.window_area, n_queries=args.queries, seed=config.seed + 7
    )

    print(
        format_header(
            f"sharded page store — {args.series} (scale={config.scale}), "
            f"{len(windows)} windows of {args.window_area:g} area"
        )
    )
    rows = []
    seen: set[tuple[str, int]] = set()
    for placement in placements:
        for n_disks in disk_counts:
            # A single disk has no placement decision: run it once.
            key = (placement if n_disks > 1 else "(single disk)", n_disks)
            if key in seen:
                continue
            seen.add(key)
            db = SpatialDatabase(
                smax_bytes=spec.smax_bytes,
                n_disks=n_disks,
                placement=placement,
            )
            db.build(objects)
            build_s = db.storage.construction_io.total_s
            device = 0.0
            response = 0.0
            for window in windows:
                mark = db.disk.snapshot()
                db.storage.window_query(window)
                cost = db.disk.cost_since(mark)
                device += cost.total_ms
                response += cost.response_ms
            rows.append(
                (
                    placement if n_disks > 1 else "(single disk)",
                    n_disks,
                    build_s,
                    device,
                    response,
                    device / response if response else 1.0,
                )
            )
    print()
    print(
        format_table(
            (
                "placement",
                "disks",
                "build (s)",
                "device ms",
                "response ms",
                "parallelism",
            ),
            rows,
            title="declustered window-query execution",
        )
    )
    return 0


def iosched_main(argv: list[str]) -> int:
    """The ``iosched`` subcommand: two interleaved client sessions over
    a declustered store, ablated across I/O schedulers, prefetch
    policies and admission-control policies."""
    from repro.data.tiger import generate_map
    from repro.database import SpatialDatabase
    from repro.iosched import ADMISSIONS, PREFETCHERS, SCHEDULERS
    from repro.iosched.admission import PriorityAdmission
    from repro.workload.streams import mixed_stream

    parser = argparse.ArgumentParser(
        prog="python -m repro.eval iosched",
        description="Ablate the request-based I/O pipeline: concurrent "
        "client sessions under sync vs overlapped (async-simulated) "
        "scheduling, with and without prefetching.",
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="dataset scale in (0, 1] (default: REPRO_SCALE or 0.08)",
    )
    parser.add_argument("--seed", type=int, default=1994)
    parser.add_argument(
        "--series", type=str, default="A-1", help="Table 1 series (default A-1)"
    )
    parser.add_argument(
        "--disks", type=int, default=4,
        help="disks behind the buffer pool (default 4)",
    )
    parser.add_argument(
        "--placement", type=str, default="spatial",
        help="declustering placement (default spatial)",
    )
    parser.add_argument(
        "--schedulers", type=str, default="sync,overlap",
        help=f"comma-separated schedulers (valid: {', '.join(SCHEDULERS)})",
    )
    parser.add_argument(
        "--prefetch", type=str, default="none,cluster",
        help=f"comma-separated prefetch policies (valid: {', '.join(PREFETCHERS)})",
    )
    parser.add_argument(
        "--admission", type=str, default="none",
        help="comma-separated admission policies applied to the overlap "
        f"scheduler (valid: {', '.join(ADMISSIONS)}; 'priority' marks "
        "the beta client as the analytics class); ignored for sync",
    )
    parser.add_argument(
        "--buffer-pages", type=int, default=400,
        help="shared pool size in page frames (default 400)",
    )
    parser.add_argument(
        "--queries", type=int, default=40,
        help="window queries per client (default 40)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run the whole ablation under cProfile and print the "
        "top-15 cumulative-time entries",
    )
    parser.add_argument(
        "--profile-out", type=str, default=None, metavar="PATH",
        help="write the raw cProfile pstats dump to PATH (implies --profile)",
    )
    parser.add_argument(
        "--trace-out", type=str, default=None, metavar="PATH",
        help="trace each configuration and write Chrome trace-event "
        "JSON to PATH (suffixed .<sched>.<prefetch>.<admission> when "
        "several configurations run)",
    )
    parser.add_argument(
        "--metrics-out", type=str, default=None, metavar="PATH",
        help="write each configuration's metrics snapshot as JSON to "
        "PATH (suffixed like --trace-out)",
    )
    args = parser.parse_args(argv)

    schedulers = [s.strip() for s in args.schedulers.split(",") if s.strip()]
    unknown = [s for s in schedulers if s not in SCHEDULERS]
    if unknown:
        parser.error(f"unknown schedulers: {unknown}; valid: {SCHEDULERS}")
    prefetchers = [p.strip() for p in args.prefetch.split(",") if p.strip()]
    unknown = [p for p in prefetchers if p not in PREFETCHERS]
    if unknown:
        parser.error(f"unknown prefetch policies: {unknown}; valid: {PREFETCHERS}")
    admissions = [a.strip() for a in args.admission.split(",") if a.strip()]
    unknown = [a for a in admissions if a not in ADMISSIONS]
    if unknown:
        parser.error(f"unknown admission policies: {unknown}; valid: {ADMISSIONS}")
    if args.disks < 1:
        parser.error(f"--disks needs a positive disk count: {args.disks!r}")

    if args.scale is not None:
        config = ExperimentConfig(scale=args.scale, seed=args.seed)
    else:
        config = ExperimentConfig(seed=args.seed)
    spec = config.spec(args.series)
    objects = generate_map(spec, seed=config.seed)

    def client_streams():
        return {
            "alpha": mixed_stream(
                objects, n_windows=args.queries, n_points=args.queries // 2,
                seed=config.seed + 3,
            ),
            "beta": mixed_stream(
                objects, n_windows=args.queries, n_points=args.queries // 2,
                seed=config.seed + 5,
            ),
        }

    print(
        format_header(
            f"I/O scheduler ablation — {args.series} (scale={config.scale}), "
            f"{args.disks} disks ({args.placement}), 2 interleaved clients, "
            f"{args.buffer_pages}-page pool"
        )
    )
    configs = [
        (scheduler, prefetch, admission)
        for scheduler in schedulers
        # Admission shapes dispatch on the virtual clock: the sync
        # scheduler has none, so only 'none' applies there.
        for prefetch in prefetchers
        for admission in (admissions if scheduler == "overlap" else ["none"])
    ]
    multi = len(configs) > 1
    measured = []
    profile_on = args.profile or args.profile_out is not None
    with _profiled(profile_on, args.profile_out, "iosched ablation"):
        for scheduler, prefetch, admission in configs:
            db = SpatialDatabase(
                smax_bytes=spec.smax_bytes,
                n_disks=args.disks,
                placement=args.placement,
                scheduler=scheduler,
                prefetch=prefetch,
            )
            db.build(objects)
            policy = admission
            if admission == "priority":
                policy = PriorityAdmission(classes={"beta": "analytics"})
            tracer = None
            if args.trace_out is not None:
                from repro.obs import Tracer, register_store_devices, tracing

                tracer = Tracer(label=f"iosched:{scheduler}.{prefetch}.{admission}")
                register_store_devices(tracer, db.disk)
            if tracer is not None:
                with tracing(tracer):
                    report = db.run_sessions(
                        client_streams(),
                        buffer_pages=args.buffer_pages,
                        admission=None if admission == "none" else policy,
                    )
            else:
                report = db.run_sessions(
                    client_streams(),
                    buffer_pages=args.buffer_pages,
                    admission=None if admission == "none" else policy,
                )
            tag = f"{scheduler}.{prefetch}.{admission}"
            _export_obs(
                tracer,
                db.metrics,
                _tagged(args.trace_out, tag, multi),
                _tagged(args.metrics_out, tag, multi),
                extra={"run": {"scheduler": scheduler, "prefetch": prefetch,
                               "admission": admission,
                               "makespan_ms": report.makespan_ms}},
            )
            measured.append((scheduler, prefetch, admission, report))
    # Speedups are relative to the synchronous un-prefetched baseline;
    # when that configuration was not requested, fall back to the first
    # one measured (then the column is only an internal comparison).
    baseline_ms = next(
        (
            r.makespan_ms
            for s, p, a, r in measured
            if s == "sync" and p == "none"
        ),
        measured[0][3].makespan_ms if measured else 0.0,
    )
    rows = [
        (
            scheduler,
            prefetch,
            admission,
            f"{report.hit_rate:.1%}",
            report.total_io.total_ms,
            report.total_response_ms,
            sum(c.queueing_ms for c in report.clients),
            max((c.p95_ms for c in report.clients), default=0.0),
            report.makespan_ms,
            baseline_ms / report.makespan_ms if report.makespan_ms else 1.0,
        )
        for scheduler, prefetch, admission, report in measured
    ]
    print()
    print(
        format_table(
            (
                "scheduler",
                "prefetch",
                "admission",
                "hit rate",
                "device ms",
                "client response ms",
                "queue ms",
                "p95 ms",
                "makespan ms",
                "speedup",
            ),
            rows,
            title="interleaved client sessions over the I/O scheduler",
        )
    )
    return 0


def traffic_main(argv: list[str]) -> int:
    """The ``traffic`` subcommand: generated arrival-process traffic
    (10^4-10^5 sessions) over the overlap scheduler, with an optional
    10x-overload admission ablation."""
    from repro.data.tiger import generate_map
    from repro.database import SpatialDatabase
    from repro.iosched import ADMISSIONS
    from repro.iosched.admission import PriorityAdmission
    from repro.workload.traffic import ARRIVALS, class_of_session, make_traffic

    parser = argparse.ArgumentParser(
        prog="python -m repro.eval traffic",
        description="Drive generated open- or closed-loop traffic "
        "through the virtual-clock scheduler and report per-class "
        "latency percentiles; --ablation compares admission policies "
        "at the base rate and at 10x overload.",
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="dataset scale in (0, 1] (default: REPRO_SCALE or 0.08)",
    )
    parser.add_argument("--seed", type=int, default=1994)
    parser.add_argument(
        "--series", type=str, default="A-1", help="Table 1 series (default A-1)"
    )
    parser.add_argument(
        "--sessions", type=int, default=100_000,
        help="number of generated sessions (default 100000)",
    )
    parser.add_argument(
        "--arrival", type=str, default="poisson", choices=ARRIVALS,
        help="arrival process (default poisson)",
    )
    parser.add_argument(
        "--rate", type=float, default=200.0,
        help="mean arrival rate in sessions per virtual second "
        "(default 200; ignored by the closed-loop process)",
    )
    parser.add_argument(
        "--ops-per-session", type=int, default=1,
        help="max operations per session (default 1)",
    )
    parser.add_argument(
        "--think-ms", type=float, default=50.0,
        help="closed-loop think time between operations (default 50)",
    )
    parser.add_argument(
        "--disks", type=int, default=4,
        help="disks behind the buffer pool (default 4)",
    )
    parser.add_argument(
        "--placement", type=str, default="spatial",
        help="declustering placement (default spatial)",
    )
    parser.add_argument(
        "--buffer-pages", type=int, default=512,
        help="shared pool size in page frames (default 512)",
    )
    parser.add_argument(
        "--admission", type=str, default="none", choices=ADMISSIONS,
        help="admission policy ('priority' classifies generated "
        "sessions by their int-/ana- name prefix; default none)",
    )
    parser.add_argument(
        "--ablation", action="store_true",
        help="instead of one run, compare admission none vs priority "
        "at the base --rate and at 10x overload (4 runs)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run under cProfile and print the top-15 cumulative-time "
        "entries",
    )
    parser.add_argument(
        "--profile-out", type=str, default=None, metavar="PATH",
        help="write the raw cProfile pstats dump to PATH (implies --profile)",
    )
    parser.add_argument(
        "--metrics-out", type=str, default=None, metavar="PATH",
        help="write the pool metrics snapshot (per-class latency "
        "histograms included) as JSON to PATH",
    )
    args = parser.parse_args(argv)
    if args.sessions < 0:
        parser.error(f"--sessions needs a non-negative count: {args.sessions!r}")
    if args.disks < 1:
        parser.error(f"--disks needs a positive disk count: {args.disks!r}")
    if args.rate <= 0:
        parser.error(f"--rate needs a positive rate: {args.rate!r}")

    if args.scale is not None:
        config = ExperimentConfig(scale=args.scale, seed=args.seed)
    else:
        config = ExperimentConfig(seed=args.seed)
    spec = config.spec(args.series)
    objects = generate_map(spec, seed=config.seed)

    def build_db():
        db = SpatialDatabase(
            smax_bytes=spec.smax_bytes,
            n_disks=args.disks,
            placement=args.placement,
            scheduler="overlap",
        )
        db.build(objects)
        return db

    def make_policy(name):
        if name == "priority":
            # Traffic-tuned bucket: open-loop queueing already refills
            # the default (rate=0.25, burst=60) bucket faster than bulk
            # sessions drain it, so at 10x overload it never engages.
            # A stingier bucket paces analytics past the arrival rush —
            # both classes' p99 improve there, at some makespan cost.
            return PriorityAdmission(
                classifier=class_of_session, rate=0.05, burst_ms=20.0
            )
        if name == "none":
            return None
        return name

    def run_one(db, rate, admission_name):
        traffic = make_traffic(
            objects,
            args.sessions,
            arrival=args.arrival,
            rate_per_s=rate,
            seed=config.seed + 29,
            ops_per_session=args.ops_per_session,
            think_ms=args.think_ms,
        )
        return db.run_traffic(
            traffic,
            buffer_pages=args.buffer_pages,
            admission=make_policy(admission_name),
        )

    print(
        format_header(
            f"traffic — {args.series} (scale={config.scale}), "
            f"{args.sessions} sessions ({args.arrival}), {args.disks} disks "
            f"({args.placement}), {args.buffer_pages}-page pool"
        )
    )
    profile_on = args.profile or args.profile_out is not None
    with _profiled(profile_on, args.profile_out, "traffic"):
        if not args.ablation:
            db = build_db()
            start = time.time()
            report = run_one(db, args.rate, args.admission)
            wall = time.time() - start
            print()
            print(report.format())
            print(f"[traffic: {wall:.1f}s wall]")
            if args.metrics_out is not None:
                db.metrics.write(
                    args.metrics_out,
                    extra={"run": {"arrival": args.arrival,
                                   "sessions": args.sessions,
                                   "makespan_ms": report.makespan_ms}},
                )
                print(f"[traffic: wrote {args.metrics_out}]")
            return 0

        # 10x-overload ablation: admission only matters once the open
        # queues actually build, so compare none vs priority at the
        # base rate and again at 10x.
        rows = []
        for rate in (args.rate, args.rate * 10.0):
            for admission_name in ("none", "priority"):
                db = build_db()
                report = run_one(db, rate, admission_name)
                inter = report.traffic_class("interactive")
                ana = report.traffic_class("analytics")
                rows.append(
                    (
                        f"{rate:g}",
                        admission_name,
                        inter.p50_ms if inter else 0.0,
                        inter.p99_ms if inter else 0.0,
                        ana.p99_ms if ana else 0.0,
                        report.makespan_ms,
                        f"{report.throughput_per_s:.1f}",
                    )
                )
        print()
        print(
            format_table(
                (
                    "rate/s",
                    "admission",
                    "int p50 ms",
                    "int p99 ms",
                    "ana p99 ms",
                    "makespan ms",
                    "sessions/s",
                ),
                rows,
                title="admission under overload (open-loop arrivals)",
            )
        )
    return 0


def tiering_main(argv: list[str]) -> int:
    """The ``tiering`` subcommand: a skewed window workload over the
    tiered page store, ablated across migration policies."""
    import random

    from repro.data.tiger import generate_map
    from repro.database import SpatialDatabase
    from repro.pagestore import MIGRATIONS

    parser = argparse.ArgumentParser(
        prog="python -m repro.eval tiering",
        description="Ablate the tiered page store: static vs "
        "access-driven migration between a small fast tier and the "
        "capacity tier, under a skewed window workload.",
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="dataset scale in (0, 1] (default: REPRO_SCALE or 0.08)",
    )
    parser.add_argument("--seed", type=int, default=1994)
    parser.add_argument(
        "--series", type=str, default="A-1", help="Table 1 series (default A-1)"
    )
    parser.add_argument(
        "--migrations", type=str, default="none,static,promote-on-hit,lru-demote",
        help="comma-separated migration policies ('none' = the flat "
        f"single disk; valid: none, {', '.join(MIGRATIONS)})",
    )
    parser.add_argument(
        "--fast-pages", type=int, default=256,
        help="fast-tier budget in pages (default 256 — deliberately "
        "smaller than the dataset, so placement matters)",
    )
    parser.add_argument(
        "--queries", type=int, default=150,
        help="window queries (default 150)",
    )
    parser.add_argument(
        "--hot-fraction", type=float, default=0.9,
        help="fraction of queries aimed at the hot corner (default 0.9)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run the whole ablation under cProfile and print the "
        "top-15 cumulative-time entries",
    )
    parser.add_argument(
        "--profile-out", type=str, default=None, metavar="PATH",
        help="write the raw cProfile pstats dump to PATH (implies --profile)",
    )
    parser.add_argument(
        "--trace-out", type=str, default=None, metavar="PATH",
        help="trace each migration policy's query run and write Chrome "
        "trace-event JSON to PATH (suffixed .<migration> when several "
        "policies run)",
    )
    parser.add_argument(
        "--metrics-out", type=str, default=None, metavar="PATH",
        help="write each policy's metrics snapshot as JSON to PATH "
        "(suffixed like --trace-out)",
    )
    args = parser.parse_args(argv)

    migrations = [m.strip() for m in args.migrations.split(",") if m.strip()]
    unknown = [m for m in migrations if m != "none" and m not in MIGRATIONS]
    if unknown:
        parser.error(
            f"unknown migrations: {unknown}; valid: none, {tuple(MIGRATIONS)}"
        )
    if not (0.0 <= args.hot_fraction <= 1.0):
        parser.error(f"--hot-fraction must be in [0, 1]: {args.hot_fraction!r}")
    if args.fast_pages < 1:
        parser.error(f"--fast-pages must be >= 1: {args.fast_pages!r}")

    if args.scale is not None:
        config = ExperimentConfig(scale=args.scale, seed=args.seed)
    else:
        config = ExperimentConfig(seed=args.seed)
    spec = config.spec(args.series)
    objects = generate_map(spec, seed=config.seed)
    bound = max(max(o.mbr.xmax for o in objects), max(o.mbr.ymax for o in objects))
    rng = random.Random(config.seed + 23)
    queries = []
    for i in range(args.queries):
        # Seeded draw: deterministic for a given seed, and exact for
        # any hot fraction (a modulo pattern only works for n/(n+1)).
        if rng.random() < args.hot_fraction:
            x = rng.uniform(0.0, 0.18 * bound)
            y = rng.uniform(0.0, 0.18 * bound)
        else:
            x = rng.uniform(0.0, 0.9 * bound)
            y = rng.uniform(0.0, 0.9 * bound)
        size = 0.08 * bound
        queries.append((x, y, x + size, y + size))

    print(
        format_header(
            f"tiered page store — {args.series} (scale={config.scale}), "
            f"{len(queries)} windows ({args.hot_fraction:.0%} on the hot "
            f"corner), {args.fast_pages}-page fast tier"
        )
    )
    rows = []
    multi = len(migrations) > 1

    def run_one(migration: str) -> None:
        db = SpatialDatabase(
            smax_bytes=spec.smax_bytes,
            tiering=None if migration == "none" else migration,
            fast_pages=args.fast_pages,
        )
        db.build(objects)
        tracer = None
        if args.trace_out is not None:
            from repro.obs import Tracer, register_store_devices, tracing

            tracer = Tracer(label=f"tiering:{migration}")
            register_store_devices(tracer, db.disk)
        mark = db.disk.snapshot()
        if tracer is not None:
            with tracing(tracer):
                with tracer.span("queries", cat="session", args={"migration": migration}):
                    for window in queries:
                        db.window_query(*window)
        else:
            for window in queries:
                db.window_query(*window)
        cost = db.disk.cost_since(mark)
        _export_obs(
            tracer,
            db.metrics,
            _tagged(args.trace_out, migration, multi),
            _tagged(args.metrics_out, migration, multi),
            extra={"run": {"migration": migration, "device_ms": cost.total_ms}},
        )
        rows.append(
            (
                migration,
                cost.total_ms,
                cost.response_ms,
                getattr(db.disk, "promotions", 0),
                getattr(db.disk, "demotions", 0),
                getattr(db.disk, "fast_resident", 0),
            )
        )

    profile_on = args.profile or args.profile_out is not None
    with _profiled(profile_on, args.profile_out, "tiering ablation"):
        for migration in migrations:
            run_one(migration)
    print()
    print(
        format_table(
            (
                "migration",
                "device ms",
                "response ms",
                "promotions",
                "demotions",
                "fast pages",
            ),
            rows,
            title="skewed window workload over the tiered store",
        )
    )
    return 0


def trace_main(argv: list[str]) -> int:
    """The ``trace`` subcommand: run a canonical two-client overlapped
    workload under the span tracer, export the Chrome/Perfetto timeline
    and metrics snapshot, and cross-check span totals against DiskStats."""
    from repro.data.tiger import generate_map
    from repro.database import SpatialDatabase
    from repro.iosched import ADMISSIONS, PREFETCHERS, SCHEDULERS
    from repro.iosched.admission import PriorityAdmission
    from repro.obs import (
        Tracer,
        register_store_devices,
        trace_device_totals,
        tracing,
        validate_chrome_trace,
        write_chrome_trace,
    )
    from repro.workload.streams import mixed_stream

    parser = argparse.ArgumentParser(
        prog="python -m repro.eval trace",
        description="Trace a two-client workload on the virtual clock "
        "and export a Chrome trace-event / Perfetto JSON timeline "
        "(open at https://ui.perfetto.dev) plus a metrics snapshot.",
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="dataset scale in (0, 1] (default: REPRO_SCALE or 0.08)",
    )
    parser.add_argument("--seed", type=int, default=1994)
    parser.add_argument(
        "--series", type=str, default="A-1", help="Table 1 series (default A-1)"
    )
    parser.add_argument(
        "--disks", type=int, default=4,
        help="disks behind the buffer pool (default 4)",
    )
    parser.add_argument(
        "--placement", type=str, default="spatial",
        help="declustering placement (default spatial)",
    )
    parser.add_argument(
        "--scheduler", type=str, default="overlap",
        help="I/O scheduler: overlap (default) or sync",
    )
    parser.add_argument(
        "--prefetch", type=str, default="cluster",
        help="read-ahead policy (default cluster)",
    )
    parser.add_argument(
        "--admission", type=str, default="none",
        help="admission policy on the overlap scheduler (default none; "
        "'priority' marks the beta client as the analytics class)",
    )
    parser.add_argument(
        "--buffer-pages", type=int, default=400,
        help="shared pool size in page frames (default 400)",
    )
    parser.add_argument(
        "--queries", type=int, default=20,
        help="window queries per client (default 20)",
    )
    parser.add_argument(
        "--trace-out", type=str, default="trace.json", metavar="PATH",
        help="Chrome trace-event JSON output path (default trace.json)",
    )
    parser.add_argument(
        "--metrics-out", type=str, default=None, metavar="PATH",
        help="metrics snapshot JSON output path (default: not written)",
    )
    args = parser.parse_args(argv)

    if args.scheduler not in SCHEDULERS:
        parser.error(f"unknown scheduler '{args.scheduler}'; valid: {SCHEDULERS}")
    if args.prefetch not in PREFETCHERS:
        parser.error(
            f"unknown prefetch policy '{args.prefetch}'; valid: {PREFETCHERS}"
        )
    if args.admission not in ADMISSIONS:
        parser.error(
            f"unknown admission policy '{args.admission}'; valid: {ADMISSIONS}"
        )
    if args.disks < 1:
        parser.error(f"--disks needs a positive disk count: {args.disks!r}")

    if args.scale is not None:
        config = ExperimentConfig(scale=args.scale, seed=args.seed)
    else:
        config = ExperimentConfig(seed=args.seed)
    spec = config.spec(args.series)
    objects = generate_map(spec, seed=config.seed)

    db = SpatialDatabase(
        smax_bytes=spec.smax_bytes,
        n_disks=args.disks,
        placement=args.placement,
        scheduler=args.scheduler,
        prefetch=args.prefetch,
    )
    db.build(objects)
    streams = {
        "alpha": mixed_stream(
            objects, n_windows=args.queries, n_points=args.queries // 2,
            seed=config.seed + 3,
        ),
        "beta": mixed_stream(
            objects, n_windows=args.queries, n_points=args.queries // 2,
            seed=config.seed + 5,
        ),
    }
    policy = args.admission
    if args.admission == "priority":
        policy = PriorityAdmission(classes={"beta": "analytics"})

    print(
        format_header(
            f"span trace — {args.series} (scale={config.scale}), "
            f"{args.disks} disks ({args.placement}), "
            f"{args.scheduler} scheduler, {args.prefetch} prefetch, "
            "2 interleaved clients"
        )
    )
    devices = list(getattr(db.disk, "disks", None) or (db.disk,))
    before = [device.total_ms for device in devices]
    tracer = Tracer(
        label=f"trace:{args.scheduler}.{args.prefetch}.{args.admission}"
    )
    register_store_devices(tracer, db.disk)
    with tracing(tracer):
        report = db.run_sessions(
            streams,
            buffer_pages=args.buffer_pages,
            admission=None if args.admission == "none" else policy,
        )

    data = write_chrome_trace(args.trace_out, tracer)
    counts = validate_chrome_trace(data)
    span_totals = tracer.device_totals()
    json_totals = trace_device_totals(data)
    open_spans = tracer.open_spans()

    rows = []
    worst = 0.0
    for device in devices:
        track = tracer.device_track(device)
        measured = device.total_ms - before[devices.index(device)]
        spanned = span_totals.get(track, 0.0)
        exported = json_totals.get(track, 0.0)
        worst = max(worst, abs(spanned - measured), abs(exported - measured))
        rows.append((track, measured, spanned, exported))
    print()
    print(
        format_table(
            ("device", "DiskStats ms", "span total ms", "exported ms"),
            rows,
            title="per-device span totals vs. device-time accounting",
        )
    )
    rendered = ", ".join(f"{k}:{v}" for k, v in sorted(counts.items()))
    print()
    print(f"trace: {sum(counts.values())} events ({rendered}) -> {args.trace_out}")
    print(
        f"makespan: {report.makespan_ms:.1f} ms virtual, "
        f"hit rate {report.hit_rate:.1%}, "
        f"device {report.total_io.total_ms:.1f} ms"
    )
    if args.metrics_out is not None:
        db.metrics.write(
            args.metrics_out,
            extra={"run": {"scheduler": args.scheduler,
                           "prefetch": args.prefetch,
                           "admission": args.admission,
                           "makespan_ms": report.makespan_ms}},
        )
        print(f"metrics: {len(db.metrics)} metrics -> {args.metrics_out}")
    if open_spans:
        print(f"ERROR: {len(open_spans)} spans left open: {open_spans[:5]}")
        return 1
    if worst > 1e-6:
        print(
            "ERROR: per-device span totals diverge from DiskStats "
            f"accounting by up to {worst:.9f} ms"
        )
        return 1
    print("span totals match DiskStats device time exactly.")
    return 0


def storage_main(argv: list[str]) -> int:
    """The ``storage`` subcommand: cross-validate simulated pricing
    against the real file-backed store, then run the crash-injection
    recovery ablation."""
    import json
    import os
    import random
    import shutil
    import tempfile

    from repro.data.tiger import generate_map
    from repro.database import SpatialDatabase
    from repro.errors import PageCorruptionError
    from repro.pagestore import FaultyPageStore, FilePageStore, SimulatedCrash, flip_byte

    parser = argparse.ArgumentParser(
        prog="python -m repro.eval storage",
        description="Durability check of the file-backed page store: "
        "save a database to a real file, reopen it file-backed, "
        "cross-validate answers and simulated cost against the "
        "in-memory store (reporting measured wall-clock alongside), "
        "then crash an incremental save at sampled write boundaries "
        "and verify recovery lands on the last committed checkpoint.",
    )
    parser.add_argument(
        "--scale", type=float, default=0.02,
        help="dataset scale in (0, 1] (default 0.02 — the crash matrix "
        "re-saves the file once per sampled boundary)",
    )
    parser.add_argument("--seed", type=int, default=1994)
    parser.add_argument(
        "--series", type=str, default="A-1", help="Table 1 series (default A-1)"
    )
    parser.add_argument(
        "--queries", type=int, default=40,
        help="window queries for the cross-validation (default 40)",
    )
    parser.add_argument(
        "--path", type=str, default=None, metavar="PATH",
        help="backing file for the page image (default: a temporary "
        "directory, removed afterwards)",
    )
    parser.add_argument(
        "--crash-points", type=int, default=8,
        help="write boundaries sampled per torn/clean variant in the "
        "crash matrix (default 8; boundary 0 and the final superblock "
        "write are always included)",
    )
    parser.add_argument(
        "--report-out", type=str, default=None, metavar="PATH",
        help="write the cross-validation + crash-matrix report as JSON",
    )
    parser.add_argument(
        "--metrics-out", type=str, default=None, metavar="PATH",
        help="write the file-backed store's metrics snapshot as JSON "
        "(store.checksum_failures, store.retries, recovery.*)",
    )
    args = parser.parse_args(argv)
    if args.queries < 1:
        parser.error(f"--queries must be >= 1: {args.queries!r}")
    if args.crash_points < 2:
        parser.error(f"--crash-points must be >= 2: {args.crash_points!r}")

    tmpdir = None
    if args.path is None:
        tmpdir = tempfile.mkdtemp(prefix="repro-storage-")
        path = os.path.join(tmpdir, "spatial.db")
    else:
        path = args.path

    report: dict = {"series": args.series, "scale": None, "seed": args.seed}
    try:
        config = ExperimentConfig(scale=args.scale, seed=args.seed)
        report["scale"] = config.scale
        spec = config.spec(args.series)
        objects = generate_map(spec, seed=config.seed)
        bound = max(
            max(o.mbr.xmax for o in objects), max(o.mbr.ymax for o in objects)
        )
        rng = random.Random(config.seed + 41)
        windows = []
        for _ in range(args.queries):
            x = rng.uniform(0.0, 0.9 * bound)
            y = rng.uniform(0.0, 0.9 * bound)
            size = 0.1 * bound
            windows.append((x, y, x + size, y + size))

        def answers(db):
            """(sorted oids, simulated ms, wall ms) per window, from a
            cold head each time so both stores price identical runs."""
            out = []
            for window in windows:
                db.disk.invalidate_head()
                t0 = time.perf_counter()
                res = db.window_query(*window)
                wall = (time.perf_counter() - t0) * 1e3
                out.append(
                    (sorted(o.oid for o in res.objects), res.io.total_ms, wall)
                )
            return out

        # -- phase 1: simulated vs file-backed cross-validation ---------
        print(
            format_header(
                f"file-backed page store — {args.series} "
                f"(scale={config.scale}), {len(windows)} windows"
            )
        )
        db = SpatialDatabase(smax_bytes=spec.smax_bytes)
        db.build(objects)
        sim = answers(db)
        db.save(path)
        fdb = SpatialDatabase.open(path, backing="file")
        saved_pages = fdb.disk.mapped_pages
        scrubbed = fdb.disk.scrub()
        measured = answers(fdb)

        mismatched = sum(1 for a, b in zip(sim, measured) if a[0] != b[0])
        drift = max(abs(a[1] - b[1]) for a, b in zip(sim, measured))
        sim_ms = sum(a[1] for a in sim)
        file_ms = sum(b[1] for b in measured)
        wall_ms = sum(b[2] for b in measured)
        rows = [
            ("simulated (in-memory)", f"{sim_ms:.3f}", "-", "-"),
            (
                "file-backed (measured)",
                f"{file_ms:.3f}",
                f"{wall_ms:.3f}",
                f"{wall_ms / file_ms:.4f}" if file_ms else "-",
            ),
        ]
        print()
        print(
            format_table(
                ("store", "simulated ms", "wall-clock ms", "wall/sim"),
                rows,
                title=f"{saved_pages} pages mapped, {scrubbed} scrubbed "
                f"clean, epoch {fdb.disk.epoch}",
            )
        )
        if mismatched:
            print(
                f"ERROR: {mismatched}/{len(windows)} windows answered "
                "differently after the file-backed reopen"
            )
            return 1
        if drift > 1e-9:
            print(
                "ERROR: simulated pricing diverges between the in-memory "
                f"and file-backed stores by up to {drift:.9f} ms"
            )
            return 1
        print(
            "file-backed reopen answers and simulated pricing match the "
            "in-memory store exactly."
        )
        report["cross_validation"] = {
            "windows": len(windows),
            "saved_pages": saved_pages,
            "scrubbed_pages": scrubbed,
            "simulated_ms": sim_ms,
            "wall_clock_ms": wall_ms,
            "answers_match": True,
        }

        # -- phase 2: crash-at-every-boundary recovery ablation ---------
        answers_a = [a[0] for a in sim]
        base_epoch = fdb.disk.epoch
        fdb.close()

        next_oid = max(db.storage.objects) + 1
        ins_rng = random.Random(config.seed + 57)
        for i in range(10):
            x = ins_rng.uniform(0.0, 0.8 * bound)
            y = ins_rng.uniform(0.0, 0.8 * bound)
            db.insert_polyline(
                next_oid + i,
                [(x, y), (x + 0.02 * bound, y + 0.02 * bound)],
                size_bytes=256,
            )
        answers_b = [a[0] for a in answers(db)]

        def save_onto(target, **faults):
            """Incrementally re-save ``db`` onto a copy of the committed
            base image through a fault-injecting store."""
            store = FaultyPageStore(target, metrics=db.metrics, **faults)
            try:
                db.save(target, store=store)
                return store.writes_completed
            finally:
                store.close()

        scratch = path + ".crash"
        shutil.copyfile(path, scratch)
        total_writes = save_onto(scratch)
        points = sorted(
            {
                round(i * (total_writes - 1) / (args.crash_points - 1))
                for i in range(args.crash_points)
            }
        )
        matrix_rows = []
        matrix_report = []
        failures = 0
        for torn in (False, True):
            for n in points:
                shutil.copyfile(path, scratch)
                try:
                    save_onto(scratch, crash_after_writes=n, torn=torn)
                    print(f"ERROR: kill point n={n} torn={torn} never fired")
                    failures += 1
                    continue
                except SimulatedCrash:
                    pass
                probe = FilePageStore(scratch)
                epoch = probe.epoch
                probe.close()
                rdb = SpatialDatabase.open(scratch)
                got = [
                    sorted(o.oid for o in rdb.window_query(*w).objects)
                    for w in windows
                ]
                # The epoch rule: recovery lands on whichever checkpoint
                # was durably committed.  A torn final superblock write
                # can still be logically complete (the payload fits in
                # the surviving half), legitimately committing the new
                # epoch — every other boundary must roll back.
                if epoch == base_epoch:
                    ok, state = got == answers_a, "base"
                elif epoch == base_epoch + 1 and torn and n == total_writes - 1:
                    ok, state = got == answers_b, "new"
                else:
                    ok, state = False, f"epoch {epoch}?"
                failures += not ok
                matrix_rows.append(
                    (n, "torn" if torn else "clean", epoch, state, "ok" if ok else "MISMATCH")
                )
                matrix_report.append(
                    {
                        "crash_after_writes": n,
                        "torn": torn,
                        "recovered_epoch": epoch,
                        "recovered_state": state,
                        "ok": ok,
                    }
                )
        print()
        print(
            format_table(
                ("crash after", "write", "epoch", "recovered", "check"),
                matrix_rows,
                title=f"crash matrix — {total_writes} writes per save, "
                f"base epoch {base_epoch}",
            )
        )

        # -- persistent media corruption must be *detected* -------------
        shutil.copyfile(path, scratch)
        probe = FilePageStore(scratch)
        victim = min(probe._map.values())
        page_size = probe.page_size
        probe.close()
        flip_byte(scratch, victim, page_size)
        try:
            cdb = SpatialDatabase.open(scratch, backing="file")
            try:
                cdb.disk.scrub()
                print("ERROR: scrub missed a persistent bit flip")
                failures += 1
                detected = False
            except PageCorruptionError:
                detected = True
            finally:
                cdb.close()
        except PageCorruptionError:
            detected = True
        if detected:
            print(
                f"persistent bit flip in slot {victim} detected "
                "(PageCorruptionError), zero undetected corruptions."
            )
        report["crash_matrix"] = {
            "writes_per_save": total_writes,
            "base_epoch": base_epoch,
            "points": matrix_report,
            "bit_flip_detected": detected,
            "failures": failures,
        }
        _export_obs(
            None,
            db.metrics,
            None,
            args.metrics_out,
            extra={"storage": report["crash_matrix"]},
        )
        if args.report_out is not None:
            with open(args.report_out, "w") as f:
                json.dump(report, f, indent=2, sort_keys=True)
            print(f"[report -> {args.report_out}]")
        if failures:
            print(f"ERROR: {failures} recovery check(s) failed")
            return 1
        print(
            f"all {len(matrix_rows)} crash points recovered to the last "
            "committed checkpoint."
        )
        return 0
    finally:
        if tmpdir is not None:
            shutil.rmtree(tmpdir, ignore_errors=True)


def reorg_main(argv: list[str]) -> int:
    """The ``reorg`` subcommand: clustering-quality recovery and
    foreground interference of paced background reorganization."""
    from repro.data.tiger import generate_map
    from repro.database import SpatialDatabase
    from repro.iosched.admission import PriorityAdmission
    from repro.reorg import Reorganizer, reorg_traffic
    from repro.workload.traffic import class_of_session, make_traffic

    parser = argparse.ArgumentParser(
        prog="python -m repro.eval reorg",
        description="Degrade a cluster database with online deletes, "
        "then run identical foreground traffic without and with paced "
        "background reorganization; report quality recovery and "
        "foreground p95 interference.",
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="dataset scale in (0, 1] (default: REPRO_SCALE or 0.08)",
    )
    parser.add_argument("--seed", type=int, default=1994)
    parser.add_argument(
        "--series", type=str, default="A-1", help="Table 1 series (default A-1)"
    )
    parser.add_argument(
        "--sessions", type=int, default=2000,
        help="foreground sessions (default 2000)",
    )
    parser.add_argument(
        "--rate", type=float, default=200.0,
        help="mean arrival rate in sessions per virtual second (default 200)",
    )
    parser.add_argument(
        "--disks", type=int, default=4,
        help="disks behind the buffer pool (default 4)",
    )
    parser.add_argument(
        "--buffer-pages", type=int, default=512,
        help="shared pool size in page frames (default 512)",
    )
    parser.add_argument(
        "--delete-fraction", type=float, default=0.5,
        help="fraction of objects deleted to degrade clustering "
        "(default 0.5)",
    )
    parser.add_argument(
        "--budget-pages", type=int, default=64,
        help="pages one reorganization round may move (default 64)",
    )
    parser.add_argument(
        "--rounds", type=int, default=40,
        help="reorganization rounds spread over the traffic (default 40)",
    )
    parser.add_argument(
        "--metrics-out", type=str, default=None, metavar="PATH",
        help="write the with-reorg run's metrics snapshot as JSON "
        "(reorg.moved_pages, reorg.runs, write.* included)",
    )
    args = parser.parse_args(argv)
    if args.sessions < 1:
        parser.error(f"--sessions must be >= 1: {args.sessions!r}")
    if args.disks < 1:
        parser.error(f"--disks needs a positive disk count: {args.disks!r}")
    if not (0.0 < args.delete_fraction < 1.0):
        parser.error(
            f"--delete-fraction must be in (0, 1): {args.delete_fraction!r}"
        )

    if args.scale is not None:
        config = ExperimentConfig(scale=args.scale, seed=args.seed)
    else:
        config = ExperimentConfig(seed=args.seed)
    spec = config.spec(args.series)
    objects = generate_map(spec, seed=config.seed)
    stride = max(2, round(1.0 / args.delete_fraction))
    doomed = [o.oid for i, o in enumerate(objects) if i % stride == 0]
    survivors = [o for i, o in enumerate(objects) if i % stride != 0]

    def run_one(with_reorg: bool):
        db = SpatialDatabase(
            smax_bytes=spec.smax_bytes,
            n_disks=args.disks,
            scheduler="overlap",
        )
        db.build(objects)
        for oid in doomed:
            db.delete(oid)
        reorg = Reorganizer(db, budget_pages=args.budget_pages)
        degraded = reorg.quality()
        traffic = make_traffic(
            survivors,
            args.sessions,
            rate_per_s=args.rate,
            seed=config.seed + 29,
        )
        sessions = list(traffic)
        if with_reorg:
            span = max(s.arrival_ms for s in traffic)
            sessions += reorg_traffic(
                reorg,
                rounds=args.rounds,
                period_ms=max(span / max(args.rounds, 1), 1.0),
            )
        report = db.run_traffic(
            sessions,
            buffer_pages=args.buffer_pages,
            admission=PriorityAdmission(classifier=class_of_session),
        )
        return db, reorg, report, degraded, reorg.quality()

    print(
        format_header(
            f"background reorganization — {args.series} "
            f"(scale={config.scale}), {args.sessions} sessions, "
            f"{args.disks} disks, {args.delete_fraction:.0%} deleted, "
            f"{args.rounds} rounds x {args.budget_pages} pages"
        )
    )
    rows = []
    baseline_p95 = None
    for with_reorg in (False, True):
        db, reorg, report, degraded, after = run_one(with_reorg)
        inter = report.traffic_class("interactive")
        p95 = inter.p95_ms if inter else 0.0
        if baseline_p95 is None:
            baseline_p95 = p95
        rows.append(
            (
                "with reorg" if with_reorg else "no reorg",
                f"{degraded:.3f}",
                f"{after:.3f}",
                reorg.moved_pages,
                reorg.runs,
                p95,
                f"{p95 / baseline_p95:.2f}x" if baseline_p95 else "1.00x",
            )
        )
        if with_reorg:
            recovered = after - degraded
            gap = 1.0 - degraded
            ratio = p95 / baseline_p95 if baseline_p95 else 1.0
            print()
            print(
                f"quality recovered {recovered:.3f} of a {gap:.3f} gap "
                f"({recovered / gap:.0%}) while foreground p95 stayed at "
                f"{ratio:.2f}x the no-reorg baseline"
                if gap > 0
                else "no degradation to recover"
            )
            if args.metrics_out is not None:
                db.metrics.write(
                    args.metrics_out,
                    extra={"run": {"moved_pages": reorg.moved_pages,
                                   "runs": reorg.runs,
                                   "quality_before": degraded,
                                   "quality_after": after,
                                   "interactive_p95_ms": p95}},
                )
                print(f"[metrics -> {args.metrics_out}]")
    print()
    print(
        format_table(
            (
                "run",
                "quality degraded",
                "quality after",
                "moved pages",
                "rounds",
                "int p95 ms",
                "p95 vs base",
            ),
            rows,
            title="paced reorganization vs. foreground traffic",
        )
    )
    return 0


_SUBCOMMANDS = {
    "workload": workload_main,
    "pagestore": pagestore_main,
    "iosched": iosched_main,
    "traffic": traffic_main,
    "tiering": tiering_main,
    "trace": trace_main,
    "storage": storage_main,
    "reorg": reorg_main,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[argv[0]](argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="dataset scale in (0, 1] (default: REPRO_SCALE or 0.08)",
    )
    parser.add_argument(
        "--seed", type=int, default=1994, help="dataset seed (default 1994)"
    )
    parser.add_argument(
        "--only",
        type=str,
        default=None,
        help="comma-separated experiment names "
        f"(valid: {', '.join(EXPERIMENTS)})",
    )
    args = parser.parse_args(argv)

    if args.scale is not None:
        config = ExperimentConfig(scale=args.scale, seed=args.seed)
    else:
        config = ExperimentConfig(seed=args.seed)
    ctx = ExperimentContext(config)

    if args.only:
        names = [n.strip() for n in args.only.split(",") if n.strip()]
        unknown = [n for n in names if n not in EXPERIMENTS]
        if unknown:
            parser.error(f"unknown experiments: {unknown}")
    else:
        names = list(EXPERIMENTS)

    print(
        format_header(
            "Brinkhoff & Kriegel, VLDB 1994 — reproduction "
            f"(scale={config.scale}, seed={config.seed})"
        )
    )
    for name in names:
        start = time.time()
        table = EXPERIMENTS[name](ctx)
        print()
        print(table)
        print(f"[{name}: {time.time() - start:.1f}s wall]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
