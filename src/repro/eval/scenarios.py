"""What ``python -m repro.eval`` runs: the shared steps and the bodies.

Every subcommand is the paper's one experimental method — a Table 1 map
× a storage configuration × a workload → one I/O table.  The runner in
:mod:`repro.eval.__main__` parses the flags and loads the
:class:`Dataset`; the helpers here are the rest of the shared middle
(:func:`build_database`, the :func:`observed` scope,
:func:`run_client_pair`, :func:`measure_windows`, :func:`reorg_runs`),
and each body below holds only what is unique to its subcommand.  The
``benchmarks/`` ablations call the same helpers with their own sizes.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
import time
from contextlib import contextmanager, nullcontext
from types import SimpleNamespace

from repro.data.workload import window_workload
from repro.database import SpatialDatabase
from repro.errors import ConfigurationError, PageCorruptionError, StorageError, TreeError
from repro.eval.context import Dataset, ExperimentContext
from repro.eval.figures import FIGURES
from repro.eval.report import format_rows
from repro.geometry.feature import SpatialObject
from repro.iosched.admission import PriorityAdmission
from repro.obs import (
    Tracer,
    register_store_devices,
    trace_device_totals,
    tracing,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.pagestore import FaultyPageStore, FilePageStore, SimulatedCrash, flip_byte
from repro.reorg import Reorganizer, reorg_traffic
from repro.workload.streams import mixed_stream
from repro.workload.trace import load_trace, save_trace
from repro.workload.traffic import class_of_session, make_traffic


class UsageError(Exception):
    """A body found the command line unusable only after it started
    (a trace file that cannot be replayed); the runner reports it the
    way the parser reports a bad flag."""


# ----------------------------------------------------------------------
# the shared middle
# ----------------------------------------------------------------------
def build_database(
    dataset: Dataset,
    objects: list[SpatialObject] | None = None,
    attach_to: SpatialDatabase | None = None,
    **config,
) -> SpatialDatabase:
    """A built database over the dataset's map (or the given part of
    it), standalone or attached to another one's disk; ``config`` goes
    to :class:`SpatialDatabase` as is.  A cluster organization takes
    the series' Smax unless told otherwise (the others ignore it)."""
    config.setdefault("smax_bytes", dataset.spec.smax_bytes)
    db = SpatialDatabase(**config) if attach_to is None else attach_to.attach(**config)
    db.build(dataset.objects if objects is None else objects)
    return db


def _tagged(path: str | None, tag: str, multi: bool) -> str | None:
    """Suffix an output path per configuration when a subcommand runs
    several (``trace.json`` -> ``trace.lru.json`` for policy ``lru``)."""
    if path is None or not multi:
        return path
    root, ext = os.path.splitext(path)
    safe = tag.replace("/", "-").replace(" ", "-")
    return f"{root}.{safe}{ext}" if ext else f"{path}.{safe}"


def _table(title: str, rows: list[dict]) -> None:
    print("\n" + format_rows(title, rows))


def _square(rng: random.Random, reach: float, size: float):
    """A ``size``-sided window whose lower corner is uniform in
    ``[0, reach]²``, as ``(xmin, ymin, xmax, ymax)``."""
    x = rng.uniform(0.0, reach)
    y = rng.uniform(0.0, reach)
    return (x, y, x + size, y + size)


@contextmanager
def _profiled(label: str, out: str | None):
    """Run the block under cProfile and print the top-15
    cumulative-time entries; when ``out`` is given the raw pstats dump
    is written there as well (readable with ``python -m pstats``)."""
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


@contextmanager
def observed(
    args,
    db: SpatialDatabase | None = None,
    tag: str = "",
    multi: bool = False,
    *,
    profile: str | None = None,
    quiet: bool = False,
):
    """The one observation scope of the CLI.

    Around its block it installs a span tracer on ``db``'s devices if
    the subcommand was given ``--trace-out``, and — when ``profile``
    names the block — runs it under cProfile if ``--profile`` /
    ``--profile-out`` was given.  On a clean exit it writes and
    validates the Chrome trace and writes ``db``'s metrics snapshot
    (``--metrics-out``) with whatever the block stored in ``.extra``.
    When a subcommand runs several configurations (``multi``) every
    output path is suffixed with the configuration's ``tag``.

    Yields a record with ``.tracer`` (``None`` when not tracing),
    ``.extra``, and after the exit ``.trace`` (the exported JSON) and
    ``.lines`` (one message per file written, printed in brackets
    unless ``quiet``).
    """
    obs = SimpleNamespace(tracer=None, extra=None, trace=None, lines=[])
    trace_out = metrics_out = None
    if db is not None:
        trace_out = _tagged(args.trace_out, tag, multi)
        metrics_out = _tagged(args.metrics_out, tag, multi)
    if trace_out is not None:
        obs.tracer = Tracer(label=f"{args.scenario}:{tag}")
        register_store_devices(obs.tracer, db.disk)
    profile_out = _tagged(args.profile_out, tag, multi)
    profiling = profile is not None and (args.profile or profile_out is not None)
    with _profiled(profile, profile_out) if profiling else nullcontext():
        with tracing(obs.tracer) if obs.tracer is not None else nullcontext():
            yield obs
    if obs.tracer is not None:
        obs.trace = write_chrome_trace(trace_out, obs.tracer)
        counts = validate_chrome_trace(obs.trace)
        rendered = ", ".join(f"{k}:{v}" for k, v in sorted(counts.items()))
        obs.lines.append(
            f"trace: {sum(counts.values())} events ({rendered}) -> {trace_out}"
        )
    if metrics_out is not None:
        db.metrics.write(metrics_out, extra=obs.extra)
        obs.lines.append(f"metrics: {len(db.metrics)} metrics -> {metrics_out}")
    if not quiet:
        for line in obs.lines:
            print(f"[{line}]")


def run_client_pair(
    db: SpatialDatabase,
    dataset: Dataset,
    queries: int,
    buffer_pages: int,
    admission: str = "none",
):
    """Two interleaved client sessions, ``alpha`` and ``beta``, each a
    deterministic mixed stream of ``queries`` windows and half as many
    points.  Under ``priority`` admission ``beta`` is the analytics
    class."""
    streams = {
        client: mixed_stream(
            dataset.objects,
            n_windows=queries,
            n_points=queries // 2,
            seed=dataset.config.seed + offset,
        )
        for client, offset in (("alpha", 3), ("beta", 5))
    }
    policy = None if admission == "none" else admission
    if admission == "priority":
        policy = PriorityAdmission(classes={"beta": "analytics"})
    return db.run_sessions(streams, buffer_pages=buffer_pages, admission=policy)


def measure_windows(db: SpatialDatabase, windows) -> tuple[float, float, int]:
    """(device ms, response ms, answers) summed per query over a window
    workload — response is each query's busiest disk."""
    device = response = 0.0
    answers = 0
    for window in windows:
        mark = db.disk.snapshot()
        answers += len(db.storage.window_query(window).objects)
        cost = db.disk.cost_since(mark)
        device += cost.total_ms
        response += cost.response_ms
    return device, response, answers


def reorg_runs(
    dataset: Dataset,
    *,
    sessions: int,
    rate: float,
    buffer_pages: int,
    delete_fraction: float,
    budget_pages: int,
    rounds: int,
    **config,
):
    """Degrade a database by online deletes, then serve the same
    foreground traffic without and with interleaved reorganization
    rounds.  Yields ``(with_reorg, db, reorganizer, report, degraded
    quality)`` for the two runs."""
    doomed, survivors = dataset.deleted(delete_fraction)
    for with_reorg in (False, True):
        db = build_database(dataset, scheduler="overlap", **config)
        for obj in doomed:
            db.delete(obj.oid)
        reorganizer = Reorganizer(db, budget_pages=budget_pages)
        degraded = reorganizer.quality()
        foreground = make_traffic(
            survivors, sessions, rate_per_s=rate, seed=dataset.config.seed + 29
        )
        served = list(foreground)
        if with_reorg:
            span = max(s.arrival_ms for s in foreground)
            served += reorg_traffic(
                reorganizer,
                rounds=rounds,
                period_ms=max(span / max(rounds, 1), 1.0),
            )
        report = db.run_traffic(
            served,
            buffer_pages=buffer_pages,
            admission=PriorityAdmission(classifier=class_of_session),
        )
        yield with_reorg, db, reorganizer, report, degraded


# ----------------------------------------------------------------------
# the bodies: run(args, dataset) -> exit code
# ----------------------------------------------------------------------
def figures(args, dataset: Dataset) -> int:
    """Regenerate the selected tables and figures in sequence."""
    ctx = ExperimentContext(dataset.config)
    for name in args.only or FIGURES:
        start = time.time()
        figure = FIGURES[name]
        print("\n" + figure.render(ctx, list(figure.rows(ctx))))
        print(f"[{name}: {time.time() - start:.1f}s wall]")
    return 0


def workload(args, dataset: Dataset) -> int:
    config, objects = dataset.config, dataset.objects
    # Hold the tail of the map out of the build: the stream inserts it.
    held_out = max(1, len(objects) // 50)
    resident, incoming = objects[:-held_out], objects[-held_out:]
    partner = None
    if not args.no_join:
        # Series X-1 joins its second map X-2.
        other = f"{args.series[:-1]}2" if args.series.endswith("1") else args.series
        partner = ExperimentContext(config).dataset(other)
    replay = args.trace is not None and os.path.exists(args.trace)
    recorded = False
    multi = len(args.policies) > 1
    summary = []
    for policy in args.policies:
        db = build_database(
            dataset,
            resident,
            organization=args.organization,
            name="r",
            n_disks=args.disks,
            scheduler=args.scheduler,
            prefetch=args.prefetch,
        )
        join_target = None
        if partner is not None:
            join_target = build_database(
                partner, attach_to=db, name="s", organization=args.organization
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
                raise UsageError(f"cannot replay {args.trace}: {exc}{hint}")
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
        with observed(args, db, policy, multi, profile=policy) as obs:
            report = db.run_workload(
                stream, buffer_pages=args.buffer_pages, policy=policy
            )
            obs.extra = {"run": {"policy": policy, "hit_rate": report.hit_rate,
                                 "device_ms": report.total_io.total_ms}}
        print()
        print(report.format())
        _table(
            "operation latency percentiles",
            [
                {"phase": p.name, "ops": p.operations,
                 "p50 ms": p.p50_ms, "p95 ms": p.p95_ms}
                for p in report.phases
            ],
        )
        summary.append(
            {
                "policy": policy,
                "hit rate": f"{report.hit_rate:.1%}",
                "total io ms": report.total_io.total_ms,
            }
        )
    _table("policy comparison", summary)
    return 0


def pagestore(args, dataset: Dataset) -> int:
    windows = window_workload(
        dataset.objects,
        args.window_area,
        n_queries=args.queries,
        seed=dataset.config.seed + 7,
    )
    rows = []
    for placement in args.placements:
        for n_disks in args.disks:
            # A single disk has no placement decision: run it once.
            label = placement if n_disks > 1 else "(single disk)"
            if any((r["placement"], r["disks"]) == (label, n_disks) for r in rows):
                continue
            db = build_database(dataset, n_disks=n_disks, placement=placement)
            device, response, _ = measure_windows(db, windows)
            rows.append(
                {
                    "placement": label,
                    "disks": n_disks,
                    "build (s)": db.storage.construction_io.total_s,
                    "device ms": device,
                    "response ms": response,
                    "parallelism": device / response if response else 1.0,
                }
            )
    _table("declustered window-query execution", rows)
    return 0


def iosched(args, dataset: Dataset) -> int:
    configs = [
        (scheduler, prefetch, admission)
        for scheduler in args.schedulers
        # Admission shapes dispatch on the virtual clock: the sync
        # scheduler has none, so only 'none' applies there.
        for prefetch in args.prefetch
        for admission in (args.admission if scheduler == "overlap" else ["none"])
    ]
    multi = len(configs) > 1
    measured = []
    with observed(args, profile="iosched ablation"):
        for scheduler, prefetch, admission in configs:
            db = build_database(
                dataset,
                n_disks=args.disks,
                placement=args.placement,
                scheduler=scheduler,
                prefetch=prefetch,
            )
            tag = f"{scheduler}.{prefetch}.{admission}"
            with observed(args, db, tag, multi) as obs:
                report = run_client_pair(
                    db, dataset, args.queries, args.buffer_pages, admission
                )
                obs.extra = {"run": {"scheduler": scheduler, "prefetch": prefetch,
                                     "admission": admission,
                                     "makespan_ms": report.makespan_ms}}
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
        measured[0][3].makespan_ms,
    )
    _table(
        "interleaved client sessions over the I/O scheduler",
        [
            {
                "scheduler": scheduler,
                "prefetch": prefetch,
                "admission": admission,
                "hit rate": f"{r.hit_rate:.1%}",
                "device ms": r.total_io.total_ms,
                "client response ms": r.total_response_ms,
                "queue ms": sum(c.queueing_ms for c in r.clients),
                "p95 ms": max((c.p95_ms for c in r.clients), default=0.0),
                "makespan ms": r.makespan_ms,
                "speedup": baseline_ms / r.makespan_ms if r.makespan_ms else 1.0,
            }
            for scheduler, prefetch, admission, r in measured
        ],
    )
    return 0


def traffic(args, dataset: Dataset) -> int:
    def build_db():
        return build_database(
            dataset, n_disks=args.disks, placement=args.placement, scheduler="overlap"
        )

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
        return None if name == "none" else name

    def run_one(db, obs, rate, admission_name):
        sessions = make_traffic(
            dataset.objects,
            args.sessions,
            arrival=args.arrival,
            rate_per_s=rate,
            seed=dataset.config.seed + 29,
            ops_per_session=args.ops_per_session,
            think_ms=args.think_ms,
        )
        report = db.run_traffic(
            sessions,
            buffer_pages=args.buffer_pages,
            admission=make_policy(admission_name),
        )
        obs.extra = {"run": {"arrival": args.arrival, "sessions": args.sessions,
                             "makespan_ms": report.makespan_ms}}
        return report

    with observed(args, profile="traffic"):
        if not args.ablation:
            db = build_db()
            with observed(args, db) as obs:
                start = time.time()
                report = run_one(db, obs, args.rate, args.admission)
                wall = time.time() - start
                print()
                print(report.format())
                print(f"[traffic: {wall:.1f}s wall]")
            return 0

        # 10x-overload ablation: admission only matters once the open
        # queues actually build, so compare none vs priority at the
        # base rate and again at 10x.
        rows = []
        for rate in (args.rate, args.rate * 10.0):
            for admission_name in ("none", "priority"):
                db = build_db()
                with observed(args, db, f"{rate:g}.{admission_name}", True) as obs:
                    report = run_one(db, obs, rate, admission_name)
                inter = report.traffic_class("interactive")
                ana = report.traffic_class("analytics")
                rows.append(
                    {
                        "rate/s": f"{rate:g}",
                        "admission": admission_name,
                        "int p50 ms": inter.p50_ms if inter else 0.0,
                        "int p99 ms": inter.p99_ms if inter else 0.0,
                        "ana p99 ms": ana.p99_ms if ana else 0.0,
                        "makespan ms": report.makespan_ms,
                        "sessions/s": f"{report.throughput_per_s:.1f}",
                    }
                )
        _table("admission under overload (open-loop arrivals)", rows)
    return 0


def tiering(args, dataset: Dataset) -> int:
    bound = dataset.bound
    rng = random.Random(dataset.config.seed + 23)
    # Seeded draw: deterministic for a given seed, and exact for any
    # hot fraction (a modulo pattern only works for n/(n+1)).
    queries = [
        _square(
            rng,
            (0.18 if rng.random() < args.hot_fraction else 0.9) * bound,
            0.08 * bound,
        )
        for _ in range(args.queries)
    ]

    rows = []
    multi = len(args.migrations) > 1
    with observed(args, profile="tiering ablation"):
        for migration in args.migrations:
            db = build_database(
                dataset,
                tiering=None if migration == "none" else migration,
                fast_pages=args.fast_pages,
            )
            mark = db.disk.snapshot()
            with observed(args, db, migration, multi) as obs:
                session = nullcontext()
                if obs.tracer is not None:
                    session = obs.tracer.span(
                        "queries", cat="session", args={"migration": migration}
                    )
                with session:
                    for window in queries:
                        db.window_query(*window)
                cost = db.disk.cost_since(mark)
                obs.extra = {"run": {"migration": migration,
                                     "device_ms": cost.total_ms}}
            store, tiered = db.disk, db.tiering != "none"
            rows.append(
                {
                    "migration": migration,
                    "device ms": cost.total_ms,
                    "response ms": cost.response_ms,
                    "promotions": store.promotions if tiered else 0,
                    "demotions": store.demotions if tiered else 0,
                    "fast pages": store.fast_resident if tiered else 0,
                }
            )
    _table("skewed window workload over the tiered store", rows)
    return 0


def trace(args, dataset: Dataset) -> int:
    db = build_database(
        dataset,
        n_disks=args.disks,
        placement=args.placement,
        scheduler=args.scheduler,
        prefetch=args.prefetch,
    )
    devices = db.disk.disks
    before = [device.total_ms for device in devices]
    tag = f"{args.scheduler}.{args.prefetch}.{args.admission}"
    with observed(args, db, tag, quiet=True) as obs:
        report = run_client_pair(
            db, dataset, args.queries, args.buffer_pages, args.admission
        )
        obs.extra = {"run": {"scheduler": args.scheduler,
                             "prefetch": args.prefetch,
                             "admission": args.admission,
                             "makespan_ms": report.makespan_ms}}
    tracer = obs.tracer
    span_totals = tracer.device_totals()
    json_totals = trace_device_totals(obs.trace)
    open_spans = tracer.open_spans()

    rows = []
    worst = 0.0
    for device, start_ms in zip(devices, before):
        track = tracer.device_track(device)
        measured = device.total_ms - start_ms
        spanned = span_totals.get(track, 0.0)
        exported = json_totals.get(track, 0.0)
        worst = max(worst, abs(spanned - measured), abs(exported - measured))
        rows.append(
            {"device": track, "DiskStats ms": measured,
             "span total ms": spanned, "exported ms": exported}
        )
    _table("per-device span totals vs. device-time accounting", rows)
    print()
    print(obs.lines[0])
    print(
        f"makespan: {report.makespan_ms:.1f} ms virtual, "
        f"hit rate {report.hit_rate:.1%}, "
        f"device {report.total_io.total_ms:.1f} ms"
    )
    for line in obs.lines[1:]:
        print(line)
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


def storage(args, dataset: Dataset) -> int:
    if args.path is not None:
        return _storage(args, dataset, args.path)
    with tempfile.TemporaryDirectory(
        prefix="repro-storage-", ignore_cleanup_errors=True
    ) as tmpdir:
        return _storage(args, dataset, os.path.join(tmpdir, "spatial.db"))


def _storage(args, dataset: Dataset, path: str) -> int:
    config, bound = dataset.config, dataset.bound
    report: dict = {"series": args.series, "scale": config.scale, "seed": args.seed}
    rng = random.Random(config.seed + 41)
    windows = [_square(rng, 0.9 * bound, 0.1 * bound) for _ in range(args.queries)]

    def answers(db):
        """(sorted oids, simulated ms, wall ms) per window, from a
        cold head each time so both stores price identical runs."""
        out = []
        for window in windows:
            db.disk.invalidate_head()
            t0 = time.perf_counter()
            res = db.window_query(*window)
            wall = (time.perf_counter() - t0) * 1e3
            out.append((sorted(o.oid for o in res.objects), res.io.total_ms, wall))
        return out

    # -- phase 1: simulated vs file-backed cross-validation ---------
    db = build_database(dataset)
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
    _table(
        f"{saved_pages} pages mapped, {scrubbed} scrubbed clean, "
        f"epoch {fdb.disk.epoch}",
        [
            {"store": "simulated (in-memory)", "simulated ms": f"{sim_ms:.3f}",
             "wall-clock ms": "-", "wall/sim": "-"},
            {
                "store": "file-backed (measured)",
                "simulated ms": f"{file_ms:.3f}",
                "wall-clock ms": f"{wall_ms:.3f}",
                "wall/sim": f"{wall_ms / file_ms:.4f}" if file_ms else "-",
            },
        ],
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
    try:
        fdb.check()
    except (StorageError, TreeError) as exc:
        print(f"ERROR: the file-backed reopen fails its state check: {exc}")
        fdb.close()
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
        x, y, x2, y2 = _square(ins_rng, 0.8 * bound, 0.02 * bound)
        db.insert_polyline(next_oid + i, [(x, y), (x2, y2)], size_bytes=256)
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
            try:
                rdb.check()
            except (StorageError, TreeError):
                ok = False
            failures += not ok
            matrix_rows.append(
                {
                    "crash after": n,
                    "write": "torn" if torn else "clean",
                    "epoch": epoch,
                    "recovered": state,
                    "check": "ok" if ok else "MISMATCH",
                }
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
    _table(
        f"crash matrix — {total_writes} writes per save, base epoch {base_epoch}",
        matrix_rows,
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
    with observed(args, db) as obs:
        obs.extra = {"storage": report["crash_matrix"]}
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


def reorg(args, dataset: Dataset) -> int:
    rows = []
    baseline_p95 = None
    for with_reorg, db, reorganizer, report, degraded in reorg_runs(
        dataset,
        sessions=args.sessions,
        rate=args.rate,
        buffer_pages=args.buffer_pages,
        delete_fraction=args.delete_fraction,
        budget_pages=args.budget_pages,
        rounds=args.rounds,
        n_disks=args.disks,
    ):
        after = reorganizer.quality()
        inter = report.traffic_class("interactive")
        p95 = inter.p95_ms if inter else 0.0
        if baseline_p95 is None:
            baseline_p95 = p95
        ratio = p95 / baseline_p95 if baseline_p95 else 1.0
        rows.append(
            {
                "run": "with reorg" if with_reorg else "no reorg",
                "quality degraded": f"{degraded:.3f}",
                "quality after": f"{after:.3f}",
                "moved pages": reorganizer.moved_pages,
                "rounds": reorganizer.runs,
                "int p95 ms": p95,
                "p95 vs base": f"{ratio:.2f}x",
            }
        )
        if with_reorg:
            recovered = after - degraded
            gap = 1.0 - degraded
            print()
            print(
                f"quality recovered {recovered:.3f} of a {gap:.3f} gap "
                f"({recovered / gap:.0%}) while foreground p95 stayed at "
                f"{ratio:.2f}x the no-reorg baseline"
                if gap > 0
                else "no degradation to recover"
            )
            with observed(args, db) as obs:
                obs.extra = {"run": {"moved_pages": reorganizer.moved_pages,
                                     "runs": reorganizer.runs,
                                     "quality_before": degraded,
                                     "quality_after": after,
                                     "interactive_p95_ms": p95}}
    _table("paced reorganization vs. foreground traffic", rows)
    return 0
