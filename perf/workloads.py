"""The five benchmark workloads: seeded inputs, set-up, one repetition.

Every query and traffic generator lives here and takes the seed, so
later edits to ``repro.workload.make_traffic`` / ``mixed_stream`` cannot
change the load.  Point queries are sampled at stored-object vertices:
window-centre points (what the library's generators use) return zero
answers on line data and would never exercise refinement.

A workload drives the system strictly from outside: ``SpatialDatabase``
and the layers' public functions, one process, one thread.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import struct
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from repro import SpatialDatabase
from repro.constants import DEFAULT_DATA_SPACE
from repro.data import generate_map, scaled, spec_for
from repro.geometry.rect import Rect
from repro.obs import tracing
from repro.pagestore import FaultyPageStore, SimulatedCrash
from repro.reorg import Reorganizer
from repro.workload import TrafficSession

from perf.oracle import Oracle, join_counts, mbr_rows, stream_totals

__all__ = ["WORKLOADS", "SMOKE_SCALE", "Rep", "make_workload"]

WORK_DIR = Path(__file__).resolve().parent / ".work"
"""Scratch space of ``persist_cycle`` (inside the checkout, git-ignored)."""

SMOKE_SCALE = 0.005
_SPARE_ID_OFFSET = 1_000_000


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
MAP_SEED = 1994
"""The maps are fixed; ``--seed`` draws the queries, the traffic, the
updates and (for the join) which objects are stored.  Two seeds of the
map generator differ threefold in answers per window, which would put
every per-op metric far outside any regression bound."""

_POOL_FACTOR = 16


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng((seed, tag))


def dataset(series: str, scale: float, id_offset: int = 0):
    """One synthetic map (``repro.data.tiger``) and its series spec."""
    spec = scaled(spec_for(series), scale)
    return spec, generate_map(spec, seed=MAP_SEED, id_offset=id_offset)


def dataset_digest(objects) -> str:
    """Short digest over ids, byte sizes and vertex coordinates."""
    h = hashlib.sha256()
    for obj in objects:
        h.update(struct.pack("<qq", obj.oid, obj.size_bytes))
        h.update(np.asarray(obj.geometry.vertices, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def windows(objects, area: float, n: int, rng) -> list[Rect]:
    """``n`` square windows of ``area`` (fraction of the data space)
    whose centres follow the MBR distribution (Section 5.4).

    Answers per window are heavy-tailed on clustered maps: a plain
    sample of a few hundred moves its mean by 6 % and its median by
    14 % between seeds.  So the windows come from a fixed pool of
    ``16 n``, ranked by how many stored MBRs each meets and cut into
    ``n`` strata of 16 neighbours; the seed picks one window from each
    stratum, and the order.  Every seed draws other windows with the
    same spread of result sizes."""
    space = DEFAULT_DATA_SPACE
    side = math.sqrt(area) * space
    mbrs = mbr_rows(objects)
    fixed = _rng(MAP_SEED, int(area * 1e9))
    size = n * _POOL_FACTOR
    lo = mbrs[fixed.integers(0, len(objects), size)]
    centres = lo[:, :2] + fixed.random((size, 2)) * (lo[:, 2:] - lo[:, :2])
    corners = np.clip(centres - side / 2.0, 0.0, space - side)
    pool = np.hstack([corners, corners + side])
    met = np.concatenate(
        [
            (
                (mbrs[:, 0] <= chunk[:, None, 2])
                & (mbrs[:, 2] >= chunk[:, None, 0])
                & (mbrs[:, 1] <= chunk[:, None, 3])
                & (mbrs[:, 3] >= chunk[:, None, 1])
            ).sum(axis=1)
            for chunk in np.array_split(pool, max(1, size // 256))
        ]
    )
    ranked = pool[np.argsort(met, kind="stable")]
    picks = np.arange(n) * _POOL_FACTOR + rng.integers(0, _POOL_FACTOR, n)
    rng.shuffle(picks)
    return [Rect(*ranked[i].tolist()) for i in picks]


def vertex_points(objects, n: int, rng) -> list[tuple[float, float]]:
    """Points on stored objects: a random vertex of a random object."""
    out = []
    for pick in rng.integers(0, len(objects), n):
        vertices = objects[int(pick)].geometry.vertices
        out.append(vertices[int(rng.integers(0, len(vertices)))])
    return out


def _subset(objects, share: float, rng) -> list:
    """A random ``share`` of the objects, in their original order."""
    keep = np.sort(rng.choice(len(objects), size=int(len(objects) * share), replace=False))
    return [objects[int(i)] for i in keep]


def traffic_sessions(objects, n_sessions: int, seed: int) -> list[TrafficSession]:
    """Open-loop Poisson arrivals at 10 sessions per virtual second.
    Every 20th session is analytics with 1-8 windows of area 2e-2, the
    rest issue one interactive op, half of them a window of area 1e-3
    and half a vertex point; the seed shuffles which session is which,
    so the op mix is the same for every seed."""
    rng = _rng(seed, 0x7AFF1C)
    arrivals = np.cumsum(rng.exponential(1000.0 / 10.0, n_sessions))
    n_analytics = max(1, n_sessions // 20)
    bulk_sizes = [i % 8 + 1 for i in range(n_analytics)]
    n_interactive = n_sessions - n_analytics
    bulk = iter(windows(objects, 2e-2, sum(bulk_sizes), rng))
    small = iter(windows(objects, 1e-3, (n_interactive + 1) // 2, rng))
    points = iter(vertex_points(objects, n_interactive // 2, rng))
    kinds = ["window", "point"] * (n_interactive // 2) + ["window"] * (n_interactive % 2)
    scripts = [[("window", next(small))] if k == "window" else [("point", *next(points))] for k in kinds]
    scripts += [[("window", next(bulk)) for _ in range(size)] for size in bulk_sizes]
    order = rng.permutation(n_sessions)
    sessions = []
    for i, arrival in enumerate(arrivals):
        script = scripts[int(order[i])]
        analytics = int(order[i]) >= n_interactive
        sessions.append(
            TrafficSession(
                name=f"{'ana' if analytics else 'int'}-{i:06d}",
                klass="analytics" if analytics else "interactive",
                arrival_ms=float(arrival),
                operations=script,
            )
        )
    return sessions


def mixed_operations(base, spare, n: int, seed: int) -> list[tuple]:
    """``n`` each of windows (1e-3), vertex points, inserts (drawn from
    the ``spare`` map) and deletes of stored oids, interleaved."""
    rng = _rng(seed, 0x313D)
    rects = windows(base, 1e-3, n, rng)
    points = vertex_points(base, n, rng)
    inserts = rng.choice(len(spare), size=n, replace=False)
    doomed = rng.choice(len(base), size=n, replace=False)
    stream: list[tuple] = []
    for i in range(n):
        stream.append(("window", rects[i]))
        stream.append(("point", *points[i]))
        stream.append(("insert", spare[int(inserts[i])]))
        stream.append(("delete", base[int(doomed[i])].oid))
    return stream


# ----------------------------------------------------------------------
# the result of one repetition
# ----------------------------------------------------------------------
@dataclass
class Rep:
    """Raw timings and the correctness tally of one repetition.

    ``started`` (a ``perf_counter`` reading), ``seconds`` and ``ops``
    cover the whole timed region (``ops_per_s``);
    ``samples`` are the raw seconds-per-op of the workload's latency
    probe (``op_p50_ms``): one per individually timed op where the
    driver issues the ops itself, else the served call's time per op.
    ``phases`` are named sub-intervals, ``probes`` further per-op
    samples and ``counters`` the program's own counts, all three for the
    layer table.
    """

    started: float
    seconds: float
    ops: int
    samples: list[float]
    phases: dict[str, float] = field(default_factory=dict)
    probes: dict[str, list[float]] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool, ops: int = 1) -> None:
        """Count ``ops`` operations as attempted, and as failed unless ``ok``."""
        self.attempted += ops
        if not ok:
            self.failed += ops


def _oids(result) -> frozenset[int]:
    return frozenset(obj.oid for obj in result.objects)


def _check_report_totals(rep: Rep, report, expected: dict[str, tuple[int, int]]) -> None:
    """Per-kind result totals of a workload report against the oracle;
    a mismatch fails every op of that kind."""
    for kind, (count, results) in expected.items():
        phase = report.phase(kind)
        ok = phase is not None and phase.operations == count and phase.results == results
        rep.check(ok, count)


def _written_pages(db) -> float:
    """Pages written through the database's pools (``write.pages``)."""
    return sum(
        value for key, value in db.metrics.snapshot().items() if key.startswith("write.pages")
    )


def _sim_io_ms(results) -> float:
    return sum(r.io.total_ms for r in results)


def _timed_queries(call, queries) -> tuple[list, list[float]]:
    """Issue each query through ``call``, timing every op individually."""
    results, latencies = [], []
    for query in queries:
        start = perf_counter()
        result = call(*query)
        latencies.append(perf_counter() - start)
        results.append(result)
    return results, latencies


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    """``setup(seed)`` is the timed set-up: the maps, the databases the
    repetitions share and the seeded inputs.  ``expect()`` then computes
    the oracle's answers (once, untimed: it is the benchmark's work, not
    the program's).  ``rep()`` runs one repetition and checks its
    outputs.  ``sizes`` documents the load."""

    name = ""
    why = ""
    probe = ""

    def __init__(self, smoke: bool = False):
        self.smoke = smoke
        self.sizes: dict[str, float] = {}
        self.digest = ""

    def _n(self, full: int) -> int:
        """An op count, cut to a tenth for the smoke test."""
        return max(10, full // 10) if self.smoke else full

    def _scale(self, full: float) -> float:
        return SMOKE_SCALE if self.smoke else full

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def expect(self) -> None:
        raise NotImplementedError

    def rep(self) -> Rep:
        raise NotImplementedError

    def final_check(self) -> tuple[int, int]:
        """Checks that run once after the repetitions: ``(attempted, failed)``."""
        return 0, 0

    def traced_extras(self, timer, untraced_ref_s: float) -> dict[str, float]:
        """Layer metrics only this workload measures, taken after the
        traced repetition; ``timer.factor()`` scales what is timed here
        and ``untraced_ref_s`` is the median untraced repetition."""
        return {}


class TrafficOpen(Workload):
    name = "traffic_open"
    why = (
        "served path: 300 open-loop Poisson sessions (349 ops) through run_traffic on 4 disks under "
        "the overlap scheduler with a 256-page pool over 2292 pages, so misses and evictions dominate"
    )
    probe = "one run_traffic call, per op"

    def setup(self, seed: int) -> None:
        spec, self.objects = dataset("A-1", self._scale(0.05))
        self.digest = dataset_digest(self.objects)
        self.db = SpatialDatabase(
            avg_object_size=spec.avg_object_size,
            n_disks=4,
            placement="spatial",
            scheduler="overlap",
        )
        self.db.build(self.objects)
        self.sessions = traffic_sessions(self.objects, self._n(300), seed)
        self.n_ops = sum(len(s.operations) for s in self.sessions)
        self.pool_pages = 16 if self.smoke else 256
        self.sizes = {
            "objects": len(self.objects),
            "pages": self.db.occupied_pages(),
            "pool_pages": self.pool_pages,
            "sessions": len(self.sessions),
            "ops": self.n_ops,
        }

    def expect(self) -> None:
        operations = [op for s in self.sessions for op in s.operations]
        self.expected = stream_totals(Oracle(self.objects), operations)

    def rep(self) -> Rep:
        mark = self.db.disk.snapshot()
        written = _written_pages(self.db)
        start = perf_counter()
        report = self.db.run_traffic(self.sessions, buffer_pages=self.pool_pages)
        seconds = perf_counter() - start
        rep = Rep(start, seconds, self.n_ops, [seconds / self.n_ops])
        _check_report_totals(rep, report, self.expected)
        io = self.db.disk.stats_since(mark)
        interactive = report.traffic_class("interactive")
        rep.counters = {
            "writeback_pages": _written_pages(self.db) - written,
            "requests": io.requests,
            "pages": io.pages_transferred,
            "sim_device_ms": io.total_ms,
            "sim_parallelism": self.db.disk.cost_since(mark).parallelism,
            "sim_queueing_ms": sum(c.queueing_ms for c in report.classes),
            "sim_throughput_per_s": report.throughput_per_s,
            "sim_interactive_p99_ms": interactive.p99_ms if interactive else 0.0,
        }
        return rep

    def traced_extras(self, timer, untraced_ref_s: float) -> dict[str, float]:
        """The cost of looking: the same repetition with the program's
        own span tracer (``repro.obs.tracing``) switched on."""
        timer.factor()
        with tracing():
            rep = self.rep()
        return {"obs.tracer_enabled_ratio": rep.seconds * timer.factor() / untraced_ref_s}


class QueryCold(Workload):
    name = "query_cold"
    why = (
        "cold pricing path: 300 windows then 750 vertex points, each timed alone, on the default "
        "sync one-disk pass-through database; scheduler clock, engine and caching are bypassed"
    )
    probe = "one point query"

    def setup(self, seed: int) -> None:
        self.spec, self.objects = dataset("A-1", self._scale(0.05))
        self.digest = dataset_digest(self.objects)
        self.db = self.build("cluster")
        rng = _rng(seed, 0xC01D)
        self.windows = [r.as_tuple() for r in windows(self.objects, 1e-3, self._n(300), rng)]
        self.points = vertex_points(self.objects, self._n(750), rng)
        self.sim_io_ms: float | None = None
        self.sizes = {
            "objects": len(self.objects),
            "pages": self.db.occupied_pages(),
            "pool_pages": 0,
            "ops": len(self.windows) + len(self.points),
        }

    def expect(self) -> None:
        oracle = Oracle(self.objects)
        self.window_answers = [oracle.window(Rect(*w)) for w in self.windows]
        self.point_answers = [oracle.point(x, y) for x, y in self.points]

    def build(self, organization: str) -> SpatialDatabase:
        db = SpatialDatabase(
            organization=organization, avg_object_size=self.spec.avg_object_size
        )
        db.build(self.objects)
        return db

    def run_queries(self, db) -> tuple[list, list[float], list, list[float]]:
        window_results, window_lat = _timed_queries(db.window_query, self.windows)
        point_results, point_lat = _timed_queries(db.point_query, self.points)
        return window_results, window_lat, point_results, point_lat

    def rep(self) -> Rep:
        mark = self.db.disk.snapshot()
        start = perf_counter()
        window_results, window_lat, point_results, point_lat = self.run_queries(self.db)
        seconds = perf_counter() - start
        rep = Rep(start, seconds, len(window_lat) + len(point_lat), point_lat)
        rep.probes = {"window": window_lat, "point": point_lat}
        for result, answer in zip(window_results, self.window_answers):
            rep.check(_oids(result) == answer)
        for result, answer in zip(point_results, self.point_answers):
            rep.check(_oids(result) == answer)
        io = self.db.disk.stats_since(mark)
        rep.counters = {
            "requests": io.requests,
            "pages": io.pages_transferred,
            "sim_device_ms": io.total_ms,
            "sim_parallelism": 1.0,
        }
        # Cold pricing is deterministic: every repetition must pay the
        # same simulated I/O for the same queries.
        sim_io_ms = _sim_io_ms(window_results + point_results)
        if self.sim_io_ms is None:
            self.sim_io_ms = sim_io_ms
        rep.check(sim_io_ms == self.sim_io_ms)
        return rep

    def traced_extras(self, timer, untraced_ref_s: float) -> dict[str, float]:
        """The same query list once through the two other organizations."""
        out = {}
        for organization in ("secondary", "primary"):
            db = self.build(organization)
            timer.factor()
            start = perf_counter()
            self.run_queries(db)
            seconds = perf_counter() - start
            per_op = seconds * timer.factor() / (len(self.windows) + len(self.points))
            out[f"storage.{organization}_ms_per_op"] = per_op * 1000.0
        return out


class UpdateMixed(Workload):
    name = "update_mixed"
    why = (
        "write path beside reads: fresh one-by-one build of 2629 objects, then run_workload over "
        "200 each of windows, points, inserts, deletes with a 4096-page pool that fits the database"
    )
    probe = "one run_workload call, per op"

    def setup(self, seed: int) -> None:
        scale = self._scale(0.02)
        self.spec, self.base = dataset("A-1", scale)
        self.digest = dataset_digest(self.base)
        _, self.spare = dataset("A-2", scale, id_offset=_SPARE_ID_OFFSET)
        self.stream = mixed_operations(self.base, self.spare, self._n(200), seed)
        self.sizes = {
            "objects": len(self.base),
            "pool_pages": 4096,
            "ops": len(self.stream),
        }

    def expect(self) -> None:
        inserts = [op[1] for op in self.stream if op[0] == "insert"]
        self.expected = stream_totals(Oracle(self.base, inserts), self.stream)

    def rep(self) -> Rep:
        db = SpatialDatabase(avg_object_size=self.spec.avg_object_size)
        start = perf_counter()
        db.build(self.base)
        built = perf_counter()
        report = db.run_workload(self.stream, buffer_pages=4096)
        served = perf_counter()
        reorganizer = Reorganizer(db)
        quality = reorganizer.quality()
        reorg_start = perf_counter()
        moved = reorganizer.step()
        reorg_s = perf_counter() - reorg_start
        stream_s = served - built
        rep = Rep(
            start, served - start, len(self.base) + len(self.stream), [stream_s / len(self.stream)]
        )
        rep.phases = {"build_s": built - start, "stream_s": stream_s, "reorg_s": reorg_s}
        _check_report_totals(rep, report, self.expected)
        rep.check(len(db) == len(self.base))  # as many inserts as deletes
        self.sizes["pages"] = db.occupied_pages()
        io = report.total_io
        rep.counters = {
            "writeback_pages": _written_pages(db),
            "built_objects": len(self.base),
            "requests": io.requests,
            "pages": io.pages_transferred,
            "sim_device_ms": io.total_ms,
            "sim_parallelism": 1.0,
            "reorg_moved_pages": moved,
            "reorg_quality_gain": reorganizer.quality() - quality,
        }
        return rep


class JoinExact(Workload):
    name = "join_exact"
    why = (
        "Section 6: A-1 join A-2 on about 2950 x 2900 stored objects with exact refinement through a "
        "36-page LRU pool far smaller than the relations; tree, buffer, geometry in another pattern"
    )
    probe = "one join call, per candidate pair"

    _STORED_SHARE = 0.75

    def setup(self, seed: int) -> None:
        scale = self._scale(0.03)
        spec_r, map_r = dataset("A-1", scale)
        spec_s, map_s = dataset("A-2", scale, id_offset=_SPARE_ID_OFFSET)
        self.digest = dataset_digest(map_r + map_s)
        # The seed picks which three quarters of each map are stored.
        rng = _rng(seed, 0x1013)
        self.objects_r = _subset(map_r, self._STORED_SHARE, rng)
        self.objects_s = _subset(map_s, self._STORED_SHARE, rng)
        self.db = SpatialDatabase(avg_object_size=spec_r.avg_object_size)
        self.db.build(self.objects_r)
        self.other = self.db.attach("s", avg_object_size=spec_s.avg_object_size)
        self.other.build(self.objects_s)
        # ExperimentConfig.join_buffer(1600): the paper's 1600 pages scaled with the data.
        self.buffer_pages = max(8, int(1600 * scale * self._STORED_SHARE))
        self.sizes = {
            "objects": len(self.objects_r) + len(self.objects_s),
            "pages": self.db.occupied_pages() + self.other.occupied_pages(),
            "pool_pages": self.buffer_pages,
        }

    def expect(self) -> None:
        self.candidate_pairs, self.result_pairs = join_counts(self.objects_r, self.objects_s)
        self.sizes["ops"] = self.candidate_pairs

    def rep(self) -> Rep:
        start = perf_counter()
        result = self.db.join(
            self.other, buffer_pages=self.buffer_pages, evaluate_exact=True
        )
        seconds = perf_counter() - start
        pairs = max(self.candidate_pairs, 1)
        rep = Rep(start, seconds, pairs, [seconds / pairs], phases={"join_s": seconds})
        ok = (
            result.candidate_pairs == self.candidate_pairs
            and result.result_pairs == self.result_pairs
        )
        rep.check(ok, pairs)
        io = result.mbr_io + result.transfer_io
        rep.counters = {
            "join_candidate_pairs": result.candidate_pairs,
            "join_result_pairs": result.result_pairs,
            "join_sim_io_ms": result.io_ms,
            "requests": io.requests,
            "pages": io.pages_transferred,
            "sim_device_ms": io.total_ms,
            "sim_parallelism": 1.0,
        }
        return rep


class PersistCycle(Workload):
    name = "persist_cycle"
    why = (
        "the only real I/O: save, 100 inserts, incremental save, open sim, open file, 400 windows "
        "with checksummed preads, scrub, close on 1314 objects; pagestore.file and storage.serial work"
    )
    probe = "one window query on the live file"

    def setup(self, seed: int) -> None:
        # save() raises "superblock overflow" at scale >= 0.03 with 4 KiB pages.
        scale = self._scale(0.01)
        self.spec, self.objects = dataset("A-1", scale)
        self.digest = dataset_digest(self.objects)
        _, spare = dataset("A-2", scale, id_offset=_SPARE_ID_OFFSET)
        rng = _rng(seed, 0xF11E)
        picks = rng.choice(len(spare), size=self._n(100), replace=False)
        self.inserts = [spare[int(i)] for i in picks]
        self.windows = [
            r.as_tuple() for r in windows(self.objects, 1e-3, self._n(400), rng)
        ]
        self.sizes = {
            "objects": len(self.objects),
            "pool_pages": 0,
            "ops": len(self.inserts) + len(self.windows) + 5,
        }
        WORK_DIR.mkdir(exist_ok=True)

    def expect(self) -> None:
        oracle = Oracle(self.objects + self.inserts)
        self.answers = [oracle.window(Rect(*w)) for w in self.windows]

    def _built(self) -> SpatialDatabase:
        db = SpatialDatabase(avg_object_size=self.spec.avg_object_size)
        db.build(self.objects)
        return db

    def rep(self) -> Rep:
        db = self._built()
        self.sizes["pages"] = db.occupied_pages()
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as workdir:
            path = str(Path(workdir) / "db.img")
            t0 = perf_counter()
            db.save(path)
            t1 = perf_counter()
            for obj in self.inserts:
                db.insert(obj)
            t2 = perf_counter()
            epoch = db.save(path)
            t3 = perf_counter()
            reopened = SpatialDatabase.open(path, backing="sim")
            t4 = perf_counter()
            live = SpatialDatabase.open(path, backing="file")
            t5 = perf_counter()
            try:
                results, latencies = _timed_queries(live.window_query, self.windows)
                t6 = perf_counter()
                scrubbed = live.disk.scrub()
                t7 = perf_counter()
                catalog_bytes = sum(len(c) for c in live.disk.read_meta_pages())
            finally:
                live.close()
            file_bytes = Path(path).stat().st_size
        rep = Rep(t0, t7 - t0, len(self.inserts) + len(self.windows) + 5, latencies)
        rep.probes = {"file_window": latencies}
        rep.phases = {
            "save_s": t1 - t0,
            "insert_s": t2 - t1,
            "save_incremental_s": t3 - t2,
            "open_sim_s": t4 - t3,
            "open_s": t5 - t4,
            "file_window_s": t6 - t5,
            "scrub_s": t7 - t6,
        }
        rep.check(epoch == 2)
        # Every acknowledged insert is visible after reopening the file.
        for obj in self.inserts:
            rep.check(obj.oid in live.storage.objects)
        for result, answer in zip(results, self.answers):
            rep.check(_oids(result) == answer)
        # The file-backed database answers and prices like its
        # in-memory twin recovered from the same image.
        twin = [reopened.window_query(*w) for w in self.windows]
        rep.check([_oids(r) for r in twin] == [_oids(r) for r in results])
        rep.check(_sim_io_ms(results) == _sim_io_ms(twin))
        user_bytes = sum(o.size_bytes for o in self.objects + self.inserts)
        io = live.io_stats()
        rep.counters = {
            "requests": io.requests,
            "pages": io.pages_transferred,
            "sim_device_ms": io.total_ms,
            "sim_parallelism": 1.0,
            "file_bytes_per_user_byte": file_bytes / user_bytes,
            "scrubbed_pages": scrubbed,
            "catalog_bytes": catalog_bytes,
        }
        return rep

    def final_check(self) -> tuple[int, int]:
        """Crash before the incremental save's superblock write: the
        image must recover to epoch 1 with none of the inserts visible."""
        db = self._built()
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as workdir:
            path = str(Path(workdir) / "db.img")
            db.save(path)
            for obj in self.inserts:
                db.insert(obj)
            # Count the incremental save's writes on a copy; the
            # superblock write is the last one.
            probe_path = str(Path(workdir) / "probe.img")
            shutil.copyfile(path, probe_path)
            probe = FaultyPageStore(probe_path, page_size=db.storage.page_size)
            try:
                db.save(probe_path, store=probe)
                writes = probe.writes_completed
            finally:
                probe.close()
            faulty = FaultyPageStore(
                path, page_size=db.storage.page_size, crash_after_writes=writes - 1
            )
            crashed = False
            try:
                db.save(path, store=faulty)
            except SimulatedCrash:
                crashed = True
            finally:
                faulty.close()
            recovered = SpatialDatabase.open(path, backing="file")
            try:
                stored = recovered.storage.objects
                ok = (
                    crashed
                    and recovered.disk.epoch == 1
                    and len(recovered) == len(self.objects)
                    and not any(obj.oid in stored for obj in self.inserts)
                )
            finally:
                recovered.close()
        attempted = len(self.inserts) + 1
        return attempted, 0 if ok else attempted


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (TrafficOpen, QueryCold, UpdateMixed, JoinExact, PersistCycle)
}


def make_workload(name: str, smoke: bool = False) -> Workload:
    return WORKLOADS[name](smoke=smoke)
