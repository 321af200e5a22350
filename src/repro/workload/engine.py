"""The batched workload engine.

Executes a mixed stream of operations — window queries, point queries,
inserts, deletes and spatial joins — against one organization, with all
page traffic routed through a single shared
:class:`~repro.buffer.pool.BufferPool`.  This is the serving-path
counterpart of the per-figure experiment drivers: instead of measuring
one query type cold, it measures a *workload* warm, where tree pages,
cluster units and object extents compete for the same frames (the
Section 6.1 buffering regime, generalised beyond the join).

Per operation kind the engine accumulates a :class:`PhaseStats` —
operation count, result volume, pool hits/misses and a
:class:`~repro.disk.model.DiskStats` delta — and finishes with a
``flush`` phase that writes back the dirty frames through the pool's
coalescing scheduler.  The result is a :class:`WorkloadReport`.

:meth:`WorkloadEngine.run_sessions` serves several **concurrent client
sessions** round-robin (deterministically) over the one shared pool,
:meth:`WorkloadEngine.run_traffic` arriving sessions in event-heap
order.  When the pool's I/O scheduler is the
:class:`~repro.iosched.scheduler.OverlapScheduler`, every client's
plans are timed on its own virtual-clock session — declustered disks
service different clients concurrently, so the makespan drops below the
serial response time.  All three are one *serve step* (snapshot,
execute inside the client's scheduler scope, fold into the phase) inside
one *run scope* (admission, tracer sessions, pool wiring, flush,
makespan); they differ in serving order and in their report rows.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Iterator, NamedTuple

from repro.buffer.policy import hit_ratio
from repro.buffer.pool import BufferPool
from repro.disk.model import DiskStats
from repro.errors import ConfigurationError
from repro.geometry.feature import SpatialObject
from repro.geometry.rect import Rect
from repro.iosched.admission import admission_name, make_admission
from repro.iosched.scheduler import OverlapScheduler, device_times, scheduler_name
from repro.obs import trace as _obs
from repro.obs.metrics import percentile as _percentile
from repro.obs.metrics import percentile_sorted as _percentile_sorted
from repro.storage.base import SpatialOrganization

__all__ = [
    "OP_KINDS",
    "PhaseStats",
    "WorkloadReport",
    "ClientStats",
    "SessionsReport",
    "TrafficReport",
    "WorkloadEngine",
    "latency_percentile",
]


def latency_percentile(latencies, q: float) -> float:
    """Nearest-rank percentile of a latency sample (0.0 when empty).

    Deterministic and interpolation-free: the reported p95 is an actual
    observed operation latency, not a synthetic midpoint.  The shared
    implementation lives in :func:`repro.obs.metrics.percentile` so the
    metrics registry's histograms report identical percentiles."""
    return _percentile(latencies, q)

OP_KINDS = ("window", "point", "insert", "delete", "join", "reorg")
"""Operation kinds understood by the engine.

Operations are plain tuples:

* ``("window", Rect)`` or ``("window", xmin, ymin, xmax, ymax)``
* ``("point", x, y)``
* ``("insert", SpatialObject)``
* ``("delete", oid)``
* ``("join", other[, technique])`` — ``other`` is a
  :class:`~repro.database.SpatialDatabase` or organization sharing this
  database's disk
* ``("reorg", Reorganizer[, budget_pages])`` — run one incremental
  reorganization round (:class:`repro.reorg.Reorganizer`), priced like
  any other operation of its session's class
"""


class _LatencySample:
    """Cached sorted-latency percentiles shared by :class:`PhaseStats`
    and :class:`ClientStats` (both carry ``latencies`` and ``_sorted``):
    percentile properties on a 10^5-operation sample must not re-sort
    the full list per access."""

    __slots__ = ()

    def sorted_latencies(self) -> list[float]:
        """The latencies in ascending order, sorted once per report
        (re-sorted only after new observations)."""
        cache = self._sorted
        if cache is None or len(cache) != len(self.latencies):
            cache = self._sorted = sorted(self.latencies)
        return cache

    @property
    def p50_ms(self) -> float:
        """Median per-operation latency."""
        return _percentile_sorted(self.sorted_latencies(), 0.50)

    @property
    def p95_ms(self) -> float:
        """95th-percentile per-operation latency."""
        return _percentile_sorted(self.sorted_latencies(), 0.95)

    @property
    def p99_ms(self) -> float:
        """99th-percentile per-operation latency."""
        return _percentile_sorted(self.sorted_latencies(), 0.99)


@dataclass(slots=True)
class PhaseStats(_LatencySample):
    """Accumulated statistics of one operation kind within a workload.

    ``io`` accounts **device time** (the disk resource consumed; summed
    over the devices of a sharded store), ``response_ms`` the
    **response time** the clients observed — per operation the busiest
    disk's share, so declustered execution makes it smaller than the
    device time.  On a single disk the two are equal.
    """

    kind: str
    operations: int = 0
    results: int = 0
    hits: int = 0
    misses: int = 0
    io: DiskStats = field(default_factory=DiskStats)
    response_ms: float = 0.0
    latencies: list[float] = field(default_factory=list)
    # Cached ascending copy of ``latencies`` (keyed on sample size).
    _sorted: list[float] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def hit_rate(self) -> float:
        return hit_ratio(self.hits, self.misses)

    @property
    def overlap_ms(self) -> float:
        """Device time hidden from the clients by concurrent service:
        device ms minus response ms.  Positive when the disks worked in
        parallel (declustering, overlapped sessions, prefetching);
        negative when queueing behind other clients made an operation
        wait longer than its own I/O."""
        return self.io.total_ms - self.response_ms

    @property
    def parallelism(self) -> float:
        """Achieved parallel speed-up: device time / response time."""
        if self.response_ms <= 0:
            return 1.0
        return self.io.total_ms / self.response_ms


@dataclass(slots=True)
class WorkloadReport:
    """Outcome of one :meth:`WorkloadEngine.run`.

    The ``prefetch_*`` fields carry the pool's prefetch accuracy over
    this run: plans issued, pages read ahead, pages later demand-hit
    (useful) vs evicted unused (wasted).  All zero when the pool has no
    prefetcher.

    ``makespan_ms`` is when the whole workload finished: under the
    overlap scheduler the virtual clock's latest event (clients *and*
    trailing prefetch work), under the sync scheduler the serial sum of
    the responses.  ``scheduler`` / ``admission`` name what timed it."""

    policy: str
    buffer_pages: int
    phases: list[PhaseStats] = field(default_factory=list)
    prefetch_issued: int = 0
    prefetch_pages: int = 0
    prefetch_useful: int = 0
    prefetch_wasted: int = 0
    scheduler: str = "sync"
    admission: str = "none"
    makespan_ms: float = 0.0

    def phase(self, kind: str) -> PhaseStats | None:
        for p in self.phases:
            if p.kind == kind:
                return p
        return None

    @property
    def operations(self) -> int:
        return sum(p.operations for p in self.phases)

    @property
    def total_io(self) -> DiskStats:
        total = DiskStats()
        for p in self.phases:
            total = total + p.io
        return total

    @property
    def hit_rate(self) -> float:
        return hit_ratio(
            sum(p.hits for p in self.phases),
            sum(p.misses for p in self.phases),
        )

    @property
    def total_response_ms(self) -> float:
        return sum(p.response_ms for p in self.phases)

    @property
    def total_overlap_ms(self) -> float:
        """Workload-wide device time hidden by concurrent service."""
        return self.total_io.total_ms - self.total_response_ms

    def format(self, title: str | None = None) -> str:
        """Aligned per-phase table (the `repro.eval workload` output)."""
        from repro.eval.report import format_table

        rows = [
            (
                p.kind,
                p.operations,
                p.results,
                f"{p.hit_rate:.1%}",
                p.io.requests,
                p.io.pages_transferred,
                p.io.total_ms,
                p.response_ms,
                p.overlap_ms,
            )
            for p in self.phases
        ]
        rows.append(
            (
                "total",
                self.operations,
                sum(p.results for p in self.phases),
                f"{self.hit_rate:.1%}",
                self.total_io.requests,
                self.total_io.pages_transferred,
                self.total_io.total_ms,
                self.total_response_ms,
                self.total_overlap_ms,
            )
        )
        header = title or (
            f"workload: policy={self.policy}, buffer={self.buffer_pages} pages"
        )
        table = format_table(
            (
                "phase",
                "ops",
                "results",
                "hit rate",
                "requests",
                "pages",
                "device ms",
                "response ms",
                "overlap ms",
            ),
            rows,
            title=header,
        )
        if self.prefetch_pages or self.prefetch_issued:
            table += (
                f"\nprefetch: {self.prefetch_issued} plans, "
                f"{self.prefetch_pages} pages read ahead, "
                f"{self.prefetch_useful} useful, "
                f"{self.prefetch_wasted} wasted"
            )
        return table


@dataclass(slots=True)
class ClientStats(_LatencySample):
    """One client session's share of a :meth:`WorkloadEngine.run_sessions`
    workload.

    ``response_ms`` is the time this client spent waiting for its own
    operations — under the overlap scheduler its virtual-clock session
    time, which includes queueing behind other clients; ``device_ms``
    the device time its operations consumed; ``queueing_ms`` the share
    of the response spent waiting — admission delays plus time the
    client's requests sat behind busy arms; ``latencies`` the per-
    operation response times behind the percentile properties."""

    name: str
    operations: int = 0
    results: int = 0
    response_ms: float = 0.0
    device_ms: float = 0.0
    queueing_ms: float = 0.0
    latencies: list[float] = field(default_factory=list)
    #: Sessions aggregated into this row (1 for a plain client; the
    #: per-class rows of a traffic run count their sessions here).
    sessions: int = 0
    # Cached ascending copy of ``latencies`` (keyed on sample size).
    _sorted: list[float] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def _fold(self, served: _Served) -> None:
        """Add one served operation to this row."""
        self.operations += 1
        self.results += served.results
        self.response_ms += served.latency_ms
        self.device_ms += served.device_ms
        self.queueing_ms += served.queued_ms
        self.latencies.append(served.latency_ms)


@dataclass(slots=True)
class SessionsReport(WorkloadReport):
    """Outcome of one :meth:`WorkloadEngine.run_sessions`.

    The per-phase table aggregates over the clients; ``clients`` breaks
    the same workload down per session."""

    clients: list[ClientStats] = field(default_factory=list)

    def client(self, name: str) -> ClientStats | None:
        for c in self.clients:
            if c.name == name:
                return c
        return None

    def format(self, title: str | None = None) -> str:
        from repro.eval.report import format_table

        header = title or (
            f"sessions: scheduler={self.scheduler}, "
            f"admission={self.admission}, policy={self.policy}, "
            f"buffer={self.buffer_pages} pages"
        )
        # Explicit base call: zero-argument super() loses its class
        # cell when @dataclass(slots=True) rebuilds the class.
        parts = [WorkloadReport.format(self, header)]
        rows = [
            (
                c.name,
                c.operations,
                c.results,
                c.device_ms,
                c.response_ms,
                c.queueing_ms,
                c.p50_ms,
                c.p95_ms,
            )
            for c in self.clients
        ]
        rows.append(
            (
                "makespan",
                self.operations,
                sum(c.results for c in self.clients),
                self.total_io.total_ms,
                self.makespan_ms,
                sum(c.queueing_ms for c in self.clients),
                "",
                "",
            )
        )
        parts.append(
            format_table(
                (
                    "client",
                    "ops",
                    "results",
                    "device ms",
                    "response ms",
                    "queue ms",
                    "p50 ms",
                    "p95 ms",
                ),
                rows,
                title="per-client sessions",
            )
        )
        return "\n\n".join(parts)


@dataclass(slots=True)
class TrafficReport(WorkloadReport):
    """Outcome of one :meth:`WorkloadEngine.run_traffic`.

    The per-phase table aggregates over all sessions; ``classes``
    breaks the run down per traffic class (``interactive`` /
    ``analytics`` rows instead of one row per generated session —
    10^5-session traffic cannot report per client).  ``makespan_ms`` is
    the virtual clock's latest event; ``throughput_per_s`` the
    completed-sessions rate over that horizon.
    """

    arrival: str = "poisson"
    sessions: int = 0
    classes: list[ClientStats] = field(default_factory=list)

    def traffic_class(self, name: str) -> ClientStats | None:
        for c in self.classes:
            if c.name == name:
                return c
        return None

    @property
    def throughput_per_s(self) -> float:
        """Completed sessions per virtual second of makespan."""
        if self.makespan_ms <= 0.0:
            return 0.0
        return self.sessions / (self.makespan_ms / 1000.0)

    def format(self, title: str | None = None) -> str:
        from repro.eval.report import format_table

        header = title or (
            f"traffic: arrival={self.arrival}, sessions={self.sessions}, "
            f"scheduler={self.scheduler}, admission={self.admission}, "
            f"policy={self.policy}, buffer={self.buffer_pages} pages"
        )
        # Explicit base call, as in SessionsReport.format.
        parts = [WorkloadReport.format(self, header)]
        rows = [
            (
                c.name,
                c.sessions,
                c.operations,
                c.queueing_ms,
                c.p50_ms,
                c.p95_ms,
                c.p99_ms,
            )
            for c in self.classes
        ]
        parts.append(
            format_table(
                (
                    "class",
                    "sessions",
                    "ops",
                    "queue ms",
                    "p50 ms",
                    "p95 ms",
                    "p99 ms",
                ),
                rows,
                title="per-class latency",
            )
        )
        parts.append(
            f"makespan {self.makespan_ms:.1f} ms, "
            f"{self.throughput_per_s:.1f} sessions/s"
        )
        return "\n\n".join(parts)


class _Served(NamedTuple):
    """What the serve step hands back per operation, for the caller to
    fold into its own report rows."""

    kind: str
    results: int
    latency_ms: float
    device_ms: float
    queued_ms: float


class WorkloadEngine:
    """Runs operation streams against one organization and pool.

    :meth:`run`, :meth:`run_sessions` and :meth:`run_traffic` share one
    *serve step* (:meth:`_serve`) inside one *run scope*
    (:meth:`_run_scope`); they differ only in the order operations are
    served and in the report rows each served operation is folded into.

    Parameters
    ----------
    storage:
        The organization serving the workload (a
        :class:`~repro.database.SpatialDatabase`'s ``storage``).
    pool:
        The shared buffer pool all phases read and write through.
    """

    def __init__(self, storage: SpatialOrganization, pool: BufferPool):
        self.storage = storage
        self.pool = pool
        self._measure_mark = None
        self._hits_mark = 0
        self._misses_mark = 0
        # Run state, set by _run_scope for the serve step.
        self._report: WorkloadReport | None = None
        self._scheduler: OverlapScheduler | None = None
        self._tracer = None
        self._spans: dict[str, object] = {}
        self._op_span = None

    # ------------------------------------------------------------------
    def run(self, operations) -> WorkloadReport:
        """Execute the stream and return the per-phase report.

        The organization's page traffic is routed through the engine's
        pool for the duration; dirty frames are written back (with
        coalesced vectored transfers) in a final ``flush`` phase and
        the original pool wiring is restored.
        """
        report = WorkloadReport(
            policy=self.pool.policy, buffer_pages=self.pool.capacity
        )
        histogram = self.pool.metrics.histogram
        with self._run_scope(report, clients=("main",)):
            for op in operations:
                served = self._serve("main", op)
                histogram("op.latency_ms", phase=served.kind).observe(
                    served.latency_ms
                )
        return report

    def run_sessions(self, sessions, admission=None) -> SessionsReport:
        """Execute several client streams as interleaved sessions.

        ``sessions`` maps client names to operation streams (a dict, or
        a sequence of ``(name, operations)`` pairs).  The streams are
        interleaved round-robin in client order — one operation per
        client per turn, i.e. served in ``(step, client_index)`` order —
        which is deterministic: replaying the same streams reproduces
        the same request sequence bit for bit.

        All clients share this engine's pool (and therefore its I/O
        scheduler).  Under the
        :class:`~repro.iosched.scheduler.OverlapScheduler` each client
        gets its own virtual-clock session: its operations' plans
        dispatch at the client's own time, queue per disk, and overlap
        with the other clients' I/O — on a declustered store the disks
        service different clients concurrently and the makespan drops
        below the serial response time.  Under the default sync
        scheduler the same interleaving executes serially (response
        times match :meth:`run`'s accounting).

        ``admission`` installs an admission-control policy (name or
        :class:`~repro.iosched.admission.AdmissionPolicy`) on the
        overlap scheduler for this run only; admission needs the
        virtual clock, so requesting it under the sync scheduler is a
        configuration error.  The per-client statistics carry each
        session's accumulated queueing delay and per-operation latency
        percentiles (p50/p95) either way.
        """
        pairs = list(sessions.items() if isinstance(sessions, dict) else sessions)
        clients = [ClientStats(str(name)) for name, _ in pairs]
        streams = [list(ops) for _, ops in pairs]
        report = SessionsReport(
            policy=self.pool.policy,
            buffer_pages=self.pool.capacity,
            clients=clients,
        )
        histogram = self.pool.metrics.histogram
        with self._run_scope(report, [c.name for c in clients], admission):
            for step in range(max(map(len, streams), default=0)):
                for client, ops in zip(clients, streams):
                    if step < len(ops):
                        served = self._serve(client.name, ops[step])
                        client._fold(served)
                        histogram("op.latency_ms", client=client.name).observe(
                            served.latency_ms
                        )
        return report

    def run_traffic(self, sessions, admission=None, arrival="poisson") -> TrafficReport:
        """Drive arriving traffic sessions through the virtual clock.

        ``sessions`` is a sequence of
        :class:`~repro.workload.traffic.TrafficSession` (or anything
        with ``name`` / ``klass`` / ``arrival_ms`` / ``operations`` /
        ``think_ms``).  An event heap orders operation readiness: a
        session's first operation becomes ready at its arrival, each
        follow-up at the previous completion plus think time — so
        open-loop arrivals pile onto the disks regardless of progress
        while closed-loop sessions pace themselves.  Ready operations
        execute in event order (deterministic: ties break on session
        index), each inside its own virtual-clock session, so 10^4-10^5
        concurrent sessions contend for arms exactly like
        :meth:`run_sessions` clients.

        Per-operation latency is measured from the operation's ready
        time (arrival-to-completion for a session's first operation),
        including admission delay and queueing behind busy arms.
        Statistics aggregate per traffic *class*, not per session —
        ``op.latency_ms{class=...}`` histograms in the pool's metrics
        registry carry the full latency distributions (p50/p95/p99) —
        and the scheduler's per-client metrics mirroring is suspended
        for the run so 10^5 generated names don't flood the registry.
        Traffic needs the overlap scheduler; per-operation span tracing
        is not emitted (a 10^5-session trace would be unreadable —
        use :meth:`run_sessions` for traced small-scale replays).

        ``admission`` installs an admission policy for this run only,
        exactly as in :meth:`run_sessions` — but here a throttled
        operation is *re-queued* on the event heap at its admitted time
        rather than served in arrival order, so unthrottled traffic
        genuinely overtakes paced bulk work.  ``arrival`` labels the
        report.
        """
        sessions = list(sessions)
        if not isinstance(self.pool.scheduler, OverlapScheduler):
            raise ConfigurationError(
                "traffic runs need the overlap scheduler — arrivals and "
                "queueing live on the virtual clock"
            )
        report = TrafficReport(
            policy=self.pool.policy,
            buffer_pages=self.pool.capacity,
            arrival=arrival,
            sessions=len(sessions),
        )
        histogram = self.pool.metrics.histogram
        # Event heap of (ready_ms, session_index, operation_index,
        # first_ready_ms) — the last element survives admission
        # re-queues so latency stays measured from the time the
        # operation first became ready.
        heap = [
            (s.arrival_ms, i, 0, s.arrival_ms)
            for i, s in enumerate(sessions)
            if s.operations
        ]
        heapify(heap)
        with self._run_scope(report, admission=admission, client_metrics=False):
            scheduler = self._scheduler
            clock = scheduler.clock
            while heap:
                ready, index, step, first_ready = heappop(heap)
                session = sessions[index]
                name = session.name
                policy = scheduler.admission
                if policy is not None:
                    # A throttled operation re-enters the event queue at
                    # its admitted time instead of holding its slot, so
                    # other clients' ready work overtakes it — the
                    # reordering that lets interactive operations pass
                    # paced bulk work.  (Token buckets admit idempotently:
                    # when the re-queued event pops, the drained bucket
                    # has refilled to exactly zero and the scheduler's own
                    # admit adds no second wait.)
                    admitted = policy.admit(name, ready, clock)
                    if admitted > ready:
                        heappush(heap, (admitted, index, step, first_ready))
                        continue
                clock.wait(name, ready)
                served = self._serve(name, session.operations[step], first_ready)
                klass = report.traffic_class(session.klass)
                if klass is None:
                    klass = ClientStats(session.klass)
                    report.classes.append(klass)
                if step == 0:
                    klass.sessions += 1
                klass._fold(served)
                histogram("op.latency_ms", **{"class": klass.name}).observe(
                    served.latency_ms
                )
                step += 1
                if step < len(session.operations):
                    follow_up = clock.client_time(name) + session.think_ms
                    heappush(heap, (follow_up, index, step, follow_up))
        return report

    # ------------------------------------------------------------------
    @contextmanager
    def _run_scope(
        self, report: WorkloadReport, clients=(), admission=None, client_metrics=True
    ) -> Iterator[None]:
        """The run scope every entry point serves its operations in.

        Entry resets a virtual-clock scheduler (stale disk queues and
        client timelines from earlier traffic must not leak into the
        makespan), installs ``admission`` on it for this run only,
        suspends its per-client metrics mirroring unless
        ``client_metrics``, opens one detached ``session`` span per name
        in ``clients`` under an active tracer and routes the
        organization's page traffic through the engine's pool.  A normal
        exit writes the dirty frames back as the ``flush`` phase and
        records prefetch accuracy and makespan; any exit restores the
        scheduler and the storage pool and closes the run's spans.
        """
        policy = make_admission(admission)
        scheduler = self.pool.scheduler
        timed = isinstance(scheduler, OverlapScheduler)
        if policy is not None and not timed:
            raise ConfigurationError(
                "admission control needs the overlap scheduler — "
                "admission delays live on the virtual clock"
            )
        report.scheduler = scheduler_name(scheduler)
        self._scheduler = scheduler if timed else None
        if timed:
            scheduler.reset()
            restore = (scheduler.admission, scheduler.metrics)
            if policy is not None:
                scheduler.admission = policy
                policy.reset()
            if not client_metrics:
                scheduler.metrics = None
            report.admission = admission_name(scheduler.admission)
        tracer = _obs.ACTIVE
        spans = {}
        if tracer is not None:
            tracer.use_virtual_clock(timed)
            for name in clients:
                spans[name] = tracer.begin(
                    "session",
                    cat="session",
                    track=name,
                    ts=0.0 if timed else None,
                    parent=None,
                    args={"client": name},
                )
        self._report, self._tracer, self._spans = report, tracer, spans
        self._op_span = None
        prefetch_mark = self.pool.prefetch_stats()
        try:
            with self.storage.use_pool(self.pool):
                yield
                self._flush_phase(report)
            now = self.pool.prefetch_stats()
            for key in ("issued", "pages", "useful", "wasted"):
                setattr(report, f"prefetch_{key}", now[key] - prefetch_mark[key])
            report.makespan_ms = (
                scheduler.clock.makespan if timed else report.total_response_ms
            )
        finally:
            if timed:
                scheduler.admission, scheduler.metrics = restore
            # Innermost first: an operation that raised left its span open.
            for span in (self._op_span, *spans.values()):
                if span is not None and span.end_ms is None:
                    tracer.end(
                        span,
                        ts=scheduler.clock.client_time(span.track) if timed else None,
                    )

    def _serve(self, client: str, op, first_ready: float | None = None) -> _Served:
        """The serve step: execute one operation on ``client``'s
        timeline and fold it into its kind's :class:`PhaseStats`.

        Under a virtual-clock scheduler the operation runs inside the
        client's ``scheduler.operation`` scope and its latency is the
        client's completion time minus ``first_ready`` (default: the
        operation's start — a traffic operation that waited for
        admission was ready earlier, and that wait counts as queueing);
        otherwise it is the busiest disk's delta.  A client with a
        session span gets an ``op`` span, renamed to the operation's
        kind once execution reveals it.
        """
        scheduler = self._scheduler
        self._snapshot()
        started = None
        if scheduler is not None:
            clock = scheduler.clock
            started = clock.client_time(client)
            queued_mark = scheduler.client_queueing_ms(client)
        session_span = self._spans.get(client)
        if session_span is not None:
            tracer = self._tracer
            tracer.set_track(client)
            if started is not None:
                tracer.virtual_now = started
            op_span = self._op_span = tracer.begin(
                "op", cat="operation", ts=started, parent=session_span
            )
        with scheduler.operation(client) if scheduler is not None else nullcontext():
            kind, results = self._execute(op)
        if scheduler is not None:
            finished = clock.client_time(client)
            if first_ready is None:
                first_ready = started
            latency = finished - first_ready
            queued = (scheduler.client_queueing_ms(client) - queued_mark) + (
                started - first_ready
            )
        else:
            finished = None
            latency = self.storage.disk.cost_since(self._measure_mark).response_ms
            queued = 0.0
        if session_span is not None:
            op_span.name = kind
            tracer.end(op_span, ts=finished)
        report = self._report
        phase = report.phase(kind)
        if phase is None:
            phase = PhaseStats(kind)
            report.phases.append(phase)
        phase.operations += 1
        phase.results += results
        device_before = phase.io.total_ms
        self._account(phase, latency)
        phase.latencies.append(latency)
        return _Served(
            kind, results, latency, phase.io.total_ms - device_before, queued
        )

    def _flush_phase(self, report: WorkloadReport) -> None:
        """Write back dirty frames as the report's final phase.

        Under a virtual-clock scheduler the write-back's device work is
        dispatched onto the per-disk queues (issued when the last
        client finished), so the makespan covers the flush exactly as
        the synchronous accounting does."""
        flush = PhaseStats("flush")
        self._snapshot()
        scheduler, tracer, disk = self._scheduler, self._tracer, self.storage.disk
        if scheduler is None:
            span = nullcontext() if tracer is None else tracer.span(
                "flush", cat="flush", track="main"
            )
            with span:
                self.pool.flush(coalesce=True)
            response_ms = disk.cost_since(self._measure_mark).response_ms
        else:
            issued = max(scheduler.clock.clients.values(), default=0.0)
            if tracer is not None:
                # Anchor the flush's device spans at the issue time; the
                # write-back prices outside scheduler.execute, so they
                # fall back to per-device cursors >= virtual_now.
                tracer.virtual_now = issued
                flush_span = tracer.begin(
                    "flush", cat="flush", track="main", ts=issued, parent=None
                )
            before = device_times(disk)
            # The flush's write plans execute inline: the engine prices
            # the whole phase as one batch dispatched at the issue time
            # below — a second dispatch per plan would double-count.
            with scheduler.inline():
                self.pool.flush(coalesce=True)
            work = [now - then for now, then in zip(device_times(disk), before)]
            completion = scheduler.clock.dispatch(issued, work)
            if tracer is not None:
                tracer.end(flush_span, ts=completion)
            response_ms = completion - issued
        self._account(flush, response_ms)
        if flush.io.requests:
            flush.operations = 1
            report.phases.append(flush)

    # ------------------------------------------------------------------
    def _snapshot(self) -> None:
        self._measure_mark = self.storage.disk.snapshot()
        self._hits_mark = self.pool.hits
        self._misses_mark = self.pool.misses

    def _account(self, phase: PhaseStats, response_ms: float) -> None:
        """Fold the interval since the last :meth:`_snapshot` into a
        phase; ``response_ms`` is what the clients waited for it."""
        phase.io = phase.io + self.storage.disk.stats_since(self._measure_mark)
        phase.response_ms += response_ms
        phase.hits += self.pool.hits - self._hits_mark
        phase.misses += self.pool.misses - self._misses_mark

    def _execute(self, op) -> tuple[str, int]:
        """Execute one operation (the caller snapshots the statistics
        marks beforehand)."""
        if not isinstance(op, tuple) or not op:
            raise ConfigurationError(f"malformed workload operation: {op!r}")
        kind = op[0]
        if kind == "window":
            window = op[1] if isinstance(op[1], Rect) else Rect(*op[1:5])
            return kind, len(self.storage.window_query(window).objects)
        if kind == "point":
            return kind, len(self.storage.point_query(op[1], op[2]).objects)
        if kind == "insert":
            obj = op[1]
            if not isinstance(obj, SpatialObject):
                raise ConfigurationError(
                    f"insert operations carry a SpatialObject, got {obj!r}"
                )
            self.storage.insert(obj)
            return kind, 1
        if kind == "delete":
            self.storage.delete(op[1])
            return kind, 1
        if kind == "join":
            from repro.database import SpatialDatabase
            from repro.join.multistep import spatial_join

            other = op[1] if len(op) > 1 else None
            other = other.storage if isinstance(other, SpatialDatabase) else other
            if not isinstance(other, SpatialOrganization):
                raise ConfigurationError(f"cannot join with {other!r}")
            technique = op[2] if len(op) > 2 else "complete"
            result = spatial_join(
                self.storage, other, technique=technique, pool=self.pool
            )
            return kind, result.candidate_pairs
        if kind == "reorg":
            budget = op[2] if len(op) > 2 else None
            return kind, op[1].step(budget_pages=budget)
        raise ConfigurationError(
            f"unknown workload operation '{kind}'; valid: {OP_KINDS}"
        )
