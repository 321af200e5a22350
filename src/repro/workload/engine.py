"""The batched workload engine.

Executes a mixed stream of operations — window queries, point queries,
inserts, deletes and spatial joins — against one organization, with all
page traffic routed through a single shared
:class:`~repro.buffer.pool.BufferPool`.  This is the serving-path
counterpart of the per-figure experiment drivers: instead of measuring
one query type cold, it measures a *workload* warm, where tree pages,
cluster units and object extents compete for the same frames (the
Section 6.1 buffering regime, generalised beyond the join).

Every served operation is one record (kind, results, latency, device
and queueing time, pool hits/misses, a
:class:`~repro.disk.model.DiskStats` delta) that each :class:`Row` of a
:class:`RunReport` folds: one row per operation kind, then a ``flush``
row that writes back the dirty frames through the pool's coalescing
scheduler.

:meth:`WorkloadEngine.run_sessions` serves several **concurrent client
sessions** round-robin (deterministically) over the one shared pool,
:meth:`WorkloadEngine.run_traffic` arriving sessions in event-heap
order, adding a row per client or per traffic class.  When the pool's
I/O scheduler is the :class:`~repro.iosched.scheduler.OverlapScheduler`,
every client's plans are timed on its own virtual-clock session —
declustered disks service different clients concurrently, so the
makespan drops below the serial response time.  All three feed one
serving loop inside one *run scope*; their order is their only
difference.

A query's filter and refinement depend on the tree and the objects,
never on the buffer or the clock.  So when every operation of a
sessions or traffic run is a window or a point, the run *answers* them
ahead of pricing, a block at a time: when serving reaches a query not
yet answered, the queries of its block (:class:`_AnswerStage`), as many
as a bound on their leaf groups lets in, are filtered by one block
traversal of the tree, gathered once per data page reached and refined
together; an answer is kept as its count.  Serving such an operation
only prices it — its node visits and object transfers, in its turn,
through the same plans as a live query — and drops its answer.  A run holding a write, a reorg, a join or a malformed
operation is served live, operation by operation, as is every
:meth:`WorkloadEngine.run` stream.
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
from repro.iosched.admission import make_admission
from repro.iosched.scheduler import OverlapScheduler, device_times
from repro.obs import trace as _obs
from repro.obs.metrics import percentile_sorted as _percentile_sorted
from repro.storage.base import SpatialOrganization

__all__ = ["OP_KINDS", "Row", "RunReport", "WorkloadEngine"]

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


class _Answered(NamedTuple):
    """A window or point operation answered ahead of its pricing
    (:meth:`SpatialOrganization._answer`): what pricing it still needs —
    its rectangle, visited nodes and leaf groups — and its answer
    count (the answers themselves are never built as objects)."""

    kind: str
    rect: Rect
    visited: list
    groups: list
    results: int


#: Queries of one kind per block of the answer stage: at this size
#: numpy's fixed cost per call is amortized, and ``traffic_open``'s 207
#: windows and 142 points are one block each.
_ANSWER_BATCH = 256

#: Leaf groups one answer-stage call brings, about: a block whose
#: queries match more (a large window has dozens, each a view of its
#: data page's positions held) is answered in parts, each when serving
#: reaches it.  ``traffic_open``'s 1,581 window groups are one part.
_BLOCK_GROUPS = 2048

#: Leaf groups of the answers kept whole while they wait for their
#: operations, at most; see :class:`_AnswerStage`.  ``traffic_open``'s
#: 1,782 groups all fit.
_GROUPS_HELD = _BLOCK_GROUPS


class _Query(NamedTuple):
    """A window or point operation of a read-only run, in its stream's
    place: the ``index``-th query of its ``kind`` in the ``stage``'s
    order."""

    stage: "_AnswerStage"
    kind: str
    index: int


class _AnswerStage:
    """Answers a read-only run's queries a block at a time, as serving
    reaches them, and forgets each answer once it is served.

    Per kind the queries stand in the order serving tends to reach
    them — every session's first query in arrival order, then every
    second one, and so on — cut into blocks of :data:`_ANSWER_BATCH`.
    Serving an unanswered query answers (filters and refines) what of
    its block is not answered yet, from that query on, up to about
    :data:`_BLOCK_GROUPS` leaf groups.  A session whose later queries
    wait long behind busy arms keeps answers of its block waiting too,
    so answers of at most :data:`_GROUPS_HELD` leaf groups are kept
    whole: past that the oldest keeps only its answer count, and serving
    it walks the tree again for its visits and groups (the filter, not
    the refinement).  Every query is refined once, and answers depend on
    neither clock nor buffer, so block boundaries change nothing
    priced."""

    def __init__(self, storage: SpatialOrganization, streams: list[list]):
        self.storage = storage
        self.queries: dict[str, list[tuple]] = {"window": [], "point": []}
        self.streams = [[None] * len(ops) for ops in streams]
        for step in range(max(map(len, streams), default=0)):
            for ops, places in zip(streams, self.streams):
                if step < len(ops):
                    kind = ops[step][0]
                    order = self.queries[kind]
                    places[step] = _Query(self, kind, len(order))
                    order.append(ops[step])
        self.answers: dict[tuple[str, int], _Answered] = {}  # oldest first
        self.groups_held = 0  # leaf groups of ``answers``
        self.counts: dict[tuple[str, int], int] = {}  # answers kept as a count
        self.served = {kind: bytearray(len(ops)) for kind, ops in self.queries.items()}

    def take(self, query: _Query) -> tuple[Rect, list, list, int]:
        """What pricing ``query`` needs — its rectangle, visited nodes
        and leaf groups — and its answer count."""
        kind, index = key = (query.kind, query.index)
        answers, counts = self.answers, self.counts
        if key not in answers and key not in counts:
            self._answer_block(kind, index)
        self.served[kind][index] = 1
        answered = answers.pop(key, None)
        if answered is not None:
            self.groups_held -= len(answered.groups)
            return answered.rect, answered.visited, answered.groups, answered.results
        rect = _query_rect(self.queries[kind][index])
        [(_start, reach)] = self.storage._filter([rect])
        return rect, reach.visited[0], reach.groups()[0], counts.pop(key)

    def _answer_block(self, kind: str, index: int) -> None:
        """Answer what of ``index``'s block is not answered yet, from
        ``index`` on (then the block's earlier queries), up to about
        :data:`_BLOCK_GROUPS` leaf groups; then keep the answers of at
        most :data:`_GROUPS_HELD` groups whole, ``index``'s last."""
        ops, served, answers, counts = self.queries[kind], self.served[kind], self.answers, self.counts
        start = index - index % _ANSWER_BATCH
        block = [
            i for i in (*range(index, min(start + _ANSWER_BATCH, len(ops))), *range(start, index))
            if not served[i] and (kind, i) not in answers and (kind, i) not in counts
        ]
        rects = [_query_rect(ops[i]) for i in block]
        for i, rect, answer in zip(
            block, rects, self.storage._answer(rects, kind == "point", _BLOCK_GROUPS)
        ):
            groups = answer.groups
            answers[kind, i] = _Answered(kind, rect, answer.visited, groups, len(answer.rows))
            self.groups_held += len(groups)
        answers[kind, index] = answers.pop((kind, index))  # the newest: served now
        while self.groups_held > _GROUPS_HELD and len(answers) > 1:
            oldest = next(iter(answers))
            answered = answers.pop(oldest)
            self.groups_held -= len(answered.groups)
            counts[oldest] = answered.results


def _query_rect(op) -> Rect | None:
    """The rectangle serving ``op`` queries, if ``op`` is a window or
    point operation that serving cannot refuse (a :class:`Rect`, or
    ordered Python numbers); ``None`` for any other operation."""
    if not isinstance(op, tuple) or len(op) < 2 or type(op[0]) is not str:
        return None
    if op[0] == "window":
        if isinstance(op[1], Rect):
            return op[1]
        coords = op[1:5]
    elif op[0] == "point":
        coords = op[1:3] * 2
    else:
        return None
    if len(coords) != 4 or not all(isinstance(v, (int, float)) for v in coords):
        return None
    xmin, ymin, xmax, ymax = coords
    return Rect(*coords) if xmin <= xmax and ymin <= ymax else None


class _Served(NamedTuple):
    """One served operation: the only thing a report row folds.
    ``device_ms`` is the growth of its phase's running device total."""

    kind: str
    results: int
    latency_ms: float
    device_ms: float
    queued_ms: float
    hits: int
    misses: int
    io: DiskStats


@dataclass(slots=True)
class Row:
    """The served operations of one phase (operation kind), client
    session or traffic class, folded.

    ``io`` accounts **device time** (the disk resource consumed; summed
    over the devices of a sharded store), ``response_ms`` the
    **response time** the clients observed — per operation the busiest
    disk's share, so declustered execution makes it smaller than the
    device time.  On a single disk the two are equal.  Under the
    overlap scheduler a response includes queueing behind other
    clients: ``queueing_ms`` is the share spent waiting — admission
    delays plus time the requests sat behind busy arms.  ``latencies``
    are the per-operation response times behind the percentiles.
    """

    name: str
    operations: int = 0
    results: int = 0
    hits: int = 0
    misses: int = 0
    io: DiskStats = field(default_factory=DiskStats)
    response_ms: float = 0.0
    device_ms: float = 0.0
    queueing_ms: float = 0.0
    #: Sessions aggregated into this row (1 for a plain client; the
    #: per-class rows of a traffic run count their sessions here).
    sessions: int = 0
    latencies: list[float] = field(default_factory=list)
    # Cached ascending copy of ``latencies`` (keyed on sample size).
    _sorted: list[float] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def fold(self, record: _Served) -> None:
        """Add one served operation to this row."""
        self.operations += 1
        self.results += record.results
        self.hits += record.hits
        self.misses += record.misses
        self.io = self.io + record.io
        self.response_ms += record.latency_ms
        self.device_ms += record.device_ms
        self.queueing_ms += record.queued_ms
        self.latencies.append(record.latency_ms)

    def sorted_latencies(self) -> list[float]:
        """The latencies in ascending order, sorted once per report
        (re-sorted only after new observations): percentile properties
        on a 10^5-operation sample must not re-sort the full list per
        access."""
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


def _find(rows: list[Row], name: str) -> Row | None:
    return next((row for row in rows if row.name == name), None)


_HEADERS = {
    "workload": "workload: policy={r.policy}, buffer={r.buffer_pages} pages",
    "sessions": "sessions: scheduler={r.scheduler}, admission={r.admission}, "
    "policy={r.policy}, buffer={r.buffer_pages} pages",
    "traffic": "traffic: sessions={r.sessions}, "
    "scheduler={r.scheduler}, admission={r.admission}, "
    "policy={r.policy}, buffer={r.buffer_pages} pages",
}
_CLASS_COLUMNS = ("class", "sessions", "ops", "queue ms", "p50 ms", "p95 ms", "p99 ms")


@dataclass(slots=True)
class RunReport:
    """Outcome of one :class:`WorkloadEngine` run.

    ``run`` (``"workload"``, ``"sessions"`` or ``"traffic"``) names the
    entry point and chooses the header and second table.  ``phases``
    aggregate over all clients; ``clients`` break a sessions run down per
    session, ``classes`` a traffic run per traffic class (10^5-session
    traffic cannot report per client).

    ``prefetch`` carries the pool's prefetch accuracy over this run:
    plans ``issued``, ``pages`` read ahead, pages later demand-hit
    (``useful``) vs evicted unused (``wasted``).  All zero when the pool
    has no prefetcher.

    ``makespan_ms`` is when the whole workload finished: under the
    overlap scheduler the virtual clock's latest event (clients *and*
    trailing prefetch work), under the sync scheduler the serial sum of
    the responses.  ``scheduler`` / ``admission`` name what timed it;
    ``sessions`` counts the sessions served, so ``throughput_per_s`` is
    the completed-sessions rate over the makespan."""

    run: str
    policy: str
    buffer_pages: int
    scheduler: str = "sync"
    admission: str = "none"
    sessions: int = 0
    makespan_ms: float = 0.0
    prefetch: dict[str, int] = field(
        default_factory=lambda: dict(issued=0, pages=0, useful=0, wasted=0)
    )
    phases: list[Row] = field(default_factory=list)
    clients: list[Row] = field(default_factory=list)
    classes: list[Row] = field(default_factory=list)

    def phase(self, name: str) -> Row | None:
        return _find(self.phases, name)

    def client(self, name: str) -> Row | None:
        return _find(self.clients, name)

    def traffic_class(self, name: str) -> Row | None:
        return _find(self.classes, name)

    @property
    def operations(self) -> int:
        return sum(p.operations for p in self.phases)

    @property
    def total_io(self) -> DiskStats:
        return sum((p.io for p in self.phases), DiskStats())

    @property
    def hit_rate(self) -> float:
        phases = self.phases
        return hit_ratio(sum(p.hits for p in phases), sum(p.misses for p in phases))

    @property
    def total_response_ms(self) -> float:
        return sum(p.response_ms for p in self.phases)

    @property
    def throughput_per_s(self) -> float:
        """Completed sessions per virtual second of makespan."""
        makespan_s = self.makespan_ms / 1000.0
        return self.sessions / makespan_s if self.makespan_ms > 0.0 else 0.0

    def format(self, title: str | None = None) -> str:
        """The aligned per-phase table (what `repro.eval workload`
        prints), then the per-client or per-class table of a sessions or
        traffic run.  ``title`` replaces the per-phase table's header."""
        from repro.eval.report import format_rows, format_table

        phases = self.phases
        total = Row(
            "total", self.operations, sum(p.results for p in phases),
            sum(p.hits for p in phases), sum(p.misses for p in phases),
            self.total_io, self.total_response_ms,
        )
        text = format_rows(title or _HEADERS[self.run].format(r=self), [
            {"phase": p.name, "ops": p.operations, "results": p.results,
             "hit rate": f"{p.hit_rate:.1%}", "requests": p.io.requests,
             "pages": p.io.pages_transferred, "device ms": p.io.total_ms,
             "response ms": p.response_ms, "overlap ms": p.overlap_ms}
            for p in (*phases, total)
        ])
        if self.prefetch["pages"] or self.prefetch["issued"]:
            text += (
                "\nprefetch: {issued} plans, {pages} pages read ahead, "
                "{useful} useful, {wasted} wasted"
            ).format(**self.prefetch)
        if self.run == "sessions":
            clients = [
                {"client": c.name, "ops": c.operations, "results": c.results,
                 "device ms": c.device_ms, "response ms": c.response_ms,
                 "queue ms": c.queueing_ms, "p50 ms": c.p50_ms, "p95 ms": c.p95_ms}
                for c in self.clients
            ]
            clients.append(
                {"client": "makespan", "ops": self.operations,
                 "results": sum(c.results for c in self.clients),
                 "device ms": self.total_io.total_ms, "response ms": self.makespan_ms,
                 "queue ms": sum(c.queueing_ms for c in self.clients),
                 "p50 ms": "", "p95 ms": ""}
            )
            return f"{text}\n\n{format_rows('per-client sessions', clients)}"
        if self.run == "traffic":
            classes = [
                {"class": c.name, "sessions": c.sessions, "ops": c.operations,
                 "queue ms": c.queueing_ms, "p50 ms": c.p50_ms,
                 "p95 ms": c.p95_ms, "p99 ms": c.p99_ms}
                for c in self.classes
            ]
            # With no class row there are no keys: name the header.
            per_class = format_rows("per-class latency", classes) if classes else (
                format_table(_CLASS_COLUMNS, [], title="per-class latency")
            )
            return (
                f"{text}\n\n{per_class}\n\nmakespan {self.makespan_ms:.1f} ms, "
                f"{self.throughput_per_s:.1f} sessions/s"
            )
        return text


def _round_robin(clients: list[Row], streams: list[list]):
    """The sessions order: one operation per client per turn, i.e. in
    ``(step, client_index)`` order."""
    for step in range(max(map(len, streams), default=0)):
        for client, ops in zip(clients, streams):
            if step < len(ops):
                yield client.name, ops[step], None, client


def _arrivals(report: RunReport, sessions: list, streams: list[list], scheduler: OverlapScheduler):
    """The traffic order: a heap of ``(ready_ms, session_index,
    operation_index, first_ready_ms)`` — the last element survives
    admission re-queues so latency stays measured from the time the
    operation first became ready.  A follow-up is ready at its
    predecessor's completion (read off the clock after the yield) plus
    think time.  ``streams[i]`` holds session ``i``'s operations."""
    clock = scheduler.clock
    heap = [(s.arrival_ms, i, 0, s.arrival_ms)
            for i, s in enumerate(sessions) if streams[i]]
    heapify(heap)
    while heap:
        ready, index, step, first_ready = heappop(heap)
        session = sessions[index]
        name = session.name
        policy = scheduler.admission
        if policy is not None:
            # A throttled operation re-enters the event queue at its
            # admitted time instead of holding its slot, so other clients'
            # ready work overtakes it — the reordering that lets
            # interactive operations pass paced bulk work.  (Token buckets
            # admit idempotently: when the re-queued event pops, the
            # drained bucket has refilled to exactly zero and the
            # scheduler's own admit adds no second wait.)
            admitted = policy.admit(name, ready, clock)
            if admitted > ready:
                heappush(heap, (admitted, index, step, first_ready))
                continue
        clock.wait(name, ready)
        klass = report.traffic_class(session.klass)
        if klass is None:
            klass = Row(session.klass)
            report.classes.append(klass)
        if step == 0:
            klass.sessions += 1
        operations = streams[index]
        yield name, operations[step], first_ready, klass
        step += 1
        if step < len(operations):
            follow_up = clock.client_time(name) + session.think_ms
            heappush(heap, (follow_up, index, step, follow_up))


class WorkloadEngine:
    """Runs operation streams against one organization and pool.

    :meth:`run`, :meth:`run_sessions` and :meth:`run_traffic` feed one
    serving loop (:meth:`_drive`) inside one *run scope*
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
        # Run state, set by _run_scope for the serve step.
        self._scheduler: OverlapScheduler | None = None
        self._tracer = None
        self._spans: dict[str, object] = {}
        self._op_span = None

    # ------------------------------------------------------------------
    def run(self, operations) -> RunReport:
        """Execute the stream and return the per-phase report.

        The organization's page traffic is routed through the engine's
        pool for the duration; dirty frames are written back (with
        coalesced vectored transfers) in a final ``flush`` phase and
        the original pool wiring is restored.
        """
        report = RunReport("workload", self.pool.policy, self.pool.capacity)
        with self._run_scope(report, clients=("main",)):
            self._drive(report, (("main", op, None, None) for op in operations), "phase")
        return report

    def run_sessions(self, sessions, admission=None) -> RunReport:
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
        clients = [Row(str(name), sessions=1) for name, _ in pairs]
        report = RunReport(
            "sessions", self.pool.policy, self.pool.capacity,
            sessions=len(pairs), clients=clients,
        )
        streams = [list(ops) for _, ops in pairs]
        with self._run_scope(report, [c.name for c in clients], admission):
            streams = self._answer_ahead(streams)
            self._drive(report, _round_robin(clients, streams), "client")
        return report

    def run_traffic(self, sessions, admission=None) -> RunReport:
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
        genuinely overtakes paced bulk work.
        """
        sessions = list(sessions)
        if not isinstance(self.pool.scheduler, OverlapScheduler):
            raise ConfigurationError(
                "traffic runs need the overlap scheduler — arrivals and "
                "queueing live on the virtual clock"
            )
        report = RunReport(
            "traffic", self.pool.policy, self.pool.capacity, sessions=len(sessions)
        )
        with self._run_scope(report, admission=admission, client_metrics=False):
            streams = self._answer_ahead([s.operations for s in sessions])
            self._drive(report, _arrivals(report, sessions, streams, self._scheduler), "class")
        return report

    # ------------------------------------------------------------------
    @contextmanager
    def _run_scope(
        self, report: RunReport, clients=(), admission=None, client_metrics=True
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
        records prefetch accuracy and makespan; any exit clears the
        scheduler's admission policy, restores its metrics and the
        storage pool and closes the run's spans.
        """
        policy = make_admission(admission)
        scheduler = self.pool.scheduler
        timed = isinstance(scheduler, OverlapScheduler)
        if policy is not None and not timed:
            raise ConfigurationError(
                "admission control needs the overlap scheduler — "
                "admission delays live on the virtual clock"
            )
        report.scheduler = scheduler.name
        self._scheduler = scheduler if timed else None
        if timed:
            scheduler.reset()
            metrics = scheduler.metrics
            scheduler.admission = policy
            if policy is not None:
                policy.reset()
                report.admission = policy.name
            if not client_metrics:
                scheduler.metrics = None
        tracer = _obs.ACTIVE
        spans = {}
        if tracer is not None:
            tracer.use_virtual_clock(timed)
            for name in clients:
                spans[name] = tracer.begin(
                    "session", cat="session", track=name,
                    ts=0.0 if timed else None, parent=None, args={"client": name},
                )
        self._tracer, self._spans, self._op_span = tracer, spans, None
        prefetch_mark = self.pool.prefetch_stats()
        try:
            with self.storage.use_pool(self.pool):
                yield
                self._flush_phase(report)
            now = self.pool.prefetch_stats()
            report.prefetch = {key: now[key] - prefetch_mark[key] for key in now}
            report.makespan_ms = (
                scheduler.clock.makespan if timed else report.total_response_ms
            )
        finally:
            if timed:
                scheduler.admission, scheduler.metrics = None, metrics
            # Innermost first: an operation that raised left its span open.
            for span in (self._op_span, *spans.values()):
                if span is not None and span.end_ms is None:
                    ts = scheduler.clock.client_time(span.track) if timed else None
                    tracer.end(span, ts=ts)

    def _drive(self, report: RunReport, order, group: str) -> None:
        """The serving loop: serve each ``(client, op, first_ready,
        row)`` of the lazy ``order`` (:meth:`_serve` folds it into its
        phase row), fold it into ``row`` unless that is ``None`` (the phase
        is the group), and observe ``op.latency_ms{<group>=<row>}``."""
        histogram = self.pool.metrics.histogram
        latencies: dict[str, object] = {}  # label -> its histogram
        for client, op, first_ready, row in order:
            served = self._serve(report, client, op, first_ready)
            if row is not None:
                row.fold(served)
            label = served.kind if row is None else row.name
            observed = latencies.get(label)
            if observed is None:
                observed = latencies[label] = histogram("op.latency_ms", **{group: label})
            observed.observe(served.latency_ms)

    def _serve(self, report: RunReport, client: str, op, first_ready) -> _Served:
        """The serve step: execute one operation on ``client``'s
        timeline and fold it into its kind's phase :class:`Row`.

        Under a virtual-clock scheduler the operation runs inside the
        client's ``scheduler.operation`` scope and its latency is the
        client's completion time minus ``first_ready`` (default: the
        operation's start — a traffic operation that waited for
        admission was ready earlier, and that wait counts as queueing);
        otherwise it is the busiest disk's delta.  A client with a
        session span gets an ``op`` span, renamed to the operation's
        kind once execution reveals it.
        """
        scheduler, pool, disk = self._scheduler, self.pool, self.storage.disk
        mark, hits, misses = disk.snapshot(), pool.hits, pool.misses
        started = None
        if scheduler is not None:
            clock = scheduler.clock
            started = clock.client_time(client)
            queued_mark = scheduler.client_queueing_ms(client)
            disk.touched.clear()
        session_span = self._spans.get(client)
        if session_span is not None:
            tracer = self._tracer
            tracer.set_track(client)
            if started is not None:
                tracer.virtual_now = started
            op_span = self._op_span = tracer.begin(
                "op", cat="operation", ts=started, parent=session_span
            )
        if scheduler is None:
            kind, results = self._execute(op)
            io = disk.stats_since(mark)
        else:
            operation = scheduler.operation(client)
            with operation:
                kind, results = self._execute(op)
            # Only the devices priced inside the operation have moved.
            io = disk.stats_since(mark, operation.touched | disk.touched)
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
            latency = disk.cost_since(mark).response_ms
            queued = 0.0
        if session_span is not None:
            op_span.name = kind
            tracer.end(op_span, ts=finished)
        phase = report.phase(kind)
        if phase is None:
            phase = Row(kind)
            report.phases.append(phase)
        device = (phase.io + io).total_ms - phase.io.total_ms
        served = _Served(
            kind, results, latency, device, queued,
            pool.hits - hits, pool.misses - misses, io,
        )
        phase.fold(served)
        return served

    def _flush_phase(self, report: RunReport) -> None:
        """Write back dirty frames as the report's final phase.

        Under a virtual-clock scheduler the write-back's device work is
        dispatched onto the per-disk queues (issued when the last
        client finished), so the makespan covers the flush exactly as
        the synchronous accounting does."""
        scheduler, tracer = self._scheduler, self._tracer
        pool, disk = self.pool, self.storage.disk
        mark, hits, misses = disk.snapshot(), pool.hits, pool.misses
        if scheduler is None:
            span = nullcontext() if tracer is None else tracer.span(
                "flush", cat="flush", track="main"
            )
            with span:
                pool.flush(coalesce=True)
            response_ms = disk.cost_since(mark).response_ms
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
                pool.flush(coalesce=True)
            work = [now - then for now, then in zip(device_times(disk), before)]
            completion = scheduler.clock.dispatch(issued, work)
            if tracer is not None:
                tracer.end(flush_span, ts=completion)
            response_ms = completion - issued
        io = disk.stats_since(mark)
        if io.requests:
            # One operation, no latency sample: the flush is the run's
            # write-back, not a client's request.
            hits, misses = pool.hits - hits, pool.misses - misses
            report.phases.append(
                Row("flush", 1, 0, hits, misses, io, response_ms, io.total_ms)
            )

    # ------------------------------------------------------------------
    def _answer_ahead(self, streams: list) -> list:
        """``streams`` (one operation sequence per session) with every
        operation replaced, in its place, by its :class:`_Query` — if
        every operation is a window or point :func:`_query_rect`
        accepts.  Nothing a query's filter or refinement computes
        depends on the buffer or the clock, so a run without writes
        answers its windows and its points ahead of pricing them, a
        block at a time (:class:`_AnswerStage`); serving an answered
        operation only prices it.  Any other run (a write, a reorg, a
        join, a malformed operation) gets ``streams`` back and is served
        live."""
        if any(_query_rect(op) is None for ops in streams for op in ops):
            return streams
        return _AnswerStage(self.storage, streams).streams

    def _execute(self, op) -> tuple[str, int]:
        """Execute one operation (the caller snapshots the statistics
        marks beforehand); an answered one is only priced."""
        if type(op) is _Query:
            rect, visited, groups, results = op.stage.take(op)
            storage = self.storage
            storage._transfer(visited, groups, rect, op.kind == "point", storage._batchable())
            return op.kind, results
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
