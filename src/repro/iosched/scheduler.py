"""I/O schedulers: executing access plans against the buffer pool.

An :class:`IOScheduler` turns the declarative requests of an
:class:`~repro.iosched.request.AccessPlan` back into priced buffer-pool
primitives.  Two schedulers exist:

* :class:`SyncScheduler` (``sync``, the default) — executes every step
  immediately and in order through exactly the pool calls the
  historical imperative code made.  Device statistics, head movement
  and request pricing are **bit-identical** to the pre-plan code; the
  paper's figures do not move.
* :class:`OverlapScheduler` (``overlap``) — issues the same priced
  calls (device accounting stays identical to ``sync``), but
  additionally times each request on a :class:`VirtualClock` with one
  service queue per disk.  All requests of a plan are dispatched
  asynchronously when the plan is submitted, so a declustered store
  services them concurrently; plans from different client sessions
  share the queues, so the disks overlap work across clients.  The
  client-observed **response time** is then the simulated completion,
  not the serial sum — on a multi-disk store it drops below the
  synchronous pricing whenever requests land on different arms.

The virtual clock measures each request's device time by differencing
the millisecond totals of the store's ``disks`` around the priced call —
only of the disks the store's ``touched`` set names, as the others did
not move — so any :class:`~repro.pagestore.store.PageStore` works,
including the single :class:`~repro.disk.model.DiskModel` (one queue).
"""

from __future__ import annotations

from bisect import bisect_right
from contextlib import contextmanager, nullcontext
from typing import TYPE_CHECKING, Iterator, Protocol, runtime_checkable

from repro.errors import ConfigurationError
from repro.iosched.request import AccessPlan, IORequest
from repro.obs import trace as _obs

if TYPE_CHECKING:  # pragma: no cover - import would be circular at runtime
    from repro.buffer.pool import BufferPool

__all__ = [
    "IOScheduler",
    "SyncScheduler",
    "OverlapScheduler",
    "VirtualClock",
    "SCHEDULERS",
    "make_scheduler",
    "SYNC",
]


def device_times(store) -> list[float]:
    """Per-device millisecond totals of a backing store (one entry for
    a single :class:`~repro.disk.model.DiskModel`)."""
    return [disk.total_ms for disk in store.disks]


@runtime_checkable
class IOScheduler(Protocol):
    """Anything that can execute an access plan against a pool, with
    the scope surface its callers use (:class:`SyncScheduler` is the
    null implementation to derive from)."""

    name: str
    admission: object
    in_operation: bool

    def execute(self, plan: AccessPlan, pool: "BufferPool") -> float: ...
    def operation(self, client: str): ...


class SyncScheduler:
    """Immediate in-order execution — the historical pricing.

    Every request maps onto one buffer-pool primitive; chain
    auto-continuation reproduces the warm-pool seek rule (only the
    first request of a chain that actually transfers pays the
    positioning seek).  The returned cost is the sum of the priced
    requests, exactly what the imperative call chain returned.
    """

    name = "sync"

    #: The scope surface :class:`OverlapScheduler` gives meaning to; here
    #: nothing is ever delayed, so there is no admission policy, no
    #: operation is ever open and a scope changes nothing.
    admission = None
    in_operation = False

    def operation(self, client: str):
        """One client operation: a null scope (execution is immediate)."""
        return nullcontext(self)

    def execute(self, plan: AccessPlan, pool: "BufferPool") -> float:
        return self._run(plan, pool, _obs.ACTIVE)

    def _run(
        self, plan: AccessPlan, pool: "BufferPool", tracer: "_obs.Tracer | None" = None
    ) -> float:
        """Issue the requests in order (traced: a plan span per segment)."""
        chains: set[int] = set()
        total = 0.0
        if tracer is None:
            for request in plan.requests:
                total += self._issue(request, pool, chains, plan)
            return total
        for label, requests in plan.segments():
            span = tracer.begin(
                label,
                cat="plan",
                args={"requests": len(requests), "prefetch": plan.prefetch},
            )
            try:
                for request in requests:
                    rspan = tracer.begin(request.op, cat="request")
                    try:
                        total += self._issue(request, pool, chains, plan)
                    finally:
                        tracer.end(rspan)
            finally:
                tracer.end(span)
        return total

    # ------------------------------------------------------------------
    def _issue(
        self,
        request: IORequest,
        pool: "BufferPool",
        chains: set[int],
        plan: AccessPlan,
    ) -> float:
        op, start, npages, chain = request.op, request.start, request.npages, request.chain
        continuation = request.continuation if chain is None else chain in chains
        # The common operations first: a node ``get``, a buffered write.
        if op == "get" or op == "read":
            # A get is a one-page read: a hit is free, a miss is priced
            # and admitted.
            cost = pool.read(start, npages, continuation)
        elif op == "write":
            cost = pool.write(start, npages, continuation)
        elif op == "fetch":
            cost = pool.fetch(start, npages, continuation, request.admit)
        elif op == "load_pages":
            pages = request.pages or ()
            cost = pool.load_pages(pages)
            start, npages = (pages[0], pages[-1] - pages[0] + 1) if pages else (0, 0)
        elif op == "flush_pages":
            pages = request.pages or ()
            cost = pool.write_back_pages(pages)
            start, npages = (
                (min(pages), max(pages) - min(pages) + 1) if pages else (0, 0)
            )
        elif op == "charge":
            return pool.charge(
                seeks=request.seeks,
                rotations=request.rotations,
                pages=npages,
            )
        else:
            raise ConfigurationError(f"unknown plan operation '{op}'")
        if chain is not None and cost:
            chains.add(chain)
        if npages:
            plan.executed.append((start, npages, cost))
        return cost


class VirtualClock:
    """Simulated time: one service queue per disk, one clock per client.

    ``dispatch(at, work)`` queues one request's per-disk work at virtual
    time ``at``: each involved disk starts the fragment at the earliest
    time >= ``at`` with an idle interval long enough to hold it — a
    request issued early may *back-fill* a gap in front of work that was
    queued for a later time (the service queues are busy-interval
    indexes, not single tail pointers) — and the request completes when
    the slowest fragment does.  Clients that block on a plan advance to
    its completion; non-blocking (prefetch) plans only occupy the disks.

    After every ``dispatch``, :attr:`last_wait_ms` holds the queueing
    delay of that request: the longest time any of its fragments sat
    waiting for a busy arm beyond the issue time.

    The busy intervals of each disk are kept as two parallel sorted
    lists (starts, ends) so a reservation binary-searches its issue
    time into the queue (``bisect`` on the interval *ends*) instead of
    scanning from the head, and a conservative per-disk upper bound on
    the largest interior idle gap short-circuits requests that cannot
    back-fill straight to the queue tail.  The common traffic shapes —
    appending at the tail, extending the tail interval, back-filling
    near the issue time — are all O(log n) per reservation, against
    O(n) for the straight interval-list scan this class replaced (kept
    as ``tests/interval_list_clock.py``, the equivalence oracle).
    Placement semantics are exactly the interval-list clock's.
    """

    __slots__ = (
        "clients", "last_wait_ms", "last_intervals", "_starts", "_ends", "_max_gap"
    )

    def __init__(self):
        self.clients: dict[str, float] = {}
        self.last_wait_ms = 0.0
        #: Placement of the last dispatched request: one
        #: ``(disk_index, begin, end)`` per involved disk — the span
        #: tracer stamps device service spans from these.
        self.last_intervals: list[tuple[int, float, float]] = []
        # Per disk: parallel sorted lists of busy-interval starts/ends
        # (merged: no zero gaps between consecutive intervals survive a
        # reservation that touches them exactly).
        self._starts: list[list[float]] = []
        self._ends: list[list[float]] = []
        # Per disk: conservative upper bound on the largest *interior*
        # idle gap (between two busy intervals).  Only ever grows while
        # intervals accumulate — consuming a gap does not lower it — so
        # it may over-estimate, which only costs a scan, never places
        # work differently from the interval-list clock.
        self._max_gap: list[float] = []

    def client_time(self, client: str = "main") -> float:
        """A client's current virtual time in ms."""
        return self.clients.get(client, 0.0)

    def wait(self, client: str, until: float) -> None:
        """Block a client until ``until`` (never moves time backwards)."""
        if until > self.clients.get(client, 0.0):
            self.clients[client] = until

    def dispatch(self, at: float, work_per_disk: list[float]) -> float:
        """Queue one request's per-disk work at time ``at``; returns the
        completion time (max over the involved disks) and records the
        request's queueing delay in :attr:`last_wait_ms`."""
        if len(self._starts) < len(work_per_disk):
            self._ensure(len(work_per_disk))
        finish = at
        wait = 0.0
        intervals: list[tuple[int, float, float]] = []
        for disk, work in enumerate(work_per_disk):
            if work <= 0.0:
                continue
            begin = self.reserve(disk, at, work)
            end = begin + work
            intervals.append((disk, begin, end))
            if begin - at > wait:
                wait = begin - at
            if end > finish:
                finish = end
        self.last_wait_ms = wait
        self.last_intervals = intervals
        return finish

    @property
    def makespan(self) -> float:
        """Virtual time when everything — every disk queue and every
        client — has finished."""
        latest = 0.0
        for tail in self.disk_free:
            if tail > latest:
                latest = tail
        for t in self.clients.values():
            if t > latest:
                latest = t
        return latest

    def reset(self) -> None:
        self._clear()
        self.clients.clear()
        self.last_wait_ms = 0.0
        self.last_intervals = []

    @property
    def disk_free(self) -> list[float]:
        """Per disk, the end of its last busy interval (0.0 while idle).
        Earlier idle gaps may still exist in front of it."""
        return [ends[-1] if ends else 0.0 for ends in self._ends]

    def _ensure(self, n_disks: int) -> None:
        while len(self._starts) < n_disks:
            self._starts.append([])
            self._ends.append([])
            self._max_gap.append(0.0)

    def reserve(self, disk: int, at: float, work: float) -> float:
        """Reserve ``work`` ms on one disk at the earliest start >=
        ``at`` that fits a gap; returns the begin time."""
        if disk >= len(self._starts):
            self._ensure(disk + 1)
        starts = self._starts[disk]
        ends = self._ends[disk]
        n = len(ends)
        begin = at
        if n == 0 or begin >= ends[n - 1]:
            # Past the queue tail: nothing left to scan.
            position = n
        else:
            # Skip every interval that ends at or before the issue time
            # in one binary search, then test the gap in front of the
            # first busy interval past ``begin``.
            position = bisect_right(ends, begin)
            if begin + work <= starts[position]:
                pass  # fits before the next busy interval
            elif work > self._max_gap[disk]:
                # No interior gap anywhere can hold it: go straight to
                # the tail.
                begin = ends[n - 1]
                position = n
            else:
                begin = ends[position]
                position += 1
                while position < n:
                    if begin + work <= starts[position]:
                        break
                    begin = ends[position]
                    position += 1
        lo, hi = begin, begin + work
        # Merge with exactly-touching neighbours to keep the lists
        # compact (same rule as the interval-list clock).
        left = position > 0 and ends[position - 1] == lo
        right = position < len(starts) and starts[position] == hi
        if left and right:
            ends[position - 1] = ends[position]
            del starts[position]
            del ends[position]
        elif left:
            ends[position - 1] = hi
        elif right:
            starts[position] = lo
        else:
            starts.insert(position, lo)
            ends.insert(position, hi)
            # The inserted interval may create fresh interior gaps on
            # either side (tail append after idle time, or a placement
            # in front of the head interval); fold them into the bound.
            gap = self._max_gap[disk]
            if position > 0 and lo - ends[position - 1] > gap:
                gap = lo - ends[position - 1]
            if position + 1 < len(starts) and starts[position + 1] - hi > gap:
                gap = starts[position + 1] - hi
            self._max_gap[disk] = gap
        return begin

    def _clear(self) -> None:
        self._starts.clear()
        self._ends.clear()
        self._max_gap.clear()


class _OperationScope:
    """One :meth:`OverlapScheduler.operation` block, as its context
    manager: entered, it charges the scheduler's plans to ``client``
    and dispatches them at ``start``; exited, it advances the client to
    ``completion``.  ``touched`` collects the indices into the store's
    ``disks`` of every device priced inside the block (nested blocks'
    included)."""

    __slots__ = (
        "scheduler", "client", "start", "completion", "device_ms", "touched",
        "_outer", "_previous",
    )

    def __init__(self, scheduler: "OverlapScheduler", client: str):
        self.scheduler = scheduler
        self.client = client
        self.device_ms = 0.0
        self.touched: set[int] = set()

    def __enter__(self) -> "OverlapScheduler":
        scheduler, client = self.scheduler, self.client
        self._previous, scheduler._client = scheduler._client, client
        self._outer = outer = scheduler._scope
        now = scheduler.clock.client_time(client)
        at = now
        if scheduler.admission is not None and outer is None:
            at = scheduler._admit(client, now)
        self.start = self.completion = at
        scheduler._scope = self
        return scheduler

    def __exit__(self, *exc) -> None:
        scheduler, outer = self.scheduler, self._outer
        scheduler._scope = outer
        scheduler.clock.wait(self.client, self.completion)
        if outer is not None:
            outer.touched |= self.touched
        elif scheduler.admission is not None:
            scheduler.admission.observe(self.client, self.start, self.device_ms, self.completion)
        scheduler._client = self._previous


class OverlapScheduler(SyncScheduler):
    """Simulated asynchronous I/O with per-disk service queues.

    Pricing (device statistics, head positions, request costs) is
    exactly the :class:`SyncScheduler`'s — the overlap scheduler issues
    the same calls in the same order — but every request is also timed
    on the :class:`VirtualClock`: all requests of a plan dispatch at
    the submitting client's current time, queue per disk, and the plan
    completes when its slowest request does.  ``execute`` returns the
    client-observed response time (0 for non-blocking prefetch plans).

    Two timing rules guard causality and fairness:

    * a *prefetch* plan never dispatches before the demand plan whose
      transfer produced its suggestion has completed — inside an
      :meth:`operation` scope the demand plans dispatch at the scope's
      start, but the speculative follow-up starts only at its trigger's
      completion;
    * an :class:`~repro.iosched.admission.AdmissionPolicy` in
      :attr:`admission` (the workload engine installs one for a run)
      may delay an operation's dispatch time; the admission wait and
      every request's queueing delay behind busy arms accumulate per
      client in :attr:`queueing`.

    The ``clock=`` knob swaps the virtual-clock implementation (default
    the bisect-indexed :class:`VirtualClock`; the test suite passes its
    historical O(n)-scan oracle — placements are identical, only the
    bookkeeping cost differs).
    """

    name = "overlap"

    def __init__(self, metrics=None, clock=None):
        self.clock = clock if clock is not None else VirtualClock()
        self._client = "main"
        # Open operation scope, or None outside an operation (then
        # every blocking plan waits for its own completion).
        self._scope: _OperationScope | None = None
        #: The admission policy of the run being served, or None.
        self.admission = None
        #: Accumulated queueing delay per client: admission waits plus
        #: time the client's demand requests spent behind busy arms.
        self.queueing: dict[str, float] = {}
        #: Optional :class:`~repro.obs.metrics.MetricsRegistry` the
        #: queueing delays are mirrored into (``sched.queueing_ms{client=}``).
        self.metrics = metrics
        # Completion time of the last non-prefetch plan (the causality
        # floor for a follow-up prefetch dispatch).
        self._last_completion = 0.0
        # True while a request is being issued against the pool: a
        # nested plan submitted from inside a pool primitive (e.g. the
        # dirty-victim write-back an admission fires) must not dispatch
        # on the clock again — its device time already lands inside the
        # enclosing request's measured interval.
        self._issuing = False

    def _account_queueing(self, client: str, delay_ms: float) -> None:
        self.queueing[client] = self.queueing.get(client, 0.0) + delay_ms
        if self.metrics is not None:
            self.metrics.counter("sched.queueing_ms", client=client).inc(delay_ms)

    @property
    def in_operation(self) -> bool:
        """Is an :meth:`operation` scope open?"""
        return self._scope is not None

    def client_queueing_ms(self, client: str) -> float:
        """Accumulated queueing delay of one client in ms."""
        return self.queueing.get(client, 0.0)

    def operation(self, client: str) -> _OperationScope:
        """One client operation, a context manager: every plan submitted
        inside the block dispatches at the operation's start time — the
        declarative batch model (all of an operation's access plans are
        known up front and issued asynchronously), matching the
        max-over-disks pricing of a lone parallel batch — and the client
        advances to the slowest plan's completion when the block exits.
        Requests still queue per disk, so concurrent clients' operations
        contend for arms and overlap across them.  The scope's
        ``touched`` names the devices priced inside it.

        With an admission policy, the outermost operation's dispatch
        time may be pushed later than the client's current time; the
        wait counts into the client's queueing delay and the policy is
        fed the operation's device time when the block exits."""
        return _OperationScope(self, client)

    def _admit(self, client: str, now: float) -> float:
        """The admission policy's dispatch time for ``client``'s
        operation, ready at ``now``; a wait is queueing delay."""
        at = self.admission.admit(client, now, self.clock)
        if at < now:
            raise ConfigurationError(
                f"admission policy {self.admission.name!r} admitted "
                f"client {client!r} at {at}, before its time {now}"
            )
        if at > now:
            self._account_queueing(client, at - now)
            tracer = _obs.ACTIVE
            if tracer is not None:
                tracer.use_virtual_clock(True)
                wspan = tracer.begin(
                    "admission.wait",
                    cat="admission",
                    track=client,
                    ts=now,
                    args={"client": client},
                )
                tracer.end(wspan, ts=at)
                tracer.instant(
                    "admission.admit",
                    cat="admission",
                    track=client,
                    ts=at,
                    args={"wait_ms": at - now},
                )
        return at

    @contextmanager
    def inline(self) -> Iterator["OverlapScheduler"]:
        """Execute plans submitted inside the block immediately, with
        no clock dispatch — the caller accounts the aggregate device
        time and dispatches it on the clock itself (the workload
        engine prices a whole flush phase as one batch)."""
        previous = self._issuing
        self._issuing = True
        try:
            yield self
        finally:
            self._issuing = previous

    def execute(self, plan: AccessPlan, pool: "BufferPool") -> float:
        """Dispatch every request of ``plan`` on the virtual clock,
        accounting a merged plan segment by segment
        (:meth:`AccessPlan.segments`): float sums are not associative,
        so queueing delay and device time are closed per segment and
        :attr:`_last_completion` is the last segment's — bit-identical
        to what the plans it stands for would have left."""
        if self._issuing:
            # Nested plan fired from inside a request's execution (a
            # pool primitive writing back a dirty victim) or an
            # ``inline()`` scope: price it immediately, without a clock
            # dispatch — exactly where the historical eager call put
            # the cost.
            return self._run(plan, pool)
        scope = self._scope
        issue_at = (
            scope.start if scope is not None else self.clock.client_time(self._client)
        )
        if plan.prefetch and self._last_completion > issue_at:
            # Causality: a speculative follow-up cannot start before the
            # demand transfer that produced its suggestion completed.
            issue_at = self._last_completion
        tracer = _obs.ACTIVE
        if tracer is not None:
            tracer.use_virtual_clock(True)
            tracer.virtual_now = issue_at
        chains: set[int] = set()
        clock, issue = self.clock, self._issue
        completion = issue_at
        # A request's work on a disk is the growth of the disk's total;
        # only the disks the store says it priced can have grown, so
        # only theirs are read (every other entry of ``work`` is 0.0,
        # as the difference of an unchanged total).
        store = pool.disk
        disks, touched = store.disks, store.touched
        totals = device_times(store)
        idle = [0.0] * len(totals)
        self._issuing = True
        try:
            for label, requests in plan.segments():
                if tracer is not None:
                    pspan = tracer.begin(
                        label,
                        cat="plan",
                        ts=issue_at,
                        # Background prefetch plans outlive the operation
                        # that triggered them; detach so nesting
                        # invariants hold.
                        parent=None if plan.prefetch else _obs._UNSET,
                        args={"requests": len(requests), "prefetch": plan.prefetch},
                    )
                finish = issue_at
                queued = 0.0
                device_ms = 0.0
                for request in requests:
                    if tracer is not None:
                        rspan = tracer.begin(request.op, cat="request", ts=issue_at)
                        tracer.begin_pending()
                    if scope is not None:
                        scope.touched |= touched  # the last request's, or priced between
                    touched.clear()
                    issue(request, pool, chains, plan)
                    work = idle.copy()
                    # In disk order: ``device_ms`` adds them as a loop
                    # over every disk would (an unmoved disk adds 0.0).
                    for disk in sorted(touched) if len(touched) > 1 else touched:
                        now = disks[disk].total_ms
                        work[disk] = now - totals[disk]
                        totals[disk] = now
                        device_ms += work[disk]
                    finished = clock.dispatch(issue_at, work)
                    if tracer is not None:
                        tracer.place_pending(
                            {
                                disks[disk]: begin
                                for disk, begin, _end in clock.last_intervals
                            }
                        )
                        tracer.end(rspan, ts=finished)
                    queued += clock.last_wait_ms
                    if finished > finish:
                        finish = finished
                if tracer is not None:
                    tracer.end(pspan, ts=finish)
                if scope is not None:
                    scope.device_ms += device_ms
                if not plan.prefetch:
                    self._last_completion = finish
                    if plan.blocking and queued > 0.0:
                        self._account_queueing(self._client, queued)
                if finish > completion:
                    completion = finish
        finally:
            self._issuing = False
        if not plan.blocking:
            return 0.0
        if scope is not None:
            if completion > scope.completion:
                scope.completion = completion
        else:
            self.clock.wait(self._client, completion)
        return completion - issue_at

    def reset(self) -> None:
        """Restart virtual time (e.g. between experiment phases)."""
        self.clock.reset()
        self._scope = None
        self.queueing.clear()
        self._last_completion = 0.0


SCHEDULERS = ("sync", "overlap")
"""Valid scheduler names for every ``scheduler=`` knob."""

SYNC = SyncScheduler()
"""Shared stateless default scheduler (bit-identical pricing)."""


def make_scheduler(spec: "str | IOScheduler | None") -> "IOScheduler":
    """Resolve a scheduler name (or pass an instance through)."""
    if spec is None:
        return SYNC
    if isinstance(spec, str):
        if spec == "sync":
            return SYNC
        if spec == "overlap":
            return OverlapScheduler()
        raise ConfigurationError(
            f"unknown I/O scheduler '{spec}'; valid: {SCHEDULERS}"
        )
    if isinstance(spec, IOScheduler):
        return spec
    raise ConfigurationError(f"not an I/O scheduler: {spec!r}")
