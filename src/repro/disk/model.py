"""The disk cost model.

:class:`DiskModel` is a deterministic accountant for simulated I/O time.
It never stores data — the organization models keep their own in-memory
state — it *prices* every read and write request with the three-component
model of Section 3.1:

* a **fresh** request costs ``ts + tl + k * tt``,
* a **continuation** request (a follow-up inside a cluster unit that the
  head is already positioned on, Section 5.4.3) costs ``tl + k * tt``,
* a **strictly sequential** request (the next page after the previous
  request, detected from the simulated head position) costs ``k * tt``.

Every request updates the head position; statistics are kept both as
accumulated milliseconds per component and as event counts, and can be
snapshot to measure individual experiment phases.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.disk.extent import Extent
from repro.disk.params import DiskParameters
from repro.errors import ConfigurationError, DiskError
from repro.obs import trace as _obs

__all__ = ["DiskModel", "DiskStats", "VectoredCost", "measure_costs"]


@dataclass(slots=True)
class DiskStats:
    """Accumulated I/O statistics of a :class:`DiskModel`.

    Supports subtraction, so a phase cost is
    ``disk.stats() - snapshot_taken_before_the_phase``.
    """

    requests: int = 0
    seeks: int = 0
    rotations: int = 0
    pages_transferred: int = 0
    seek_ms: float = 0.0
    latency_ms: float = 0.0
    transfer_ms: float = 0.0

    @property
    def total_ms(self) -> float:
        """Total simulated I/O time in milliseconds."""
        return self.seek_ms + self.latency_ms + self.transfer_ms

    @property
    def total_s(self) -> float:
        """Total simulated I/O time in seconds (the unit of Figures 5/14)."""
        return self.total_ms / 1000.0

    # Positional construction: a keyword call of the generated
    # ``__init__`` costs twice as much, and the served path builds a
    # dozen of these per operation.
    def __sub__(self, other: "DiskStats") -> "DiskStats":
        return DiskStats(
            self.requests - other.requests,
            self.seeks - other.seeks,
            self.rotations - other.rotations,
            self.pages_transferred - other.pages_transferred,
            self.seek_ms - other.seek_ms,
            self.latency_ms - other.latency_ms,
            self.transfer_ms - other.transfer_ms,
        )

    def __add__(self, other: "DiskStats") -> "DiskStats":
        return DiskStats(
            self.requests + other.requests,
            self.seeks + other.seeks,
            self.rotations + other.rotations,
            self.pages_transferred + other.pages_transferred,
            self.seek_ms + other.seek_ms,
            self.latency_ms + other.latency_ms,
            self.transfer_ms + other.transfer_ms,
        )

    def copy(self) -> "DiskStats":
        return DiskStats(
            self.requests,
            self.seeks,
            self.rotations,
            self.pages_transferred,
            self.seek_ms,
            self.latency_ms,
            self.transfer_ms,
        )


@dataclass(slots=True)
class VectoredCost:
    """Parallel cost of a batch of page requests over one or more disks.

    ``response_ms`` assumes the devices worked concurrently (max over
    devices), ``total_ms`` is the device time they consumed together
    (sum).  On a single disk the two coincide.  The composite stores
    (:mod:`repro.pagestore`) produce the multi-disk instances; it
    lives here so the single-disk :class:`DiskModel` can speak the same
    measurement surface without a circular import.
    """

    response_ms: float
    total_ms: float
    per_disk_ms: list[float] = field(default_factory=list)

    @property
    def parallelism(self) -> float:
        """Achieved parallel speed-up: total work / response time."""
        if self.response_ms <= 0:
            return 1.0
        return self.total_ms / self.response_ms


@contextmanager
def measure_costs(store) -> Iterator[VectoredCost]:
    """Measure a batch of requests against any store exposing the
    ``snapshot()`` / ``cost_since()`` surface; the yielded
    :class:`VectoredCost` is filled in when the block exits.  Shared
    implementation behind ``DiskModel.measure`` and
    ``CompositePageStore.measure``."""
    before = store.snapshot()
    cost = VectoredCost(response_ms=0.0, total_ms=0.0)
    try:
        yield cost
    finally:
        done = store.cost_since(before)
        cost.response_ms = done.response_ms
        cost.total_ms = done.total_ms
        cost.per_disk_ms = done.per_disk_ms


class DiskModel:
    """Prices read/write requests and tracks the simulated head position.

    Parameters
    ----------
    params:
        The disk constants; defaults to the paper's 9 / 6 / 1 ms disk.

    Every priced request goes to the active tracer
    (:mod:`repro.obs.trace`), if one is installed, and adds the disk's
    place among its store tree's ``disks`` to :attr:`touched`.
    """

    __slots__ = ("params", "_stats", "_head", "touched", "_index", "_owner")

    def __init__(self, params: DiskParameters | None = None):
        self.params = params or DiskParameters()
        self._stats = DiskStats()
        self._head: int | None = None
        #: Indices into the store tree's ``disks`` of the devices priced
        #: since the reader last cleared it.  The root of the tree owns
        #: the set (:meth:`watch`); the overlap scheduler reads it so it
        #: differences only the devices a request moved.
        self.touched: set[int] = set()
        self._index = 0
        self._owner = None  # the store whose ``touched`` this reports into

    def watch(self, owner, index: int) -> None:
        """Report this disk's pricing into ``owner.touched`` as
        ``index`` (called by each composite store that lists it in its
        ``disks``).  A disk reports to one store tree: a store built over
        the store it reports to (one of its ``children``, which claimed
        the disk when it was built) takes it over, and any other store is
        refused — the first one's ``touched`` would stay empty, and an
        overlap scheduler over it would time no device."""
        if self._owner is not None and self._owner not in owner.children:
            raise ConfigurationError(
                f"this disk already reports to a {type(self._owner).__name__}; "
                "two stores cannot share a disk"
            )
        self._owner, self.touched, self._index = owner, owner.touched, index

    # ------------------------------------------------------------------
    # pricing
    # ------------------------------------------------------------------
    def read(self, start: int, npages: int = 1, continuation: bool = False) -> float:
        """Price a read request of ``npages`` consecutive pages; returns
        the cost of this request in milliseconds."""
        return self.price_runs(((start, npages),), continuation, "read")

    def read_runs(
        self, runs: Sequence[tuple[int, int]], continuation: bool = False
    ) -> float:
        """Price one vectored batch of ``(start, npages)`` read runs
        (the buffer pool's coalescing scheduler): the head positions
        once — the first run is priced with the caller's
        ``continuation`` flag, follow-up runs as continuations."""
        return self.price_runs(runs, continuation, "read")

    def price_runs(
        self,
        runs: Sequence[tuple[int, int]],
        continuation: bool = False,
        kind: str = "read",
    ) -> float:
        """Price an ordered batch of ``(start, npages)`` runs — every
        request this disk prices lands here.  The first run carries the
        caller's ``continuation`` flag, follow-up runs are continuations
        (one head positioning per batch), and a run starting where the
        head stands (the previous run's end) costs pure transfer;
        returns the batch's cost in milliseconds."""
        p, stats, tracer = self.params, self._stats, _obs.ACTIVE
        total = 0.0
        for start, npages in runs:
            if npages <= 0:
                raise DiskError(f"cannot transfer {npages} pages")
            if start < 0:
                raise DiskError(f"negative page number {start}")
            if start == self._head:  # strictly sequential
                cost = p.sequential_ms(npages)
                stats.transfer_ms += npages * p.transfer_ms
            elif continuation:
                cost = p.continuation_ms(npages)
                stats.rotations += 1
                stats.latency_ms += p.latency_ms
                stats.transfer_ms += npages * p.transfer_ms
            else:
                cost = p.random_access_ms(npages)
                stats.seeks += 1
                stats.rotations += 1
                stats.seek_ms += p.seek_ms
                stats.latency_ms += p.latency_ms
                stats.transfer_ms += npages * p.transfer_ms
            stats.requests += 1
            stats.pages_transferred += npages
            self._head = start + npages
            self.touched.add(self._index)
            if tracer is not None:
                tracer.device(self, kind, start, npages, cost)
            total += cost
            continuation = True
        return total

    def write(self, start: int, npages: int = 1, continuation: bool = False) -> float:
        """Price a write request (same cost model as reads)."""
        return self.price_runs(((start, npages),), continuation, "write")

    def write_runs(
        self, runs: Sequence[tuple[int, int]], continuation: bool = False
    ) -> float:
        """Price one vectored batch of ``(start, npages)`` write runs —
        the write mirror of :meth:`read_runs`: the head positions once,
        the first run carries the caller's ``continuation`` flag,
        follow-up runs are continuations."""
        return self.price_runs(runs, continuation, "write")

    def charge(self, seeks: int = 0, rotations: int = 0, pages: int = 0) -> float:
        """Account an *analytic* cost (used for theoretical optima such
        as Figure 16's lower bound) without moving the head."""
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
            self.touched.add(self._index)
        cost = seeks * p.seek_ms + rotations * p.latency_ms + pages * p.transfer_ms
        if cost and _obs.ACTIVE is not None:
            _obs.ACTIVE.device(self, "charge", -1, pages, cost)
        return cost

    def read_extent(self, extent: Extent, continuation: bool = False) -> float:
        """Read a whole extent with one request."""
        return self.read(extent.start, extent.npages, continuation)

    def write_extent(self, extent: Extent, continuation: bool = False) -> float:
        """Write a whole extent with one request."""
        return self.write(extent.start, extent.npages, continuation)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def stats(self) -> DiskStats:
        """A snapshot copy of the accumulated statistics."""
        return self._stats.copy()

    def snapshot(self) -> DiskStats:
        """Statistics marker for :meth:`cost_since` (the single-disk
        face of the :class:`~repro.pagestore.store.PageStore`
        measurement surface)."""
        return self.stats()

    def stats_since(self, snapshot: DiskStats) -> DiskStats:
        """Statistics delta since ``snapshot``."""
        return self._stats - snapshot

    def advance(
        self, snapshot: DiskStats, disks: Iterable[int]
    ) -> tuple[DiskStats, DiskStats]:
        """:meth:`stats_since` ``snapshot`` and the marker moved to now
        (the single-disk face of
        :meth:`~repro.pagestore.store.CompositePageStore.advance`)."""
        if not disks:
            return DiskStats(), snapshot
        now = self.stats()
        return now - snapshot, now

    def cost_since(self, snapshot: DiskStats) -> VectoredCost:
        """Cost of everything priced since ``snapshot``; on one disk
        response time and device time coincide."""
        delta = (self._stats - snapshot).total_ms
        return VectoredCost(
            response_ms=delta, total_ms=delta, per_disk_ms=[delta]
        )

    def measure(self):
        """Context manager measuring a batch of requests::

            with disk.measure() as cost:
                ...issue requests...
            print(cost.total_ms)
        """
        return measure_costs(self)

    @property
    def total_ms(self) -> float:
        stats = self._stats  # DiskStats.total_ms, without a second call
        return stats.seek_ms + stats.latency_ms + stats.transfer_ms

    def invalidate_head(self) -> None:
        """Forget the head position (e.g. after activity by other
        processes); the next request is priced as a fresh request."""
        self._head = None

    def close(self) -> None:
        """Nothing to release: the device is simulated."""

    # ------------------------------------------------------------------
    # the leaf of the store tree (see repro.pagestore.store)
    # ------------------------------------------------------------------
    @property
    def disks(self) -> tuple["DiskModel"]:
        """The physical devices under this store: the disk itself."""
        return (self,)

    def device_labels(self) -> list[str]:
        """The label of the one device of a single-disk store."""
        return ["0"]

    def place_extent(self, extent: Extent, center=None, disk: int | None = None) -> None:
        """A single disk has no placement decision to take."""

    def forget_extent(self, extent: Extent) -> None:
        """A single disk keeps no placement to forget."""
