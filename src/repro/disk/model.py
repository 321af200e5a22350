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
from typing import Iterator, Sequence

import numpy as np

from repro.disk.extent import Extent
from repro.disk.params import DiskParameters
from repro.errors import DiskError
from repro.obs import trace as _obs

__all__ = ["DiskModel", "DiskStats", "VectoredCost", "measure_costs"]

#: Below this many runs the vectorized batch pricer falls back to the
#: scalar per-request loop — numpy's fixed per-call overhead only pays
#: off once a batch amortises it.
BATCH_MIN_RUNS = 8


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

    def __sub__(self, other: "DiskStats") -> "DiskStats":
        return DiskStats(
            requests=self.requests - other.requests,
            seeks=self.seeks - other.seeks,
            rotations=self.rotations - other.rotations,
            pages_transferred=self.pages_transferred - other.pages_transferred,
            seek_ms=self.seek_ms - other.seek_ms,
            latency_ms=self.latency_ms - other.latency_ms,
            transfer_ms=self.transfer_ms - other.transfer_ms,
        )

    def __add__(self, other: "DiskStats") -> "DiskStats":
        return DiskStats(
            requests=self.requests + other.requests,
            seeks=self.seeks + other.seeks,
            rotations=self.rotations + other.rotations,
            pages_transferred=self.pages_transferred + other.pages_transferred,
            seek_ms=self.seek_ms + other.seek_ms,
            latency_ms=self.latency_ms + other.latency_ms,
            transfer_ms=self.transfer_ms + other.transfer_ms,
        )

    def copy(self) -> "DiskStats":
        return DiskStats(
            requests=self.requests,
            seeks=self.seeks,
            rotations=self.rotations,
            pages_transferred=self.pages_transferred,
            seek_ms=self.seek_ms,
            latency_ms=self.latency_ms,
            transfer_ms=self.transfer_ms,
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
    (:mod:`repro.obs.trace`), if one is installed.
    """

    __slots__ = ("params", "_stats", "_head")

    def __init__(self, params: DiskParameters | None = None):
        self.params = params or DiskParameters()
        self._stats = DiskStats()
        self._head: int | None = None

    # ------------------------------------------------------------------
    # pricing
    # ------------------------------------------------------------------
    def _transfer(self, start: int, npages: int, continuation: bool, kind: str) -> float:
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
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.device(self, kind, start, npages, cost)
        return cost

    def read(self, start: int, npages: int = 1, continuation: bool = False) -> float:
        """Price a read request of ``npages`` consecutive pages; returns
        the cost of this request in milliseconds."""
        return self._transfer(start, npages, continuation, "read")

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
        """Price an ordered batch of ``(start, npages)`` runs in one
        call: the first run carries the caller's ``continuation`` flag,
        follow-up runs are continuations (one head positioning per
        batch), and strictly sequential follow-ups — a run starting at
        the previous run's end — cost pure transfer, exactly as if the
        runs were priced one :meth:`read`/:meth:`write` at a time.

        Large batches are priced with numpy (sequential-run detection
        and the seek/rotate/transfer arithmetic as array operations);
        statistics are still accumulated with the scalar path's
        left-to-right float additions, so costs, stats, and the head
        position are bit-identical to the per-request loop.  Small
        batches and batches priced under an active tracer take the
        per-request loop itself (the tracer sees every request, in
        order).
        """
        if not isinstance(runs, (list, tuple)):
            runs = list(runs)
        if len(runs) < BATCH_MIN_RUNS or _obs.ACTIVE is not None:
            return self._price_runs_scalar(runs, continuation, kind)
        arr = np.asarray(runs, dtype=np.int64)
        starts = arr[:, 0]
        npages = arr[:, 1]
        if npages.min() <= 0 or starts.min() < 0:
            # Re-run scalar so the DiskError surfaces at the exact
            # offending run with partial stats, as the loop would.
            return self._price_runs_scalar(runs, continuation, kind)
        p = self.params
        n = len(arr)
        prev_end = np.empty(n, dtype=np.int64)
        prev_end[0] = self._head if self._head is not None else -1
        np.add(starts[:-1], npages[:-1], out=prev_end[1:])
        sequential = starts == prev_end
        tt = npages * p.transfer_ms
        costs = np.where(sequential, tt, p.latency_ms + tt)
        seq_list = sequential.tolist()
        tt_list = tt.tolist()
        cost_list = costs.tolist()
        st = self._stats
        if not seq_list[0] and not continuation:
            # Only the batch head can be a fresh request.
            cost_list[0] = p.random_access_ms(int(npages[0]))
            st.seeks += 1
            st.seek_ms += p.seek_ms
        # Left-fold accumulation mirrors the scalar loop's addition
        # order (numpy reductions use pairwise summation, which is not
        # bit-identical for arbitrary float parameters).
        total = 0.0
        transfer_ms = st.transfer_ms
        latency_ms = st.latency_ms
        rotations = st.rotations
        for is_seq, t, c in zip(seq_list, tt_list, cost_list):
            total += c
            transfer_ms += t
            if not is_seq:
                rotations += 1
                latency_ms += p.latency_ms
        st.transfer_ms = transfer_ms
        st.latency_ms = latency_ms
        st.rotations = rotations
        st.requests += n
        st.pages_transferred += int(npages.sum())
        self._head = int(starts[-1]) + int(npages[-1])
        return total

    def _price_runs_scalar(
        self, runs: Sequence[tuple[int, int]], continuation: bool, kind: str
    ) -> float:
        cost = 0.0
        first = True
        for start, npages in runs:
            cost += self._transfer(
                start, npages, continuation if first else True, kind
            )
            first = False
        return cost

    def write(self, start: int, npages: int = 1, continuation: bool = False) -> float:
        """Price a write request (same cost model as reads)."""
        return self._transfer(start, npages, continuation, "write")

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
        return self._stats.total_ms

    @property
    def head(self) -> int | None:
        """Page number the head sits *after* (next sequential page),
        or ``None`` before the first request."""
        return self._head

    def invalidate_head(self) -> None:
        """Forget the head position (e.g. after activity by other
        processes); the next request is priced as a fresh request."""
        self._head = None

    def reset(self) -> None:
        """Zero all statistics and forget the head position."""
        self._stats = DiskStats()
        self._head = None

    def reset_stats(self) -> None:
        """Zero statistics only — the unified mid-run reset convention.

        Unlike :meth:`reset`, the head position is preserved so pricing
        of subsequent requests is unaffected by the reset."""
        self._stats = DiskStats()

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
