"""The shared buffer pool: residency, write-back and I/O pricing.

Historically every layer of the reproduction priced I/O on its own —
the R*-tree pager kept a private LRU buffer, the spatial join carried
its own buffer wiring, and each organization talked to the
:class:`~repro.disk.model.DiskModel` directly.  :class:`BufferPool`
unifies those paths: it owns page residency (behind a pluggable
:class:`~repro.buffer.policy.ReplacementPolicy`), defers dirty-page
write-back, coalesces adjacent page requests into single vectored
transfers, and prices everything against one disk model.

Two operating modes matter:

* **pass-through** (``capacity=0``, the measurement-mode default of the
  organizations): no frames are kept, every request is priced exactly
  as a direct disk request — the pool is a pure accounting funnel, so
  the paper's cold-query figures are unchanged;
* **caching** (``capacity > 0``): frames absorb repeated reads, writes
  become write-back, and the read scheduler transfers only the missing
  runs of a request.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterable, Sequence

import numpy as np

from repro.buffer.policy import ReplacementPolicy, hit_ratio, make_buffer
from repro.disk.extent import Extent
from repro.disk.model import DiskModel
from repro.errors import ConfigurationError
from repro.iosched.prefetch import Prefetcher, make_prefetcher
from repro.iosched.request import AccessPlan
from repro.iosched.scheduler import IOScheduler, device_times, make_scheduler
from repro.obs import trace as _obs
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import would be circular at runtime
    from repro.pagestore.store import PageStore

__all__ = ["BufferPool", "coalesce_pages", "sequential_runs"]


#: Below this many pages :func:`coalesce_pages` uses the plain Python
#: loop; larger batches switch to the vectorized break-point scan.
_COALESCE_MIN_PAGES = 64


def coalesce_pages(pages: Sequence[int]) -> list[tuple[int, int]]:
    """Merge sorted distinct page numbers into ``(start, npages)`` runs
    of physically consecutive pages — the vectored-transfer schedule of
    the read/write coalescing scheduler."""
    if len(pages) >= _COALESCE_MIN_PAGES:
        arr = np.asarray(pages, dtype=np.int64)
        diffs = arr[1:] - arr[:-1]
        if diffs.size and int(diffs.min()) <= 0:
            raise ConfigurationError("pages must be sorted and distinct")
        breaks = np.flatnonzero(diffs > 1)
        first = np.concatenate(([0], breaks + 1))
        last = np.concatenate((breaks, [len(arr) - 1]))
        starts = arr[first].tolist()
        counts = (arr[last] - arr[first] + 1).tolist()
        return list(zip(starts, counts))
    runs: list[tuple[int, int]] = []
    for page in pages:
        if runs and page == runs[-1][0] + runs[-1][1]:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            if runs and page < runs[-1][0] + runs[-1][1]:
                raise ConfigurationError("pages must be sorted and distinct")
            runs.append((page, 1))
    return runs


def sequential_runs(pages: Sequence[int]) -> list[tuple[int, int]]:
    """Merge a page *sequence* into maximal ascending-adjacent
    ``(start, npages)`` runs, preserving the caller's order — the
    write-back schedule of an eviction stream.  Unlike
    :func:`coalesce_pages` the input need not be sorted: only streaks
    that are already physically sequential in issue order coalesce, so
    the head movement (and therefore the priced milliseconds) of the
    original page-at-a-time stream is reproduced exactly.  For sorted
    distinct pages the two helpers produce identical runs."""
    runs: list[tuple[int, int]] = []
    for page in pages:
        if runs and page == runs[-1][0] + runs[-1][1]:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((page, 1))
    return runs


class BufferPool:
    """A buffer pool over one :class:`~repro.disk.model.DiskModel`.

    Parameters
    ----------
    disk:
        The backing store every transfer is priced against: any
        :class:`~repro.pagestore.store.PageStore` — a single
        :class:`~repro.disk.model.DiskModel` or a tree of stores over
        several disks (sharded, tiered, file-backed).
    capacity:
        Number of page frames.  ``0`` (default) selects pass-through
        mode: no residency, every request priced directly.
    policy:
        Replacement policy name (``lru`` / ``fifo`` / ``clock`` /
        ``lru-k``) used to build the frame table when ``capacity > 0``.
    scheduler:
        The :class:`~repro.iosched.scheduler.IOScheduler` executing
        submitted access plans (name or instance).  ``None`` selects the
        shared ``sync`` scheduler — bit-identical immediate pricing.
    prefetcher:
        Optional :class:`~repro.iosched.prefetch.Prefetcher` (name or
        instance) consulted after every submitted plan.  ``None`` /
        ``"none"`` disables read-ahead; pass-through pools never
        prefetch (there are no frames to keep pages in).
    allocator:
        Optional :class:`~repro.disk.allocator.PageAllocator` that owns
        the page address space.  When given, prefetch suggestions are
        clamped to the allocator's high-water marks: pages never handed
        out are not read ahead (a speculative transfer of unallocated
        storage would inflate device time with phantom pages).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` the pool
        publishes into; ``None`` creates a private registry.  The hot
        counters (``hits``/``misses``) stay plain int attributes — the
        registry carries gauge *views* over them plus the prefetch
        accuracy counters (``prefetch.issued/pages/useful/wasted``).
    metrics_label:
        Value of the ``{pool=...}`` label distinguishing this pool's
        metrics inside a shared registry.
    """

    __slots__ = (
        "disk",
        "frames",
        "hits",
        "misses",
        "scheduler",
        "prefetcher",
        "allocator",
        "metrics",
        "_prefetched",
        "_pf_issued",
        "_pf_pages",
        "_pf_useful",
        "_pf_wasted",
        "_labels",
        "_w_pages",
        "_w_ms",
        "_flush_sink",
    )

    def __init__(
        self,
        disk: "DiskModel | PageStore",
        capacity: int = 0,
        policy: str = "lru",
        scheduler: "IOScheduler | str | None" = None,
        prefetcher: "Prefetcher | str | None" = None,
        allocator=None,
        metrics: MetricsRegistry | None = None,
        metrics_label: str | None = None,
    ):
        if capacity < 0:
            raise ConfigurationError(f"pool capacity must be >= 0, got {capacity}")
        self.disk = disk
        self.scheduler = make_scheduler(scheduler)
        self.prefetcher = make_prefetcher(prefetcher)
        self.allocator = allocator
        # Pages currently resident because of a speculative read-ahead:
        # a later demand hit proves the prefetch useful, an eviction
        # before any demand access proves it wasted.
        self._prefetched: set[int] = set()
        self.frames: ReplacementPolicy | None = None
        if capacity > 0:
            self.frames = make_buffer(
                policy, capacity, on_evict=self._write_back_victim
            )
            # A clean victim needs the hook only if it was read ahead.
            self.frames.watched = self._prefetched
        self.hits = 0
        self.misses = 0
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        labels = {"pool": metrics_label} if metrics_label else {}
        self.metrics.gauge("pool.hits", lambda: self.hits, **labels)
        self.metrics.gauge("pool.misses", lambda: self.misses, **labels)
        self.metrics.gauge("pool.evictions", lambda: self.evictions, **labels)
        self.metrics.gauge("pool.hit_rate", lambda: self.hit_rate, **labels)
        self._pf_issued = self.metrics.counter("prefetch.issued", **labels)
        self._pf_pages = self.metrics.counter("prefetch.pages", **labels)
        self._pf_useful = self.metrics.counter("prefetch.useful", **labels)
        self._pf_wasted = self.metrics.counter("prefetch.wasted", **labels)
        self._labels = labels
        self._w_pages = self.metrics.counter("write.pages", **labels)
        # Per backing-device write milliseconds, created lazily per
        # index into the store's ``disks`` (``write.device_ms{disk=}``,
        # labelled by the store's ``device_labels()``).
        self._w_ms: dict[int, object] = {}
        # While a flush is draining the frame table, evicted dirty
        # victims collect here (in eviction order) instead of each
        # emitting its own single-page plan — the flush then writes the
        # whole stream back as one plan of streak-coalesced runs.
        self._flush_sink: list[int] | None = None

    def sibling(
        self, capacity: int, policy: str = "lru", label: str | None = None
    ) -> "BufferPool":
        """Another pool over this pool's store, scheduler, prefetcher
        and allocator — how every caching pool beside an organization's
        query pool is made (the workload engine's shared pool, the
        join's own).  With a ``label`` the sibling publishes into this
        pool's registry under it; without, into a private one (an
        unlabelled pool per join would re-register ``pool.hits``)."""
        return BufferPool(
            self.disk,
            capacity=capacity,
            policy=policy,
            scheduler=self.scheduler,
            prefetcher=self.prefetcher,
            allocator=self.allocator,
            metrics=self.metrics if label else None,
            metrics_label=label,
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __contains__(self, page: Hashable) -> bool:
        return self.frames is not None and page in self.frames

    def __len__(self) -> int:
        return len(self.frames) if self.frames is not None else 0

    @property
    def capacity(self) -> int:
        return self.frames.capacity if self.frames is not None else 0

    @property
    def params(self):
        """The underlying disk's timing constants (the query techniques
        read ``params.slm_gap_pages`` through the pool)."""
        return self.disk.params

    @property
    def policy(self) -> str:
        """Replacement policy name ('none' in pass-through mode)."""
        return self.frames.policy if self.frames is not None else "none"

    @property
    def evictions(self) -> int:
        return self.frames.evictions if self.frames is not None else 0

    @property
    def hit_rate(self) -> float:
        return hit_ratio(self.hits, self.misses)

    def prefetch_stats(self) -> dict[str, int]:
        """Prefetch accuracy counters: plans issued, pages read ahead,
        pages later demand-hit (useful) vs evicted unused (wasted)."""
        return {
            "issued": int(self._pf_issued.value),
            "pages": int(self._pf_pages.value),
            "useful": int(self._pf_useful.value),
            "wasted": int(self._pf_wasted.value),
        }

    # ------------------------------------------------------------------
    # residency primitives
    # ------------------------------------------------------------------
    def _write_back_victim(self, page: Hashable, dirty: bool) -> None:
        if self._prefetched and page in self._prefetched:
            # Evicted without ever serving a demand access.
            self._prefetched.discard(page)
            self._pf_wasted.inc()
        if dirty:
            assert isinstance(page, int)
            if self._flush_sink is not None:
                # A flush is draining the frames: batch the victims
                # into one streak-coalesced write-back plan instead of
                # pricing each page as its own request.
                self._flush_sink.append(page)
                return
            plan = AccessPlan("pool.evict")
            plan.flush_pages((page,))
            self.submit(plan)

    def access(self, page: int) -> bool:
        """Touch a page; returns True on a hit.  Counts hit/miss, never
        admits and never prices."""
        return not self.access_all((page,))

    def access_all(self, pages: Sequence[int]) -> list[int]:
        """Touch a run of pages, counting hits and misses; returns the
        missing ones.  A hit on a read-ahead page proves it useful."""
        if self.frames is None:
            self.misses += len(pages)
            return list(pages)
        missing = self.frames.access_all(pages)
        self.hits += len(pages) - len(missing)
        self.misses += len(missing)
        if self._prefetched:
            useful = self._prefetched.intersection(pages).difference(missing)
            self._prefetched -= useful
            self._pf_useful.inc(len(useful))
        return missing

    def admit(self, page: int, dirty: bool = False) -> None:
        """:meth:`admit_all` for one page."""
        self.admit_all((page,), dirty)

    def admit_all(self, pages: Iterable[int], dirty: bool = False) -> None:
        """Make a run of pages resident without pricing a transfer (the
        caller already accounted it).  In pass-through mode a dirty
        admit is an immediate write (there is nowhere to hold a page)."""
        if self.frames is not None:
            self.frames.admit_all(pages, dirty)
        elif dirty:
            for page in pages:
                self.write_back_pages((page,))

    def discard(self, page: int) -> None:
        """Drop a page without write-back (e.g. its extent was freed)."""
        if self._prefetched and page in self._prefetched:
            self._prefetched.discard(page)
            self._pf_wasted.inc()
        if self.frames is not None:
            self.frames.discard(page)

    # ------------------------------------------------------------------
    # access plans
    # ------------------------------------------------------------------
    def submit(self, plan: AccessPlan) -> float:
        """Execute a declarative :class:`~repro.iosched.request.AccessPlan`
        through this pool's I/O scheduler.

        Under the default ``sync`` scheduler the returned cost is the
        priced sum of the plan's requests — exactly what the equivalent
        imperative call chain would have returned; under ``overlap`` it
        is the client-observed response time on the virtual clock.
        After a plan that transferred anything (an executed span with
        cost > 0 — a plan fully absorbed by resident frames read
        nothing and triggers no read-ahead), the pool's prefetcher
        (if any) may read ahead with a non-blocking follow-up plan.
        """
        cost = self.scheduler.execute(plan, self)
        if (
            self.prefetcher is not None
            and self.frames is not None
            and not plan.prefetch
            and not plan.writes
            and plan.transferred
        ):
            self._prefetch_after(plan)
        return cost

    def _prefetch_after(self, plan: AccessPlan) -> None:
        """Load the prefetcher's suggested runs (missing pages only)
        with a non-blocking plan: no hit/miss accounting, no client
        wait under the overlap scheduler.  Suggestions are clamped to
        the allocator's high-water marks when the pool knows its
        allocator — read-ahead must never transfer pages that were
        never allocated."""
        assert self.prefetcher is not None and self.frames is not None
        suggestions = self.prefetcher.suggest(plan)
        if not suggestions:
            return
        missing = sorted(
            {
                page
                for start, npages in suggestions
                for page in range(start, start + npages)
                if page >= 0
                and page not in self.frames
                and (
                    self.allocator is None
                    or self.allocator.in_allocated_space(page)
                )
            }
        )
        if not missing:
            return
        ahead = AccessPlan("prefetch", blocking=False, prefetch=True)
        ahead.load_pages(missing)
        self._pf_issued.inc()
        self._pf_pages.inc(len(missing))
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.instant(
                "prefetch.dispatch",
                cat="prefetch",
                args={"pages": len(missing), "trigger": plan.label},
            )
        # Mark before executing: a batch bigger than the remaining
        # capacity may evict its own head during admission, and the
        # eviction hook must see those pages as prefetched (wasted).
        self._prefetched.update(missing)
        self.scheduler.execute(ahead, self)

    def load_pages(self, pages: Sequence[int]) -> float:
        """Make a sorted set of pages resident through the coalescing
        scheduler *without* touching the hit/miss statistics — the
        transfer primitive behind prefetching (a speculative read is
        not a demand miss)."""
        missing = [p for p in pages if not (self.frames is not None and p in self.frames)]
        return self._read_missing(missing, coalesce_pages(missing), continuation=False)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _read_missing(
        self,
        missing: Sequence[int],
        runs: Sequence[tuple[int, int]],
        continuation: bool,
    ) -> float:
        """Transfer a sorted set of missing pages, coalesced into
        ``runs``, as one vectored batch, then admit them (evicting in
        order).  The backing store prices the positioning: on a single
        disk the first run is priced with the caller's ``continuation``
        flag (it pays the positioning seek unless the caller is already
        inside a cluster unit) and follow-up runs as continuations; a
        sharded store applies that rule per device arm."""
        if not missing:
            return 0.0
        cost = self.disk.read_runs(runs, continuation)
        if self.frames is not None:
            self.frames.admit_all(missing)
        return cost

    def read(self, start: int, npages: int = 1, continuation: bool = False) -> float:
        """Vectored read of ``npages`` consecutive pages with
        coalescing: resident pages are hits, the missing pages are
        merged into runs of adjacent pages, each transferred with one
        request (follow-up runs are priced as continuations), and
        admitted.  Every ``read`` and ``get`` request of a plan lands
        here.  Returns the priced cost in milliseconds."""
        if self.frames is None:
            self.misses += npages
            return self.disk.read(start, npages, continuation)
        missing = self.access_all(range(start, start + npages))
        if not missing:
            return 0.0
        if missing[-1] - missing[0] == len(missing) - 1:
            # Part of a range, so sorted and distinct: with its ends
            # len - 1 apart it is one run (a node's page, or a unit
            # read that missed whole).
            runs = [(missing[0], len(missing))]
        else:
            runs = coalesce_pages(missing)
        return self._read_missing(missing, runs, continuation)

    def fetch(
        self,
        start: int,
        npages: int = 1,
        continuation: bool = False,
        admit: bool = True,
    ) -> float:
        """Unconditional single-request transfer of a whole run (a
        vectored read that ignores residency — e.g. an object extent
        fetched in one request even when parts are buffered).  Admits
        all transferred pages unless ``admit=False``."""
        cost = self.disk.read(start, npages, continuation)
        if admit:
            self.admit_all(range(start, start + npages))
        return cost

    def read_pages(self, pages: Sequence[int], continuation: bool = False) -> float:
        """Read a sorted set of (not necessarily adjacent) pages through
        the coalescing scheduler: missing pages are merged into adjacent
        runs; the first run is priced with the caller's ``continuation``
        flag, follow-ups as continuations.  The run pricing is shared
        with :meth:`read`; in pass-through mode every page misses and
        the first run pays exactly one fresh request (``ts + tl``)
        unless the caller is already positioned."""
        missing = self.access_all(pages)
        return self._read_missing(missing, coalesce_pages(missing), continuation)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def write(self, start: int, npages: int = 1, continuation: bool = False) -> float:
        """Write ``npages`` consecutive pages.  With frames the pages
        are admitted dirty (write-back: priced on eviction or flush);
        in pass-through mode the request is priced immediately."""
        if self.frames is None:
            before = device_times(self.disk)
            cost = self.disk.write(start, npages, continuation)
            self._account_writes(npages, before)
            return cost
        self.frames.admit_all(range(start, start + npages), dirty=True)
        return 0.0

    def write_pages(self, pages: Sequence[int], continuation: bool = False) -> float:
        """Write a sorted set of (not necessarily adjacent) pages.
        With frames the pages are admitted dirty (write-back); in
        pass-through mode the pages are merged into adjacent runs and
        priced as one vectored batch — the first run with the caller's
        ``continuation`` flag, follow-ups as continuations (the write
        mirror of :meth:`read_pages`)."""
        if self.frames is None:
            batch = pages if isinstance(pages, list) else list(pages)
            runs = coalesce_pages(batch)
            if not runs:
                return 0.0
            before = device_times(self.disk)
            cost = self.disk.write_runs(runs, continuation)
            self._account_writes(len(batch), before)
            return cost
        self.frames.admit_all(pages, dirty=True)
        return 0.0

    # ------------------------------------------------------------------
    # write-back / lifecycle
    # ------------------------------------------------------------------
    def _account_writes(self, npages: int, before: Sequence[float]) -> None:
        """Fold a priced store write into the write metrics: the page
        count onto ``write.pages`` and the device-time delta onto the
        per-disk ``write.device_ms{disk=}`` counters."""
        self._w_pages.inc(npages)
        after = device_times(self.disk)
        for index, then in enumerate(before):
            now = after[index]
            if now > then:
                counter = self._w_ms.get(index)
                if counter is None:
                    counter = self.metrics.counter(
                        "write.device_ms",
                        disk=self.disk.device_labels()[index],
                        **self._labels,
                    )
                    self._w_ms[index] = counter
                counter.inc(now - then)

    def write_back_pages(self, pages: Sequence[int]) -> float:
        """Write an already-buffered page sequence back to the store,
        bypassing the frames — the priced primitive behind
        ``flush_pages`` plan requests.  The sequence keeps the caller's
        order (an eviction stream): maximal ascending-adjacent streaks
        become single vectored requests, each priced fresh.  Because a
        page-at-a-time stream over an ascending streak pays the
        positioning once and then transfers sequentially, the batched
        run's milliseconds are identical — only the request count
        drops.  Sorted input (``write_back``) therefore prices exactly
        like the historical per-run ``disk.write`` loop."""
        if not pages:
            return 0.0
        before = device_times(self.disk)
        cost = 0.0
        for run_start, run_pages in sequential_runs(pages):
            cost += self.disk.write(run_start, run_pages)
        self._account_writes(len(pages), before)
        return cost

    def write_back(self) -> float:
        """Write all dirty frames back, coalescing adjacent dirty pages
        into single vectored transfers; frames stay resident (marked
        clean).  Returns the priced cost."""
        if self.frames is None:
            return 0.0
        dirty = sorted(self.frames.dirty_keys())
        if not dirty:
            return 0.0
        plan = AccessPlan("pool.write_back")
        plan.flush_pages(dirty)
        cost = self.submit(plan)
        for page in dirty:
            self.frames.mark_clean(page)
        return cost

    def flush(self, coalesce: bool = False) -> float:
        """Write back every dirty frame and drop all residency.

        ``coalesce=False`` (default) replays the historical
        page-at-a-time eviction stream in recency order — the pricing
        the construction figures were calibrated against (ascending
        adjacent streaks of the stream batch into vectored requests
        with identical milliseconds); ``coalesce=True`` uses the
        vectored write-back scheduler first.  Either way the dirty
        pages leave the pool as one declarative write plan.
        """
        if self.frames is None:
            return 0.0
        before = self.disk.total_ms
        if coalesce:
            self.write_back()
        sink: list[int] = []
        previous = self._flush_sink
        self._flush_sink = sink
        try:
            self.frames.flush()
        finally:
            self._flush_sink = previous
        if sink:
            plan = AccessPlan("pool.flush")
            plan.flush_pages(sink)
            self.submit(plan)
        return self.disk.total_ms - before

    # ------------------------------------------------------------------
    # delegation
    # ------------------------------------------------------------------
    def charge(self, seeks: int = 0, rotations: int = 0, pages: int = 0) -> float:
        """Account an analytic cost on the underlying disk."""
        return self.disk.charge(seeks=seeks, rotations=rotations, pages=pages)

    def place_extent(self, extent: Extent, center=None, disk: int | None = None) -> None:
        """Hint the backing store where an extent should live (a no-op
        on single-disk backends).  Storage managers call this when they
        create or relocate an extent whose spatial region they know, so
        a sharded store can decluster it."""
        self.disk.place_extent(extent, center=center, disk=disk)

    def forget_extent(self, extent: Extent) -> None:
        """Tell the backing store an extent was freed or relocated (a
        no-op on single-disk backends); its pages fall back to the
        store's default placement."""
        self.disk.forget_extent(extent)
