"""A two-tier page store: fast small tier over a capacity tier.

The classic disk-based access-cost trade-off: a small amount of fast
storage (lower seek/latency/transfer constants) in front of a large
slow medium.  :class:`TieredPageStore` implements the
:class:`~repro.pagestore.store.PageStore` protocol, so it slots in
behind the :class:`~repro.buffer.pool.BufferPool` without touching any
consumer — exactly like the sharded store, but trading *where a page
lives* instead of *which arm serves it*.  Wire it in with
``SpatialDatabase(tiering="promote-on-hit")``.

Two placement models, selected by the migration policy:

* ``static`` — an exclusive partition.  Every page is assigned a home
  tier on first touch (fast while the fast tier has room, capacity
  afterwards) and never moves; reads and writes are priced on the home
  tier.  This is the grid-file-style hard-wired placement: cheap and
  predictable, but blind to the workload.
* ``promote-on-hit`` / ``lru-demote`` — an inclusive cache.  The
  capacity tier is the home of every page; the fast tier holds copies
  of at most ``fast_pages`` pages.  Reads are priced on the fast tier
  when a copy exists, on the capacity tier otherwise; *promotion*
  copies a page into the fast tier — priced as a fast-tier write that
  is excluded from the demand read's *returned response* (it is device
  time; under the overlap scheduler the copy-in occupies the fast
  tier's service queue together with the triggering request, so later
  requests queue behind it and the triggering client waits for it only
  when the fast tier is that request's critical path); *demotion*
  drops the least-recently-used copy for free (the capacity home is
  still valid); a write prices on the capacity home and invalidates
  the fast copy (write-invalidate).  ``promote-on-hit``
  promotes a page on its ``promote_after``-th read (default: the second
  — one re-reference proves warmth), ``lru-demote`` promotes on every
  read (a plain LRU tier).

The cache policies support two write policies.  ``write-through``
(default, the historical behaviour) prices every write on the capacity
home and invalidates fast copies.  ``write-back`` prices writes of
fast-resident pages on the *fast* tier and marks them dirty; the
deferred capacity write is paid when the LRU budget demotes the page —
a *copy-back*, priced on the capacity tier and counted in
``tier.copybacks`` (demoting a clean page stays free: its home copy is
still valid).  This closes the long-flagged accounting gap where a
demotion silently dropped written data without ever pricing the
write-back.

Like the sharded store, the tiered store is a
:class:`~repro.pagestore.store.CompositePageStore`: its two children
are the tiers, independent devices, so a request spanning both is split
into per-tier fragments, its response time is the max over the tiers,
its device time the sum.  Each tier may itself be a composite store;
the :class:`~repro.iosched.scheduler.OverlapScheduler` sees every arm
underneath as its own service queue through the flattened ``disks``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

from repro.buffer.pool import coalesce_pages
from repro.disk.extent import Extent
from repro.disk.model import DiskModel
from repro.disk.params import DiskParameters
from repro.errors import ConfigurationError
from repro.obs import trace as _obs
from repro.obs.metrics import MetricsRegistry
from repro.pagestore.store import CompositePageStore, PageStore

__all__ = [
    "TieredPageStore",
    "MIGRATIONS",
    "WRITE_POLICIES",
    "FAST_TIER_PARAMS",
]

MIGRATIONS = ("static", "promote-on-hit", "lru-demote")
"""Valid migration-policy names for every ``tiering=`` knob."""

WRITE_POLICIES = ("write-through", "write-back")
"""Valid write-policy names for the cache migration policies."""

FAST_TIER_PARAMS = DiskParameters(seek_ms=2.0, latency_ms=1.0, transfer_ms=0.25)
"""Default fast-tier constants: a 2 / 1 / 0.25 ms device against the
paper's 9 / 6 / 1 ms capacity disk."""


class TieredPageStore(CompositePageStore):
    """One logical page space over a fast tier and a capacity tier.

    Parameters
    ----------
    fast_pages:
        Size of the fast tier in pages (its residency budget).
    migration:
        ``static`` / ``promote-on-hit`` / ``lru-demote`` (see the
        module docstring).
    fast_params:
        Timing constants of the fast tier (default
        :data:`FAST_TIER_PARAMS`).
    params:
        Timing constants of the capacity tier (default: the paper's
        disk).  Exposed as :attr:`params` — the constants consumers
        derive read schedules from, since the bulk of the data lives
        there.
    promote_after:
        ``promote-on-hit`` only: number of reads of a capacity page
        that triggers its promotion (>= 1).
    write_policy:
        ``write-through`` (default — capacity-home writes with
        write-invalidate, the historical pricing) or ``write-back``
        (fast-resident pages take writes on the fast tier and are
        copied back to the capacity tier when demoted).  Cache
        policies only.
    fast_store, capacity_store:
        Optional ready-made tier backends replacing the default
        single :class:`~repro.disk.model.DiskModel` per tier — e.g. a
        :class:`~repro.pagestore.store.ShardedPageStore` per tier, so
        each tier is itself declustered (tiering composed over
        sharding).  ``params``/``fast_params`` default to the injected
        stores' constants.
    """

    FAST, CAPACITY = 0, 1

    def __init__(
        self,
        fast_pages: int,
        migration: str = "static",
        fast_params: DiskParameters | None = None,
        params: DiskParameters | None = None,
        promote_after: int = 2,
        write_policy: str = "write-through",
        metrics: MetricsRegistry | None = None,
        fast_store: PageStore | None = None,
        capacity_store: PageStore | None = None,
    ):
        if fast_pages < 1:
            raise ConfigurationError(
                f"the fast tier needs at least one page, got {fast_pages}"
            )
        if migration not in MIGRATIONS:
            raise ConfigurationError(
                f"unknown migration policy '{migration}'; valid: {MIGRATIONS}"
            )
        if promote_after < 1:
            raise ConfigurationError(
                f"promote_after must be >= 1, got {promote_after}"
            )
        if write_policy not in WRITE_POLICIES:
            raise ConfigurationError(
                f"unknown write policy '{write_policy}'; "
                f"valid: {WRITE_POLICIES}"
            )
        if write_policy == "write-back" and migration == "static":
            raise ConfigurationError(
                "write-back needs a cache migration policy — static "
                "placement writes to a page's only home, there is "
                "nothing to copy back"
            )
        if fast_store is None:
            fast_store = DiskModel(fast_params or FAST_TIER_PARAMS)
        if capacity_store is None:
            capacity_store = DiskModel(params)
        #: The tier backends — the store's two children, fast first.
        self.fast, self.capacity = fast_store, capacity_store
        self.params = params or capacity_store.params
        self.fast_params = fast_params or fast_store.params
        super().__init__([fast_store, capacity_store])
        self.fast_pages = fast_pages
        self.migration = migration
        self.promote_after = promote_after
        self.write_policy = write_policy
        # Pages whose reads are served by the fast tier, in LRU order
        # (static: permanent homes; cache policies: current copies).
        self._resident: OrderedDict[int, None] = OrderedDict()
        self._counts: dict[int, int] = {}
        # write-back only: fast-resident pages whose latest content was
        # never written to the capacity home (a demotion must pay the
        # deferred capacity write).
        self._dirty: set[int] = set()
        # Migration counters live in the metrics registry
        # (``tier.promotions`` etc.); the promotions/demotions/
        # invalidations properties below are thin views over them.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._promotions = self.metrics.counter("tier.promotions")
        self._demotions = self.metrics.counter("tier.demotions")
        self._invalidations = self.metrics.counter("tier.invalidations")
        self._copybacks = self.metrics.counter("tier.copybacks")

    @property
    def promotions(self) -> int:
        """Pages copied into the fast tier so far."""
        return int(self._promotions.value)

    @property
    def demotions(self) -> int:
        """Fast-tier copies dropped by the LRU budget so far."""
        return int(self._demotions.value)

    @property
    def invalidations(self) -> int:
        """Fast-tier copies killed by write-invalidate so far."""
        return int(self._invalidations.value)

    @property
    def copybacks(self) -> int:
        """Dirty pages written back to the capacity tier at demotion
        (write-back policy only)."""
        return int(self._copybacks.value)

    @property
    def dirty_pages(self) -> int:
        """Fast-resident pages currently holding unwritten-back data."""
        return len(self._dirty)

    # ------------------------------------------------------------------
    # placement surface
    # ------------------------------------------------------------------
    def tier_of(self, page: int) -> int:
        """The tier currently serving reads of ``page``."""
        return self.FAST if page in self._resident else self.CAPACITY

    _owner = tier_of

    def _child_names(self) -> Sequence[str]:
        return ("fast", "capacity")

    @property
    def fast_resident(self) -> int:
        """Pages currently served by the fast tier."""
        return len(self._resident)

    @property
    def fast_share(self) -> float:
        """Occupied fraction of the fast tier's budget."""
        return len(self._resident) / self.fast_pages

    def forget_extent(self, extent: Extent) -> None:
        """Drop a freed or relocated extent's pages from the fast tier
        (free — the pages are dead, there is nothing to copy back, and
        any dirty marks die with them)."""
        for page in extent.pages():
            self._resident.pop(page, None)
            self._counts.pop(page, None)
            self._dirty.discard(page)
        super().forget_extent(extent)

    # ------------------------------------------------------------------
    # migration machinery
    # ------------------------------------------------------------------
    def _static_fill(self, pages: Sequence[int] | range) -> None:
        """First-touch home assignment of the ``static`` policy: new
        pages live in the fast tier while it has room."""
        for page in pages:
            if page in self._resident or page in self._counts:
                continue
            if len(self._resident) < self.fast_pages:
                self._resident[page] = None
            else:
                # Remember capacity homes so a later fast-tier vacancy
                # (impossible under static, but cheap to keep exact)
                # does not re-home an old page.
                self._counts[page] = 0

    def _promote(self, pages: list[int]) -> None:
        """Copy pages into the fast tier: priced as fast-tier writes
        that the returned response excludes (an overlap scheduler still
        times them on the fast tier's service queue, as part of the
        triggering request), evicting LRU copies for free when the
        budget is exceeded."""
        if not pages:
            return
        ordered = sorted(pages)
        for page in ordered:
            self._counts.pop(page, None)
            self._resident[page] = None
        # One vectored batch through the shared run coalescer: the
        # first run pays the positioning, follow-ups are continuations
        # — exactly the historical per-run loop's flags.
        self.fast.write_runs(coalesce_pages(ordered))
        self._promotions.inc(len(pages))
        demoted = 0
        dirty_evicted: list[int] = []
        while len(self._resident) > self.fast_pages:
            page, _ = self._resident.popitem(last=False)
            demoted += 1
            if page in self._dirty:
                self._dirty.discard(page)
                dirty_evicted.append(page)
        if demoted:
            self._demotions.inc(demoted)
        if dirty_evicted:
            # Demoting a written page prices the deferred capacity
            # write (the copy-back) as one vectored batch; clean
            # demotions stay free because the capacity home still
            # holds the page's content.
            self.capacity.write_runs(coalesce_pages(sorted(dirty_evicted)))
            self._copybacks.inc(len(dirty_evicted))
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.instant(
                "tier.promote",
                cat="tier",
                args={
                    "pages": len(pages),
                    "demoted": demoted,
                    "copybacks": len(dirty_evicted),
                },
            )

    def _after_read(self, start: int, npages: int) -> None:
        """Apply the migration policy to one demand-read run."""
        if self.migration == "static":
            return
        promote: list[int] = []
        for page in range(start, start + npages):
            if page in self._resident:
                self._resident.move_to_end(page)
            elif self.migration == "lru-demote":
                promote.append(page)
            else:  # promote-on-hit
                count = self._counts.get(page, 0) + 1
                if count >= self.promote_after:
                    promote.append(page)
                else:
                    self._counts[page] = count
        self._promote(promote)

    # ------------------------------------------------------------------
    # request pricing
    # ------------------------------------------------------------------
    def _transfer(
        self, kind: str, runs: Sequence[tuple[int, int]], continuation: bool
    ) -> float:
        """Price one batch of runs across the tiers, then let the demand
        reads drive migration (its device time is excluded from the
        returned response).  Tier fragments are priced one ``read`` /
        ``write`` at a time: a tier that is itself sharded positions
        its arms per fragment, so batching a tier's fragments would
        change tier-over-sharded pricing."""
        if self.migration == "static":
            for start, npages in runs:
                self._static_fill(range(start, start + npages))
        fragments = self._split(runs)
        response = self._price(kind, fragments, continuation)
        if kind == "read":
            for _tier, frag_start, frag_pages in fragments:
                self._after_read(frag_start, frag_pages)
        return response

    def write(self, start: int, npages: int = 1, continuation: bool = False) -> float:
        """Price a write.  ``static`` writes to the pages' home tiers;
        the cache policies write through to the capacity home and
        invalidate any fast copies (write-invalidate), or — under
        ``write_policy="write-back"`` — absorb writes of fast-resident
        pages on the fast tier, deferring the capacity write to the
        demotion-time copy-back."""
        if self.migration == "static":
            return self._transfer("write", [(start, npages)], continuation)
        if self.write_policy == "write-back":
            return self._write_back(start, npages, continuation)
        invalidated = 0
        for page in range(start, start + npages):
            if page in self._resident:
                del self._resident[page]
                invalidated += 1
            self._counts.pop(page, None)
        if invalidated:
            self._invalidations.inc(invalidated)
            if _obs.ACTIVE is not None:
                _obs.ACTIVE.instant(
                    "tier.invalidate",
                    cat="tier",
                    args={"pages": invalidated},
                )
        cost = self.capacity.write(start, npages, continuation)
        self._response_ms += cost
        return cost

    def write_runs(
        self, runs: Sequence[tuple[int, int]], continuation: bool = False
    ) -> float:
        """Price one vectored batch of write runs (the write mirror of
        :meth:`read_runs`), preserving each run's tier routing and
        write-policy side effects: the first run carries the caller's
        ``continuation`` flag, follow-ups are continuations."""
        cost = 0.0
        first = True
        for start, npages in runs:
            cost += self.write(start, npages, continuation if first else True)
            first = False
        return cost

    def _write_back(self, start: int, npages: int, continuation: bool) -> float:
        """Write-back pricing: fast-resident fragments take the write
        on the fast tier (marked dirty, refreshed in LRU order), the
        rest writes to the capacity home (priced like any split
        request: each tier positions once, the response is the max
        over the tiers)."""
        fragments = self._split([(start, npages)])
        response = self._price("write", fragments, continuation)
        for tier, frag_start, frag_pages in fragments:
            for page in range(frag_start, frag_start + frag_pages):
                if tier == self.FAST:
                    self._dirty.add(page)
                    self._resident.move_to_end(page)
                else:
                    self._counts.pop(page, None)
        return response

    def charge(self, seeks: int = 0, rotations: int = 0, pages: int = 0) -> float:
        """Account an analytic cost (no page addresses — nothing to
        tier) on the capacity device."""
        cost = self.capacity.charge(seeks=seeks, rotations=rotations, pages=pages)
        self._response_ms += cost
        return cost

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(fast_pages={self.fast_pages}, "
            f"migration='{self.migration}', resident={len(self._resident)})"
        )
