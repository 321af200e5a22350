"""The page store: the device layer behind the buffer pool.

Section 7 of the paper names multi-disk parallel cluster organizations
as the next challenge; this module puts that parallelism under the
*whole* storage stack instead of a single access path.  A
:class:`PageStore` is anything that prices page requests the way
:class:`~repro.disk.model.DiskModel` does — the protocol is exactly the
surface the :class:`~repro.buffer.pool.BufferPool` and its consumers
use, so swapping the backing store is invisible to every pool consumer
(the three organizations, the R*-tree pager, the spatial join).

The layer has one shape — a tree whose leaves are disks:

* :class:`~repro.disk.model.DiskModel` is the leaf — the single-disk
  backend every experiment has always used (it satisfies the protocol
  as-is, which is what keeps the paper's figures bit-identical);
* :class:`CompositePageStore` is the inner node: a store over
  ``children``, each itself a store.  What follows from the shape is
  written there once — request splitting, the measurement surface, the
  lifecycle, placement forwarding, the flattened ``disks`` and their
  ``device_labels()``.  Its subclasses only say what their children
  are: :class:`ShardedPageStore` (``n_disks`` independent disks behind
  one logical page space, declustered by a pluggable
  :class:`~repro.pagestore.placement.PlacementPolicy`),
  :class:`~repro.pagestore.tiered.TieredPageStore` (a fast and a
  capacity tier, each any store) and
  :class:`~repro.pagestore.file.FilePageStore` (one pricing disk over
  a real file).

Pricing follows the declustering literature: the children operate in
parallel, so the **response time** of a vectored request is the maximum
over the per-child work, while the **device time** (the resource the
whole system consumes) stays the sum.  :meth:`CompositePageStore.stats`
reports device time — aggregate accounting is therefore comparable
with a single disk — and response time is exposed separately, per
request (the return value of :meth:`CompositePageStore.read`) and per
measurement interval (:meth:`CompositePageStore.cost_since` /
:meth:`CompositePageStore.measure`, which assume the interval's
requests were issued as one parallel batch).
"""

from __future__ import annotations

from typing import Iterator, Protocol, Sequence, runtime_checkable

from repro.disk.extent import Extent
from repro.disk.model import (
    DiskModel,
    DiskStats,
    VectoredCost,
    measure_costs,
)
from repro.disk.params import DiskParameters
from repro.obs import trace as _obs
from repro.errors import ConfigurationError
from repro.pagestore.placement import PlacementPolicy, make_placement

__all__ = [
    "PageStore",
    "CompositePageStore",
    "ShardedPageStore",
    "StoreSnapshot",
    "VectoredCost",
]


class StoreSnapshot(list):
    """Per-child statistics marker of a :class:`CompositePageStore`.

    Behaves as the plain ``list[DiskStats]`` it always was, but also
    carries the store's *reset epoch*: :meth:`CompositePageStore.reset`
    bumps the epoch, so ``stats_since`` / ``cost_since`` can detect a
    marker taken before a reset and measure from zero instead of
    subtracting stale totals — a pre-reset snapshot used to make
    ``cost_since`` go negative.
    """

    __slots__ = ("epoch",)

    def __init__(self, stats: Sequence[DiskStats], epoch: int):
        super().__init__(stats)
        self.epoch = epoch


@runtime_checkable
class PageStore(Protocol):
    """Anything the buffer pool can price page traffic against.

    :class:`~repro.disk.model.DiskModel` is the leaf implementation,
    :class:`CompositePageStore` the inner node of the store tree.
    Besides the request surface, every store speaks one measurement
    surface — ``snapshot()`` / ``cost_since()`` / ``measure()`` — so
    consumers separate response time from device time without caring
    how many devices sit underneath, and answers the same tree
    questions: which ``disks`` are its leaves, what they are called
    (``device_labels()``), and where an extent should live.
    """

    params: DiskParameters
    disks: Sequence[DiskModel]

    def read(self, start: int, npages: int = 1, continuation: bool = False) -> float: ...
    def read_runs(
        self, runs: Sequence[tuple[int, int]], continuation: bool = False
    ) -> float: ...
    def write(self, start: int, npages: int = 1, continuation: bool = False) -> float: ...
    def write_runs(
        self, runs: Sequence[tuple[int, int]], continuation: bool = False
    ) -> float: ...
    def charge(self, seeks: int = 0, rotations: int = 0, pages: int = 0) -> float: ...
    def stats(self) -> DiskStats: ...
    def snapshot(self): ...
    def stats_since(self, snapshot) -> DiskStats: ...
    def cost_since(self, snapshot) -> VectoredCost: ...
    def reset(self) -> None: ...
    def reset_stats(self) -> None: ...
    def close(self) -> None: ...
    def device_labels(self) -> Sequence[str]: ...
    def place_extent(self, extent: Extent, center=None, disk: int | None = None) -> None: ...
    def forget_extent(self, extent: Extent) -> None: ...

    @property
    def total_ms(self) -> float: ...


class CompositePageStore:
    """The inner node of the store tree: one logical page space over
    ``children``, each a :class:`PageStore` of its own (a
    :class:`~repro.disk.model.DiskModel` leaf or another composite).

    A request spanning pages owned by several children is split into
    per-child fragments (:meth:`_owner` says who owns a page).  Each
    child prices its first fragment with the caller's ``continuation``
    flag (every device positions its own arm) and further fragments of
    the same request as continuations; the request's response time —
    the returned cost — is the maximum over the involved children, its
    device time the sum (recorded in the leaves' statistics).

    Subclasses call ``__init__`` with their children, implement
    :meth:`_owner`, and override only what is theirs.
    """

    def __init__(self, children: Sequence[PageStore]):
        #: The direct sub-stores requests are split over and priced on.
        self.children = list(children)
        #: The leaves of the whole subtree, left to right — every
        #: physical arm; the overlap scheduler times each as its own
        #: service queue.
        self.disks = [disk for child in self.children for disk in child.disks]
        self._response_ms = 0.0
        self._reset_epoch = 0

    def _child_names(self) -> Sequence[str]:
        """What :meth:`device_labels` calls each child (its index)."""
        return [str(index) for index in range(len(self.children))]

    def device_labels(self) -> list[str]:
        """One label per entry of :attr:`disks` — the one place device
        names come from (span tracks, ``store.device_ms{disk=}`` and
        ``write.device_ms{disk=}`` all read it).  A leaf child is
        called by its place in this store (``0`` … ``n-1``, ``fast``,
        ``capacity``); the leaves of a composite child add theirs
        (``fast-0``, ``capacity-1``)."""
        labels: list[str] = []
        for name, child in zip(self._child_names(), self.children):
            if isinstance(child, DiskModel):
                labels.append(name)
            else:
                labels.extend(f"{name}-{leaf}" for leaf in child.device_labels())
        return labels

    # ------------------------------------------------------------------
    # placement surface
    # ------------------------------------------------------------------
    def place_extent(self, extent: Extent, center=None, disk: int | None = None) -> None:
        """Forward a placement hint to every child (a no-op on leaves):
        the page address space is shared, so an extent pinned by one
        child's placement is pinned identically in the others'."""
        for child in self.children:
            child.place_extent(extent, center=center, disk=disk)

    def forget_extent(self, extent: Extent) -> None:
        """Tell every child an extent was freed or relocated."""
        for child in self.children:
            child.forget_extent(extent)

    def _owner(self, page: int) -> int:
        """Index of the child serving ``page``."""
        raise NotImplementedError

    def _fragments(self, start: int, npages: int) -> Iterator[tuple[int, int, int]]:
        """Split ``[start, start + npages)`` into maximal runs owned by
        one child; yields ``(child, start, npages)``."""
        run_owner = self._owner(start)
        run_start = start
        for page in range(start + 1, start + npages):
            owner = self._owner(page)
            if owner != run_owner:
                yield run_owner, run_start, page - run_start
                run_owner, run_start = owner, page
        yield run_owner, run_start, start + npages - run_start

    # ------------------------------------------------------------------
    # request pricing
    # ------------------------------------------------------------------
    def _split(self, runs: Sequence[tuple[int, int]]) -> list[tuple[int, int, int]]:
        """The per-child fragments of a batch of runs, in issue order."""
        return [
            fragment
            for start, npages in runs
            for fragment in self._fragments(start, npages)
        ]

    def _price(
        self, kind: str, fragments: Sequence[tuple[int, int, int]], continuation: bool
    ) -> float:
        """Price fragments one ``read`` / ``write`` at a time, in issue
        order.  Every child positions exactly once per batch: its
        first fragment is priced with the caller's ``continuation``
        flag, its further fragments as continuations.  As with
        :meth:`~repro.disk.model.DiskModel.read`, the flag is the
        caller's assertion that the arms involved are already
        positioned (Section 5.4.3 reads inside one cluster unit —
        units are pinned whole, so the assertion concerns one arm).
        Returns the batch's response time, the max over the children."""
        per_child: dict[int, float] = {}
        for child, start, npages in fragments:
            cost = getattr(self.children[child], kind)(
                start, npages, child in per_child or continuation
            )
            per_child[child] = per_child.get(child, 0.0) + cost
        if not per_child:
            return 0.0
        response = max(per_child.values())
        self._response_ms += response
        return response

    def _transfer(
        self, kind: str, runs: Sequence[tuple[int, int]], continuation: bool
    ) -> float:
        """Price one parallel batch of runs; every request entry point
        lands here."""
        return self._price(kind, self._split(runs), continuation)

    def read(self, start: int, npages: int = 1, continuation: bool = False) -> float:
        """Price a read; returns its parallel response time in ms."""
        return self._transfer("read", [(start, npages)], continuation)

    def read_runs(
        self, runs: Sequence[tuple[int, int]], continuation: bool = False
    ) -> float:
        """Price one vectored batch of read runs (the buffer pool's
        coalescing scheduler) as a single split request."""
        return self._transfer("read", runs, continuation)

    def write(self, start: int, npages: int = 1, continuation: bool = False) -> float:
        """Price a write (same parallel model as reads)."""
        return self._transfer("write", [(start, npages)], continuation)

    def write_runs(
        self, runs: Sequence[tuple[int, int]], continuation: bool = False
    ) -> float:
        """Price one vectored batch of write runs as a single split
        request (the write mirror of :meth:`read_runs`)."""
        return self._transfer("write", runs, continuation)

    def read_extent(self, extent: Extent, continuation: bool = False) -> float:
        return self.read(extent.start, extent.npages, continuation)

    def write_extent(self, extent: Extent, continuation: bool = False) -> float:
        return self.write(extent.start, extent.npages, continuation)

    def charge(self, seeks: int = 0, rotations: int = 0, pages: int = 0) -> float:
        """Account an analytic cost (charged to the first child, serial).

        Analytic charges carry no page addresses — there is nothing to
        split — so they price exactly as on a single disk (response ==
        device time).  Consumers that price via ``charge`` (e.g. the
        spatial join's per-object transfer accounting) therefore report
        parallelism 1 for those phases; declustering them would first
        require pricing them as addressed reads, which would change the
        paper's join figures."""
        cost = self.children[0].charge(seeks=seeks, rotations=rotations, pages=pages)
        self._response_ms += cost
        return cost

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def stats(self) -> DiskStats:
        """Aggregate *device-time* statistics (sum over the children) —
        directly comparable with a single disk's accounting."""
        first, *rest = self.per_disk_stats()
        return sum(rest, first)

    def per_disk_stats(self) -> list[DiskStats]:
        """Snapshot of every child's own statistics."""
        return [child.stats() for child in self.children]

    @property
    def total_ms(self) -> float:
        """Total device time in milliseconds (sum over the children)."""
        return sum(child.total_ms for child in self.children)

    @property
    def response_ms(self) -> float:
        """Accumulated per-request response time: every request priced
        at the max over the children it touched."""
        return self._response_ms

    def snapshot(self) -> StoreSnapshot:
        """Per-child statistics marker for :meth:`cost_since` /
        :meth:`stats_since` (tagged with the current reset epoch)."""
        return StoreSnapshot(self.per_disk_stats(), self._reset_epoch)

    def _since(self, snapshot: Sequence[DiskStats]) -> list[DiskStats]:
        """Every child's statistics delta since ``snapshot``.  A marker
        whose shape does not match this store (taken from a store with
        a different child count, or a single-disk ``DiskStats``) is
        rejected — ``zip`` used to truncate it silently into a
        plausible-looking but wrong measurement.  A marker taken before
        the last :meth:`reset` is stale — its totals no longer underlie
        the current statistics — so the interval starts from zero."""
        try:
            length = len(snapshot)
        except TypeError:
            length = -1
        if length != len(self.children) or not all(
            isinstance(entry, DiskStats) for entry in snapshot
        ):
            raise ConfigurationError(
                f"snapshot does not match this {type(self).__name__}: expected "
                f"{len(self.children)} per-child DiskStats entries, got "
                f"{length if length >= 0 else type(snapshot).__name__}"
            )
        if getattr(snapshot, "epoch", self._reset_epoch) != self._reset_epoch:
            return self.per_disk_stats()
        return [
            child.stats() - before
            for child, before in zip(self.children, snapshot)
        ]

    def stats_since(self, snapshot: Sequence[DiskStats]) -> DiskStats:
        """Aggregate device-time statistics delta since ``snapshot``."""
        first, *rest = self._since(snapshot)
        return sum(rest, first)

    def cost_since(self, snapshot: Sequence[DiskStats]) -> VectoredCost:
        """Parallel cost of everything priced since ``snapshot``,
        treating the interval as one split batch: response time is the
        busiest child's delta, device time the summed deltas."""
        per_child = [delta.total_ms for delta in self._since(snapshot)]
        return VectoredCost(
            response_ms=max(per_child),
            total_ms=sum(per_child),
            per_disk_ms=per_child,
        )

    def measure(self):
        """Context manager measuring a split batch::

            with store.measure() as cost:
                ...issue requests...
            print(cost.response_ms, cost.parallelism)
        """
        return measure_costs(self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def invalidate_head(self) -> None:
        """Forget every device's head position."""
        for child in self.children:
            child.invalidate_head()

    def reset(self) -> None:
        """Zero all statistics and forget every head position, as one
        coherent action over all children (what a subclass keeps about
        placement — pins, tier residency — describes where pages live,
        not an experiment phase, and stays).  Bumps the reset epoch:
        snapshots taken before the reset are recognised as stale by
        :meth:`stats_since` / :meth:`cost_since` instead of producing
        negative deltas."""
        for child in self.children:
            child.reset()
        self._response_ms = 0.0
        self._reset_epoch += 1

    def reset_stats(self) -> None:
        """Zero statistics only — the unified mid-run reset convention:
        head positions (and placement) are preserved, so pricing of
        subsequent requests is unaffected.  Bumps the reset epoch like
        :meth:`reset` so stale snapshots are measured from zero instead
        of going negative."""
        for child in self.children:
            child.reset_stats()
        self._response_ms = 0.0
        self._reset_epoch += 1

    def close(self) -> None:
        """Release what the store holds of the operating system: nothing
        for simulated devices (a file-backed store has a descriptor)."""


class ShardedPageStore(CompositePageStore):
    """One logical page space declustered over ``n_disks`` devices.

    Parameters
    ----------
    n_disks:
        Number of independent disks (each a
        :class:`~repro.disk.model.DiskModel` with its own head and
        statistics).
    placement:
        Placement-policy name (``round_robin`` / ``hash`` / ``spatial``)
        or a ready :class:`~repro.pagestore.placement.PlacementPolicy`.
    params:
        Disk timing constants shared by all devices.
    chunk_pages:
        Chunk granularity of the arithmetic placement rules (forwarded
        to the policy; ``None`` keeps the policy default).
    """

    def __init__(
        self,
        n_disks: int,
        placement: str | PlacementPolicy = "round_robin",
        params: DiskParameters | None = None,
        chunk_pages: int | None = None,
    ):
        if n_disks < 1:
            raise ConfigurationError(f"need at least one disk, got {n_disks}")
        self.params = params or DiskParameters()
        super().__init__([DiskModel(self.params) for _ in range(n_disks)])
        self.placement = make_placement(placement, chunk_pages)
        self.placement.bind(n_disks)

    # ------------------------------------------------------------------
    # placement surface
    # ------------------------------------------------------------------
    def disk_of(self, page: int) -> int:
        """Index of the disk owning a page."""
        return self.placement.disk_of(page)

    def _fragments(self, start: int, npages: int) -> list[tuple[int, int, int]]:
        """The placement answers for a whole run, not page by page."""
        return self.placement.fragments(start, npages)

    def place_extent(self, extent: Extent, center=None, disk: int | None = None) -> None:
        """Pin an extent to one disk (see
        :meth:`~repro.pagestore.placement.PlacementPolicy.place_extent`)."""
        self.placement.place_extent(extent, center=center, disk=disk)

    def forget_extent(self, extent: Extent) -> None:
        """Drop the placement of a freed or relocated extent."""
        self.placement.forget_extent(extent)

    # ------------------------------------------------------------------
    # request pricing
    # ------------------------------------------------------------------
    def _transfer(
        self, kind: str, runs: Sequence[tuple[int, int]], continuation: bool
    ) -> float:
        if _obs.ACTIVE is not None:
            # Keep the historical per-fragment interleaving so the span
            # tracer sees device records in issue order.
            return super()._transfer(kind, runs, continuation)
        # Group each disk's fragments (in issue order) and price them as
        # one batch per device: the device's first fragment carries the
        # caller's continuation flag, follow-ups are continuations —
        # exactly the per-fragment loop's flags — and large batches hit
        # the vectorized DiskModel pricer.  Per-device request sequences
        # are unchanged, so stats, heads, and costs are bit-identical.
        grouped: dict[int, list[tuple[int, int]]] = {}
        for start, npages in runs:
            for disk, frag_start, frag_pages in self._fragments(start, npages):
                grouped.setdefault(disk, []).append((frag_start, frag_pages))
        if not grouped:
            return 0.0
        # This loop runs about ten times per served operation: its
        # max-and-accumulate tail stays inline.
        response = 0.0
        for disk, frags in grouped.items():
            cost = self.disks[disk].price_runs(frags, continuation, kind)
            if cost > response:
                response = cost
        self._response_ms += response
        return response
