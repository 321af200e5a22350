"""Declustering placement policies: page → disk.

A :class:`~repro.pagestore.store.ShardedPageStore` shards one logical
page address space over ``n_disks`` independent devices.  The placement
policy decides which disk owns which page, at two granularities:

* a **default rule** over fixed *chunks* of ``chunk_pages`` consecutive
  pages — every page has an owner even if nobody ever hinted it
  (R*-tree node pages, the secondary organization's byte-packed file);
* **pinned extents** — storage managers that know what an extent
  *means* (a cluster unit, an oversize object) pin the whole extent to
  one disk via :meth:`PlacementPolicy.place_extent`, so a unit is never
  torn across devices and keeps its intra-unit continuation pricing.
  Pins are kept as extents, not as a page table: routing a unit of
  any length is one binary search (:meth:`PlacementPolicy.fragments`).

Three policies are provided:

* ``round_robin`` — chunks are striped across the disks in address
  order; physically adjacent chunks always land on different disks;
* ``hash`` — chunks are scattered by a deterministic 64-bit mix of the
  chunk number (declustering without any adjacency assumption);
* ``spatial`` — extents hinted with the *center of their region* are
  pinned to ``hilbert(center) mod n_disks`` (reusing
  :mod:`repro.core.hilbert`): spatially adjacent extents sit close on
  the Hilbert curve and therefore on *different* disks — exactly the
  extents a window query co-accesses (the grid-file declustering
  argument of Joshi et al.).  Unhinted pages fall back to round-robin
  striping.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from repro.constants import DEFAULT_DATA_SPACE
from repro.disk.extent import Extent
from repro.errors import ConfigurationError

__all__ = [
    "DEFAULT_CHUNK_PAGES",
    "PLACEMENTS",
    "PlacementPolicy",
    "RoundRobinPlacement",
    "HashPlacement",
    "SpatialPlacement",
    "make_placement",
]

DEFAULT_CHUNK_PAGES = 8
"""Default declustering chunk: runs of this many consecutive pages
share a disk under the arithmetic placement rules.  Roughly one cluster
unit of the paper's restricted buddy system, so un-pinned unit-sized
transfers still tend to stay on one device."""

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: a cheap, deterministic 64-bit scrambler."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class PlacementPolicy:
    """Base class: chunked default rule + pinned-extent overrides.

    Parameters
    ----------
    chunk_pages:
        Granularity of the arithmetic default rule.  Pinned extents are
        not affected by the chunk size.
    """

    name = "abstract"

    def __init__(self, chunk_pages: int = DEFAULT_CHUNK_PAGES):
        if chunk_pages < 1:
            raise ConfigurationError(
                f"chunk_pages must be >= 1, got {chunk_pages}"
            )
        self.chunk_pages = chunk_pages
        self.n_disks = 1
        self._bound = False
        #: The pinned extents: disjoint ``(start, end, disk)``, sorted.
        self._pins: list[tuple[int, int, int]] = []

    def bind(self, n_disks: int) -> None:
        """Fix the number of disks (called by the owning store).

        A policy instance belongs to one store: binding it to a second
        store with a different disk count would silently remap the
        first store's routing, so it is refused."""
        if n_disks < 1:
            raise ConfigurationError(f"need at least one disk, got {n_disks}")
        if self._bound and n_disks != self.n_disks:
            raise ConfigurationError(
                f"placement policy is already bound to {self.n_disks} "
                f"disk(s); give each store its own policy instance"
            )
        self.n_disks = n_disks
        self._bound = True

    # ------------------------------------------------------------------
    def disk_of(self, page: int) -> int:
        """The disk owning ``page``: its pin, or the default rule."""
        return self.fragments(page, 1)[0][0]

    def _default_disk(self, page: int) -> int:
        return (page // self.chunk_pages) % self.n_disks

    def fragments(self, start: int, npages: int) -> list[tuple[int, int, int]]:
        """Split ``[start, start + npages)`` into maximal runs owned by
        one disk, as ``(disk, start, npages)`` in address order: a
        pinned extent is one piece, unpinned pages go chunk by chunk."""
        pins, end = self._pins, start + npages
        runs: list[tuple[int, int, int]] = []
        page = start
        while page < end or not runs:  # (an empty run is the disk's to refuse)
            i = bisect_left(pins, (page + 1,)) - 1  # the last pin starting <= page
            if i >= 0 and page < pins[i][1]:
                _, stop, disk = pins[i]
            else:  # unpinned up to the chunk boundary or the next pin
                disk = self._default_disk(page)
                stop = page - page % self.chunk_pages + self.chunk_pages
                if i + 1 < len(pins):
                    stop = min(stop, pins[i + 1][0])
            stop = min(stop, end)
            if runs and runs[-1][0] == disk:
                disk, page, _ = runs.pop()
            runs.append((disk, page, stop - page))
            page = stop
        return runs

    # ------------------------------------------------------------------
    def choose_disk(self, extent: Extent, center=None) -> int | None:
        """Pick a disk for a hinted extent; ``None`` declines the hint
        (the extent stays under the default rule)."""
        return None

    def place_extent(self, extent: Extent, center=None, disk: int | None = None) -> None:
        """Pin a whole extent to one disk.

        ``disk`` pins explicitly (the declustered-reader adapter deals
        units by hand); otherwise the policy may derive a disk from the
        spatial ``center`` hint via :meth:`choose_disk`.  A declined
        hint leaves the extent under the default rule.
        """
        if disk is None:
            disk = self.choose_disk(extent, center)
        if disk is None:
            return
        self.forget_extent(extent)  # the newest pin of a page wins
        insort(self._pins, (extent.start, extent.end, disk % self.n_disks))

    def forget_extent(self, extent: Extent) -> None:
        """Drop the pins of a freed/relocated extent (its pages may be
        re-allocated); a pin reaching beyond it keeps what lies outside."""
        pins = self._pins
        for edge in (extent.start, extent.end):
            i = bisect_left(pins, (edge + 1,)) - 1
            if i >= 0 and pins[i][0] < edge < pins[i][1]:  # split the pin here
                start, end, disk = pins[i]
                pins[i : i + 1] = [(start, edge, disk), (edge, end, disk)]
        del pins[bisect_left(pins, (extent.start,)) : bisect_left(pins, (extent.end,))]

    @property
    def pinned_pages(self) -> int:
        return sum(end - start for start, end, _disk in self._pins)


class RoundRobinPlacement(PlacementPolicy):
    """Stripe chunks across the disks in page-address order."""

    name = "round_robin"


class HashPlacement(PlacementPolicy):
    """Scatter chunks by a deterministic hash of the chunk number."""

    name = "hash"

    def _default_disk(self, page: int) -> int:
        return _mix64(page // self.chunk_pages) % self.n_disks


class SpatialPlacement(PlacementPolicy):
    """Hilbert-on-extent declustering.

    Extents hinted with the center of the region they store are pinned
    to ``hilbert_index(center) mod n_disks`` on a ``2^order`` grid over
    the square data space: neighbours on the curve — and therefore in
    space — land on different disks.  Pages never hinted (tree nodes,
    byte-packed files) fall back to round-robin striping.
    """

    name = "spatial"

    def __init__(
        self,
        chunk_pages: int = DEFAULT_CHUNK_PAGES,
        data_space: float = DEFAULT_DATA_SPACE,
        order: int = 16,
    ):
        super().__init__(chunk_pages)
        if data_space <= 0:
            raise ConfigurationError("data_space must be positive")
        if not (1 <= order <= 31):
            raise ConfigurationError(f"hilbert order must be in [1, 31], got {order}")
        self.data_space = data_space
        self.order = order

    def choose_disk(self, extent: Extent, center=None) -> int | None:
        if center is None:
            return None
        from repro.core.hilbert import point_key

        x, y = center
        return point_key(x, y, self.data_space, self.order) % self.n_disks


PLACEMENTS: dict[str, type[PlacementPolicy]] = {
    "round_robin": RoundRobinPlacement,
    "hash": HashPlacement,
    "spatial": SpatialPlacement,
}
"""Registry of placement-policy names accepted by
:class:`~repro.pagestore.store.ShardedPageStore` and
:class:`~repro.database.SpatialDatabase`."""


def make_placement(
    placement: str | PlacementPolicy,
    chunk_pages: int | None = None,
) -> PlacementPolicy:
    """Resolve a placement argument (name or ready instance)."""
    if isinstance(placement, PlacementPolicy):
        if chunk_pages is not None and chunk_pages != placement.chunk_pages:
            raise ConfigurationError(
                "chunk_pages conflicts with the provided placement instance"
            )
        return placement
    cls = PLACEMENTS.get(placement)
    if cls is None:
        raise ConfigurationError(
            f"unknown placement '{placement}'; valid: {tuple(PLACEMENTS)}"
        )
    if chunk_pages is None:
        return cls()
    return cls(chunk_pages=chunk_pages)
