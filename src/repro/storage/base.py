"""Common machinery of the three organization models (Section 3.2).

Every organization owns

* an R*-tree over the objects' MBRs (the spatial access method),
* a simulated :class:`~repro.disk.DiskModel` pricing all I/O,
* the in-memory object table (the simulator never serialises payloads —
  it prices page traffic),
* the answer to "where does this object's exact representation live":
  ``_extents`` maps the objects stored on pages of their own to those
  pages (:meth:`SpatialOrganization.extent_of`); every other object is
  co-located with its data page — in the page's cluster unit
  (``leaf.tag``) or, where :attr:`~SpatialOrganization.
  _page_holds_objects`, inside the page itself.  Queries
  (:meth:`~SpatialOrganization._plan_group`), the join's object
  transfer and the catalog all read that one table.

The lifecycle has two phases.  During **construction**, node I/O runs
through a write-back LRU buffer (the authors' testbed caches the upper
tree levels).  :meth:`finalize_build` flushes that buffer and switches
to **measurement** mode, where the directory is assumed memory-resident
and every data-page and object access is priced — matching how the
paper reports query I/O cost.
"""

from __future__ import annotations

import abc
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import compress
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import would be circular at runtime
    from repro.pagestore.store import PageStore

from repro.buffer.pool import BufferPool
from repro.constants import ENTRY_SIZE, PAGE_CAPACITY, PAGE_SIZE
from repro.disk.allocator import PageAllocator, Region
from repro.disk.extent import Extent
from repro.disk.model import DiskModel, DiskStats
from repro.errors import StorageError
from repro.geometry.feature import SpatialObject
from repro.geometry.intersect import polylines_intersect_rects
from repro.geometry.polygon import Polygon
from repro.geometry.polyline import Polyline
from repro.geometry.rect import Rect
from repro.iosched.request import AccessPlan
from repro.iosched.scheduler import OverlapScheduler, SyncScheduler
from repro.rtree.entry import Entry
from repro.rtree.node import Node
from repro.rtree.pager import NodePager
from repro.rtree.rstar import RStarTree

__all__ = ["QueryResult", "SpatialOrganization"]


@dataclass(slots=True)
class QueryResult:
    """Outcome of one spatial query against an organization model.

    Attributes
    ----------
    objects:
        The answers — objects passing the *exact* geometry test.
    candidates:
        Number of filter-step candidates (MBR matches) whose exact
        representation was retrieved.
    bytes_retrieved:
        Exact-representation bytes of the retrieved candidates; queries
        are normalised to this data volume ("I/O-cost per 4 KB of
        queried data", Figures 8/12).
    io:
        I/O statistics of this query alone.
    exact_tests:
        Number of exact geometry tests executed during refinement.
    """

    objects: list[SpatialObject] = field(default_factory=list)
    candidates: int = 0
    bytes_retrieved: int = 0
    io: DiskStats = field(default_factory=DiskStats)
    exact_tests: int = 0

    @property
    def io_ms_per_4kb(self) -> float:
        """The paper's normalised metric: milliseconds of I/O per 4 KB
        of retrieved object data (infinite if nothing was retrieved —
        callers aggregate over many queries, so empty queries simply
        contribute their cost to a shared numerator)."""
        units = self.bytes_retrieved / PAGE_SIZE
        if units == 0:
            return float("inf")
        return self.io.total_ms / units


class SpatialOrganization(abc.ABC):
    """Base class of the secondary, primary and cluster organizations."""

    #: subclasses override — used in reports
    name: str = "abstract"

    #: True when every data-page group of a query is its own access plan
    #: (unless merged, see :meth:`_batchable`); otherwise a query's
    #: groups share one plan.
    _plan_per_group: bool = False

    #: True when a data page itself carries the exact representations of
    #: its objects that have no extent of their own (the primary
    #: organization); otherwise they are in the page's cluster unit.
    _page_holds_objects: bool = False

    #: Names of the instance scalars the catalog's ``storage`` block
    #: keeps for this organization (:mod:`repro.storage.serial`).
    _catalog_scalars: tuple[str, ...] = ()

    #: Where own extents are allocated; every subclass claims one.
    _own_region: Region

    def __init__(
        self,
        disk: "DiskModel | PageStore | None" = None,
        allocator: PageAllocator | None = None,
        page_size: int = PAGE_SIZE,
        max_entries: int = PAGE_CAPACITY,
        construction_buffer_pages: int = 256,
        region_prefix: str = "",
        pool: BufferPool | None = None,
        scheduler=None,
        prefetch=None,
        metrics=None,
    ):
        self.disk = disk or DiskModel()
        self.allocator = allocator or PageAllocator()
        self.page_size = page_size
        self.max_entries = max_entries
        self.region_prefix = region_prefix or self.name
        self.objects: dict[int, SpatialObject] = {}
        #: The objects stored on pages of their own, and those pages.
        self._extents: dict[int, Extent] = {}
        self._construction_io = DiskStats()
        self._measuring = False
        # All measurement-mode page traffic (data pages, cluster units,
        # object extents) funnels through one shared buffer pool.  The
        # default pool is pass-through (capacity 0): every request is
        # priced cold, matching the paper's per-query I/O reporting.
        # The workload engine swaps a caching pool in via `use_pool`.
        # ``scheduler``/``prefetch`` (names or instances) select how
        # the pool services submitted access plans; the defaults keep
        # the bit-identical synchronous pricing.
        self.pool = (
            pool
            if pool is not None
            else BufferPool(
                self.disk,
                capacity=0,
                scheduler=scheduler,
                prefetcher=prefetch,
                allocator=self.allocator,
                metrics=metrics,
                metrics_label=f"{self.region_prefix}.query",
            )
        )

        tree_region = self._claim_region("tree")
        # Construction runs under the same assumption as measurement:
        # the small directory is memory-resident, data pages live on
        # disk behind a modest write-back buffer.  A large buffer would
        # absorb the forced-reinsert I/O that distinguishes the
        # organization models in Figure 5.
        self._construction_pager = NodePager(
            self.disk,
            tree_region,
            buffer_capacity=construction_buffer_pages,
            directory_resident=True,
        )
        self._query_pager = NodePager(
            self.disk, tree_region, directory_resident=True, pool=self.pool
        )
        self.tree = self._build_tree(self._construction_pager)

    def _claim_region(self, suffix: str):
        """Create the region ``<prefix>.<suffix>``, refusing to share an
        existing one — two organizations on one allocator (e.g. the two
        relations of a spatial join) must use distinct prefixes."""
        name = f"{self.region_prefix}.{suffix}"
        if name in self.allocator.regions():
            raise StorageError(
                f"region '{name}' already exists; give each organization "
                f"sharing an allocator a distinct region_prefix"
            )
        return self.allocator.region(name)

    # ------------------------------------------------------------------
    # subclass surface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _build_tree(self, pager: NodePager) -> RStarTree:
        """Create the organization's R*-tree wired to ``pager``."""

    @abc.abstractmethod
    def _store_object(self, obj: SpatialObject) -> object:
        """Physically place a new object; returns the entry payload
        (the organization's locator for the exact representation)."""

    def _store_extent(self, obj: SpatialObject) -> Extent:
        """Give ``obj`` pages of its own: allocate them, record them in
        the one table, place them by the object's centre and price the
        write."""
        extent = self._own_region.allocate(self.pages_for(obj.size_bytes))
        self._extents[obj.oid] = extent
        self.pool.place_extent(extent, center=obj.mbr.center())
        self.pool.submit(AccessPlan(f"{self.name}.store").write_extent(extent))
        return extent

    def _plan_group(
        self,
        plan: AccessPlan,
        leaf: Node,
        entries: list[Entry],
        window: Rect,
        selective: bool,
        candidates: list[SpatialObject],
    ) -> None:
        """The transfer step for one data page: append to ``plan`` the
        requests that fetch the exact representations of ``entries``
        (the filter matches on ``leaf``) and to ``candidates`` the
        objects, in request order.

        ``window`` is the query region (techniques like the geometric
        threshold need it); ``selective`` marks point queries, which
        access single objects through the cluster unit's relative
        addresses instead of bulk-reading units (Sections 4.2.2/5.5).

        Here: every candidate with pages of its own costs one read
        request — in the sequential file there is no useful physical
        adjacency (Section 3.2.1's drawback), and an overflow object is
        the effect behind the primary organization's poor point-query
        behaviour for large objects (Figure 12); the others arrived with
        their data page, priced as one of the query's node visits.  Returns
        the order the entries' objects were appended in, ``None`` for theirs.
        """
        extents = self._extents
        if extents:
            for entry in entries:
                extent = extents.get(entry.oid)
                if extent is not None:
                    plan.read_extent(extent)
        objects = self.objects
        candidates.extend([objects[entry.oid] for entry in entries])

    def occupied_pages(self) -> int:
        """Total pages bound by the organization (Figure 6's metric):
        the tree (primary's data pages embed the objects) plus the
        region of own extents up to its high-water mark (the byte-packed
        sequential file; overflow and oversize storage)."""
        return self.tree_pages() + self._own_region.high_water_pages

    # ------------------------------------------------------------------
    # construction phase
    # ------------------------------------------------------------------
    def insert(self, obj: SpatialObject) -> None:
        """Insert one object (Section 4.2.2 steps 1-4).

        Insertions remain legal after :meth:`finalize_build`, but are
        then priced under the measurement-mode assumption of a
        memory-resident directory.
        """
        if obj.oid in self.objects:
            raise StorageError(f"duplicate object id {obj.oid}")
        self.objects[obj.oid] = obj
        payload = self._store_object(obj)
        self.tree.insert(
            obj.oid, obj.mbr, load=self._entry_load(obj), payload=payload
        )

    def delete(self, oid: int) -> SpatialObject:
        """Remove an object; the tree condenses and the organization
        reclaims (or abandons, for the sequential file) its storage."""
        obj = self.objects.get(oid)
        if obj is None:
            raise StorageError(f"unknown object id {oid}")
        self.tree.delete(oid, obj.mbr)
        self._unstore_object(obj)
        del self.objects[oid]
        return obj

    def _unstore_object(self, obj: SpatialObject) -> None:
        """Release the physical storage of a deleted object: forget its
        own extent, if it has one, and give the pages back."""
        extent = self._extents.pop(obj.oid, None)
        if extent is not None:
            self._own_region.free(extent)
            self._drop_frames(extent)

    def _entry_load(self, obj: SpatialObject) -> int:
        """Byte load the object's entry contributes to its data page;
        organizations with byte-aware capacities override this."""
        return ENTRY_SIZE

    def build(
        self, objects: list[SpatialObject], order: str = "insertion"
    ) -> DiskStats:
        """Insert all objects, finalize, and return the construction I/O.

        ``order="insertion"`` is the paper's setting (Section 5.2:
        "the input data were unsorted").  ``order="hilbert"`` is an
        extension following the global-order line of related work
        ([HSW88], [HWZ91]): objects are inserted along the Hilbert
        curve, so consecutive insertions hit neighbouring data pages,
        which improves construction locality and tree quality.
        """
        if self._measuring:
            raise StorageError(
                "build() can run only once — the organization is already "
                "finalized into measurement mode (use insert() for "
                "further dynamic insertions)"
            )
        if order == "hilbert":
            from repro.core.hilbert import sort_by_hilbert

            bound = 1.0
            for obj in objects:
                bound = max(bound, obj.mbr.xmax, obj.mbr.ymax)
            objects = sort_by_hilbert(objects, bound)
        elif order != "insertion":
            raise StorageError(
                f"unknown build order '{order}'; valid: insertion, hilbert"
            )
        before = self.disk.stats()
        for obj in objects:
            self.insert(obj)
        self.finalize_build()
        self._construction_io = self.disk.stats() - before
        return self._construction_io

    def finalize_build(self) -> None:
        """Flush construction buffers and switch to measurement mode."""
        if self._measuring:
            return
        self._construction_pager.flush()
        self.tree.pager = self._query_pager
        self._measuring = True

    @property
    def construction_io(self) -> DiskStats:
        """I/O statistics of the :meth:`build` call (Figure 5)."""
        return self._construction_io

    # ------------------------------------------------------------------
    # queries: filter -> transfer -> refine (Sections 2, 5.4, 5.5)
    # ------------------------------------------------------------------
    def window_query(self, window: Rect) -> QueryResult:
        """Filter + refinement window query (Section 2)."""
        return self._run_queries([window], False)[0]

    def point_query(self, x: float, y: float) -> QueryResult:
        """Filter + refinement point query (Section 2)."""
        return self._run_queries([Rect(x, y, x, y)], True)[0]

    def window_query_batch(self, windows: list[Rect]) -> list[QueryResult]:
        """Run a window workload; element ``i`` equals
        ``window_query(windows[i])`` exactly — answers, candidate
        counts and per-query I/O statistics — the queries just share
        one filter traversal and one refinement pass (see
        :meth:`_run_queries`)."""
        return self._run_queries(windows, False)

    def point_query_batch(
        self, points: list[tuple[float, float]]
    ) -> list[QueryResult]:
        """Batched point queries; element ``i`` equals
        ``point_query(*points[i])`` exactly."""
        return self._run_queries([Rect(x, y, x, y) for x, y in points], True)

    def _run_queries(self, rects: list[Rect], points: bool) -> list[QueryResult]:
        """The one query pipeline; a point query is the degenerate
        rectangle ``Rect(x, y, x, y)`` with ``points`` set.

        **Filter** — :meth:`RStarTree.window_leaves_batch`, which prices
        nothing: per query the visited nodes in DFS order, the per-leaf
        groups of matching entries and those entries' rectangle rows.
        **Transfer** — :meth:`_transfer`, query by query.  **Refine** —
        :meth:`_refine`, once over all queries of the call (refinement
        is pure CPU, so each query's I/O statistics are final before it
        runs).
        """
        merge = self._batchable()
        queries = []
        for rect, (visited, groups, rows) in zip(
            rects, self.tree.window_leaves_batch(rects)
        ):
            before = self.disk.stats()
            candidates = self._transfer(visited, groups, rows, rect, points, merge)
            result = QueryResult(
                candidates=len(candidates),
                bytes_retrieved=sum([o.size_bytes for o in candidates]),
                io=self.disk.stats() - before,
            )
            queries.append((rect, result, candidates, rows))
        self._refine(queries, points)
        return [result for _rect, result, _candidates, _rows in queries]

    def _batchable(self) -> bool:
        """May one query's node reads and object transfers be merged
        into a single access plan?  Only where plan boundaries are
        pricing-neutral: the pager must share this organization's pool,
        no prefetcher may be consulted per plan (the per-unit
        ``plan.extent`` hint would degenerate to the last group's), and
        the scheduler is the plain sync scheduler or the overlap
        scheduler *inside an operation scope* — there every request
        dispatches at the scope's start, while outside one each blocking
        plan advances the client's clock.  Nothing else depends on this
        — filtering and refinement are the same everywhere."""
        pager = self.tree.pager
        pool = self.pool
        scheduler = pool.scheduler
        return (
            pager is self._query_pager
            and pager.pool is pool
            and pool.prefetcher is None
            # Exact types: a subclass may give plan boundaries a meaning.
            and (
                type(scheduler) is SyncScheduler
                or (type(scheduler) is OverlapScheduler and scheduler.in_operation)
            )
        )

    def _transfer(
        self,
        visited: Sequence[Node],
        groups: list[tuple[Node, list[Entry]]],
        rows: np.ndarray,
        rect: Rect,
        selective: bool,
        merge: bool,
    ) -> list[SpatialObject]:
        """Price one query's node visits and the transfer of its
        candidates' exact representations; returns the candidates in
        read order and puts ``rows`` (the filter's rectangle rows, in
        entry order) into that order, in place.  Merged, everything is
        one access plan, cut where the separate plans would have ended;
        otherwise the visits are single-page reads and the groups are
        submitted as the organization declares them (one plan per data
        page when :attr:`_plan_per_group`, else one per query) — request
        order is the same either way."""
        pager = self.tree.pager
        plan = AccessPlan(f"{self.name}.retrieve")
        if merge:
            pager.plan_reads(visited, plan)
        else:
            for node in visited:
                pager.read(node)
        candidates: list[SpatialObject] = []
        for leaf, entries in groups:
            moved = self._plan_group(plan, leaf, entries, rect, selective, candidates)
            if moved:
                group = slice(len(candidates) - len(moved), len(candidates))
                rows[group] = rows[group][moved]
            if self._plan_per_group:
                if merge:
                    plan.cut()
                elif plan:
                    self.pool.submit(plan)
                    plan = AccessPlan(plan.label)
        if plan:
            self.pool.submit(plan)
        return candidates

    @staticmethod
    def _refine(queries: list[tuple], points: bool) -> None:
        """Exact refinement of every query of one call — ``(rect,
        result, candidates, rows)`` each — filling ``objects`` and
        ``exact_tests`` of its result.

        A window candidate whose MBR lies inside the window necessarily
        shares points with it and needs no test: one comparison of
        ``rows`` (``(xmin, ymin, -xmax, -ymax)`` per candidate) decides
        that for a whole query, as ``rect.contains(obj.mbr)`` would per
        candidate.  Those left pending are what ``exact_tests`` counts.
        A pending candidate with three of the four flags, and no
        ``mbr_override``, is accepted without a test: the row is then
        its geometry's tight MBR, whose remaining side lies in the
        window (the filter found the MBR intersecting it), so the
        vertex on that side is inside the window and the scalar
        predicate accepts it through ``contains_point``.  All pending polyline
        tests of the call go through one
        :func:`~repro.geometry.intersect.polylines_intersect_rects`
        batch (map polylines have a handful of segments each, so only
        one call across candidates and queries amortizes the numpy
        dispatch; a point test is a degenerate rect intersection), all
        point-in-polygon tests through one
        :meth:`Polygon.contains_points` batch per distinct polygon;
        polygon/window tests keep the scalar predicate."""
        line_coords: list = []
        line_rects: list[tuple[float, float, float, float]] = []
        line_sinks: list[tuple[list[bool], int]] = []
        # obj.oid -> (polygon, xs, ys, decision sinks)
        poly_tests: dict[
            int, tuple[Polygon, list[float], list[float], list[tuple[list[bool], int]]]
        ] = {}
        decided: list[list[bool]] = []
        for rect, result, candidates, rows in queries:
            decisions = [True] * len(candidates)
            decided.append(decisions)
            if points:
                pending, edge = range(len(candidates)), ()
            else:
                inside = rows >= (rect.xmin, rect.ymin, -rect.xmax, -rect.ymax)
                sides = inside.sum(axis=1)
                pending = np.flatnonzero(sides < 4).tolist()
                # Three flags: a tight MBR has a whole side in the window.
                edge = set(np.flatnonzero(sides == 3).tolist())
            result.exact_tests += len(pending)
            window = rect.as_tuple()
            for slot in pending:
                obj = candidates[slot]
                if slot in edge and obj.mbr_override is None:
                    continue
                geometry = obj.geometry
                if isinstance(geometry, Polyline):
                    line_sinks.append((decisions, slot))
                    line_coords.append(geometry.coords())
                    line_rects.append(window)
                elif points:
                    _, xs, ys, sinks = poly_tests.setdefault(
                        obj.oid, (geometry, [], [], [])
                    )
                    xs.append(rect.xmin)
                    ys.append(rect.ymin)
                    sinks.append((decisions, slot))
                else:
                    decisions[slot] = obj.intersects_rect(rect)
        if line_coords:
            verdicts = polylines_intersect_rects(line_coords, line_rects)
            for (decisions, slot), verdict in zip(line_sinks, verdicts.tolist()):
                decisions[slot] = verdict
        for geometry, xs, ys, sinks in poly_tests.values():
            verdicts = geometry.contains_points(xs, ys)
            for (decisions, slot), verdict in zip(sinks, verdicts.tolist()):
                decisions[slot] = verdict
        for (_rect, result, candidates, _rows), decisions in zip(queries, decided):
            result.objects = list(compress(candidates, decisions))

    # ------------------------------------------------------------------
    # buffer-pool wiring
    # ------------------------------------------------------------------
    def _drop_frames(self, extent) -> None:
        """Invalidate pool frames of a freed/relocated extent (its page
        numbers may be re-allocated for different content), and release
        the extent's placement pin on a sharded backing store — stale
        pins would route the re-allocated pages to the wrong shard."""
        for page in extent.pages():
            self.pool.discard(page)
        self.pool.forget_extent(extent)

    @contextmanager
    def use_pool(self, pool: BufferPool) -> Iterator[BufferPool]:
        """Temporarily route all of this organization's page traffic —
        object/unit reads and the query pager's node I/O — through a
        (typically shared, caching) buffer pool.  The workload engine
        and policy ablations use this; on exit the original pool is
        restored."""
        previous = self.pool
        self.pool = pool
        self._query_pager.pool = pool
        try:
            yield pool
        finally:
            self.pool = previous
            self._query_pager.pool = previous

    # ------------------------------------------------------------------
    # reporting helpers
    # ------------------------------------------------------------------
    def extent_of(self, oid: int) -> Extent | None:
        """The pages an object has to itself, or ``None`` when its exact
        representation is co-located with its data page."""
        return self._extents.get(oid)

    def tree_pages(self) -> int:
        """Pages occupied by the R*-tree itself."""
        return self.tree.node_count()

    def __len__(self) -> int:
        return len(self.objects)

    def pages_for(self, size_bytes: int) -> int:
        return -(-size_bytes // self.page_size)
