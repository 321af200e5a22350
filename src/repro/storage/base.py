"""Common machinery of the three organization models (Section 3.2).

Every organization owns

* an R*-tree over the objects' MBRs (the spatial access method),
* a simulated :class:`~repro.disk.DiskModel` pricing all I/O,
* the in-memory object table (the simulator never serialises payloads —
  it prices page traffic), ``objects`` by oid,
* one :class:`~repro.geometry.column.GeometryColumn`, ``column``: the
  same objects' geometry as a row each (vertices, size, polyline and
  tight flags), where every data entry's ``row`` points — what the
  filter hands on, refinement reads and the catalog writes,
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
from repro.geometry.column import GeometryColumn
from repro.geometry.feature import SpatialObject
from repro.geometry.intersect import polylines_intersect_rects
from repro.geometry.rect import Rect
from repro.iosched.request import AccessPlan
from repro.iosched.scheduler import OverlapScheduler, SyncScheduler
from repro.rtree.node import Node
from repro.rtree.pager import NodePager
from repro.rtree.rstar import RStarTree

__all__ = ["QueryResult", "SpatialOrganization"]

_NO_ROWS = np.empty(0, dtype=np.int64)
_NO_KEYS = np.empty((0, 4))
_EVERY = slice(None)


def _joined(parts: list[np.ndarray], empty: np.ndarray) -> np.ndarray:
    """``parts`` as one array: the one part itself, if it is alone."""
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else empty


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
        self._column = GeometryColumn.of([])
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

    def _request_order(self, leaf: Node, hits: np.ndarray) -> np.ndarray:
        """The positions ``hits`` of ``leaf`` (the filter's matches, in
        ascending order) in the order :meth:`_plan_group` requests their
        exact representations — the order of a query's candidates, and
        so of its answers.  Here: the entries' own order."""
        return hits

    def _plan_group(
        self,
        plan: AccessPlan,
        leaf: Node,
        hits: np.ndarray,
        window: Rect,
        selective: bool,
    ) -> None:
        """The transfer step for one data page: append to ``plan`` the
        requests that fetch the exact representations of the entries at
        positions ``hits`` of ``leaf`` (the filter's matches, in
        :meth:`_request_order`).

        ``window`` is the query region (techniques like the geometric
        threshold need it); ``selective`` marks point queries, which
        access single objects through the cluster unit's relative
        addresses instead of bulk-reading units (Sections 4.2.2/5.5).

        Here: every candidate with pages of its own costs one read
        request — in the sequential file there is no useful physical
        adjacency (Section 3.2.1's drawback), and an overflow object is
        the effect behind the primary organization's poor point-query
        behaviour for large objects (Figure 12); the others arrived with
        their data page, priced as one of the query's node visits.
        Requests follow the entries.
        """
        extents = self._extents
        if extents:
            entries = leaf.entries
            for i in hits.tolist():
                extent = extents.get(entries[i].oid)
                if extent is not None:
                    plan.read_extent(extent)

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
            obj.oid,
            obj.mbr,
            load=self._entry_load(obj),
            payload=payload,
            row=self._column.append(obj),
        )

    def delete(self, oid: int) -> SpatialObject:
        """Remove an object; the tree condenses and the organization
        reclaims (or abandons, for the sequential file) its storage."""
        obj = self.objects.get(oid)
        if obj is None:
            raise StorageError(f"unknown object id {oid}")
        self.column.delete(self.tree.delete(oid, obj.mbr).row)
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

    @property
    def column(self) -> GeometryColumn:
        """The objects' geometry column, every inserted object in its
        row (inserts queue their rows; a read fills them in one batch)."""
        return self._column.flushed()

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
        """Flush construction buffers, fill the geometry column's queued
        rows (a build's in one batch) and switch to measurement mode."""
        if self._measuring:
            return
        self._column.flushed()
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
        rectangle ``Rect(x, y, x, y)`` with ``points`` set.  A candidate
        is a row of :attr:`column` from filter to answer.

        **Answer** — :meth:`_answer`, once for all queries of the call:
        filter and refinement, which price nothing.  **Transfer** —
        :meth:`_transfer`, query by query, which prices the node visits
        and the candidates' exact representations; its I/O is the
        query's ``io``.
        """
        merge = self._batchable()
        disk = self.disk
        results = []
        for rect, (visited, groups, result) in zip(rects, self._answer(rects, points)):
            before = disk.stats()
            self._transfer(visited, groups, rect, points, merge)
            result.io = disk.stats() - before
            results.append(result)
        return results

    def _answer(
        self, rects: Sequence[Rect], points: bool
    ) -> list[tuple[list[Node], list[tuple[Node, np.ndarray]], QueryResult]]:
        """The unpriced stages of the pipeline for a batch of queries of
        one kind: per query its visited nodes, its groups (per matched
        leaf the positions of its candidates, in request order) and its
        :class:`QueryResult` but for ``io``.  Nothing here touches the
        pool, the disks or the clock, so a run without writes may answer
        all its queries before it prices any.

        **Filter** — :meth:`RStarTree.window_leaves_batch`: per query the
        visited nodes in DFS order and per matched leaf the positions of
        its matching entries, put in the order :meth:`_transfer` requests
        them (:meth:`_request_order`).  **Refine** — :meth:`_refine`,
        once over all queries of the batch.
        """
        sizes = self.column.sizes
        answers, queries = [], []
        for rect, (visited, groups) in zip(rects, self.tree.window_leaves_batch(rects)):
            groups = [(leaf, self._request_order(leaf, hits)) for leaf, hits in groups]
            rows = _joined([leaf.rows().take(order) for leaf, order in groups], _NO_ROWS)
            keys = None if points else _joined(
                [leaf.query_matrix().take(order, axis=0) for leaf, order in groups], _NO_KEYS
            )
            result = QueryResult(
                candidates=len(rows), bytes_retrieved=sum(sizes.take(rows).tolist())
            )
            queries.append((rect, result, rows, keys))
            answers.append((visited, groups, result))
        self._refine(queries, points)
        return answers

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
        groups: list[tuple[Node, np.ndarray]],
        rect: Rect,
        selective: bool,
        merge: bool,
    ) -> None:
        """Price one query's node visits and the transfer of its
        candidates' exact representations (``groups`` as
        :meth:`_answer` hands them on).  Merged, everything is one
        access plan, cut where the separate plans would have ended;
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
        for leaf, hits in groups:
            self._plan_group(plan, leaf, hits, rect, selective)
            if self._plan_per_group:
                if merge:
                    plan.cut()
                elif plan:
                    self.pool.submit(plan)
                    plan = AccessPlan(plan.label)
        if plan:
            self.pool.submit(plan)

    def _refine(self, queries: list[tuple], points: bool) -> None:
        """Exact refinement of every query of one batch — ``(rect,
        result, rows, keys)`` each: its candidates as :attr:`column`
        rows and their entries' ``query_matrix()`` rows (``None`` for a
        point query, whose candidates are all tested) — filling
        ``objects`` and ``exact_tests`` of its result.  Every decision
        is taken on row arrays; only the answers are looked up as
        objects.

        A window candidate whose MBR lies inside the window necessarily
        shares points with it and needs no test: one comparison of
        ``keys`` (``(xmin, ymin, -xmax, -ymax)`` per candidate) decides
        that for a whole query, as ``rect.contains(obj.mbr)`` would per
        candidate.  Those left pending are what ``exact_tests`` counts.
        A pending candidate with three of the four flags and a tight
        row (no ``mbr_override``) is accepted without a test: its key
        is then its geometry's MBR, whose remaining side lies in the
        window (the filter found the MBR intersecting it), so the
        vertex on that side is inside the window and the scalar
        predicate accepts it through ``contains_point``.  All pending
        polyline tests of the call go through one
        :func:`~repro.geometry.intersect.polylines_intersect_rects`
        call, which gathers their vertices from the column by row (map
        polylines have a handful of segments each, so only one call
        across candidates and queries amortizes the numpy dispatch; a
        point test is a degenerate rect intersection), all
        point-in-polygon tests through one :meth:`Polygon.contains_points`
        batch per distinct polygon; polygon/window tests keep the scalar
        predicate."""
        if not queries:
            return
        column, objects = self.column, self.objects
        decided, tested, line_rows = [], [], []
        # polygon oid -> (xs, ys, decision sinks)
        polygon_points: dict[int, tuple[list[float], list[float], list]] = {}
        for rect, result, rows, keys in queries:
            decisions = np.ones(len(rows), dtype=bool)
            if points:
                test = _EVERY  # no key: every candidate
                result.exact_tests += len(rows)
            else:
                inside = keys >= (rect.xmin, rect.ymin, -rect.xmax, -rect.ymax)
                # Four bool bytes to a row: its set bits count its flags.
                sides = np.bitwise_count(inside.view(np.uint32)).ravel()
                result.exact_tests += int(np.count_nonzero(sides < 4))
                # Three flags and a tight row: a whole side in the window.
                test = np.flatnonzero(sides + column.tight.take(rows) < 4)
            candidates = rows[test]
            line = column.lines.take(candidates) if column.polygons else None
            if line is not None and not line.all():  # polygons: scalar predicates
                test, others = np.arange(len(rows))[test], ~line
                for slot, oid in zip(
                    test[others].tolist(), column.oids.take(candidates[others]).tolist()
                ):
                    if points:
                        xs, ys, sinks = polygon_points.setdefault(oid, ([], [], []))
                        xs.append(rect.xmin)
                        ys.append(rect.ymin)
                        sinks.append((decisions, slot))
                    else:
                        decisions[slot] = objects[oid].intersects_rect(rect)
                test, candidates = test[line], candidates[line]
            decided.append(decisions)
            tested.append(test)
            line_rows.append(candidates)
        if len(queries) == 1:
            lines, window = line_rows[0], queries[0][0].as_tuple()
        else:
            lines = np.concatenate(line_rows)
            window = np.repeat(
                [rect.as_tuple() for rect, *_ in queries], list(map(len, line_rows)), axis=0
            )
        if len(lines):
            verdicts = polylines_intersect_rects(column, lines, window)
            start = 0
            for decisions, test, candidates in zip(decided, tested, line_rows):
                decisions[test] = verdicts[start:start + len(candidates)]
                start += len(candidates)
        for oid, (xs, ys, sinks) in polygon_points.items():
            verdicts = objects[oid].geometry.contains_points(xs, ys)
            for (decisions, slot), verdict in zip(sinks, verdicts.tolist()):
                decisions[slot] = verdict
        oids = column.oids
        for (_rect, result, rows, _keys), decisions in zip(queries, decided):
            result.objects = list(map(objects.__getitem__, oids.take(rows[decisions]).tolist()))

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
