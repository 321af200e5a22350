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
from itertools import accumulate
from operator import attrgetter
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

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
from repro.rtree.rstar import Reach, RStarTree

__all__ = ["QueryResult", "SpatialOrganization"]

_NO_ROWS = np.empty(0, dtype=np.int64)
_NO_KEYS = np.empty((0, 4))
_NO_SIDES = np.empty(0, dtype=np.uint8)
_EVERY = slice(None)

#: Candidates one :meth:`SpatialOrganization._refine` call takes, about:
#: a gather and refinement allocate per candidate (its row, sides and
#: query, sorted, and the windows of those left pending), so a block
#: that hits more is refined in slices of consecutive queries.  200
#: windows of 10 % on A-1 at scale 0.3 (1.52M candidates) peak at 41.7
#: MiB under ``tracemalloc`` refined in slices, at 62.3 MiB refined
#: whole.
#: ``traffic_open``'s 207 windows (54,317 candidates) are one slice.
_REFINE_ROWS = 65_536

#: The query index of a block's candidate, while 16 bits hold it: the
#: stable sort by query is then a radix sort.
_OWNER = np.uint16


def _check_tiled(region: Region, held: list[Extent], packed: bool = False) -> None:
    """Raise :class:`StorageError` unless ``held`` and the free list tile
    the pages ``region`` handed out, each page once; in a ``packed``
    file neighbours may share a page and a page may be neither."""
    end, top = region.base, region.base + region.high_water_pages
    for extent in sorted(held + region._free, key=attrgetter("start")):
        if extent.start < end - packed:
            raise StorageError(f"page {extent.start} of region {region.name!r} is held twice")
        if extent.start > end and not packed:
            raise StorageError(f"page {end} of region {region.name!r} is neither held nor free")
        end = max(end, extent.end)
    if end > top or (end < top and not packed):
        raise StorageError(f"region {region.name!r} is held up to page {end}, not {top}")


def _sides(keys: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Per candidate key ``(xmin, ymin, -xmax, -ymax)``, how many of its
    window's sides it lies within — ``bounds`` holds the window's
    ``(xmin, ymin, -xmax, -ymax)``, one row, or one per key; four where
    the window contains the key's rectangle."""
    # Four bool bytes to a row: its set bits count its flags.
    return np.bitwise_count((keys >= bounds).view(np.uint32)).ravel()


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


class _Answer(NamedTuple):
    """One query answered, unpriced (:meth:`SpatialOrganization.
    _answer`): what pricing it needs — its visited nodes and its leaf
    groups, ``(leaf, positions)`` each in request order — its answers as
    :attr:`~SpatialOrganization.column` rows in answer order (a slice of
    its block's array), and the :class:`QueryResult` counters."""

    visited: list[Node]
    groups: list[tuple[Node, np.ndarray]]
    rows: np.ndarray
    candidates: int
    bytes_retrieved: int
    exact_tests: int


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

    #: True when objects live in cluster units that
    #: :class:`~repro.reorg.Reorganizer` can repack (the cluster
    #: organization).
    reorganizable: bool = False

    #: Names of the instance scalars the catalog's ``storage`` block
    #: keeps for this organization (:mod:`repro.storage.serial`).
    _catalog_scalars: tuple[str, ...] = ()

    #: Where own extents are allocated; every subclass claims one.
    _own_region: Region

    #: Own extents byte-packed, never reclaimed (secondary): see ``_check_tiled``.
    _byte_packed: bool = False

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

    def _request_order(self, reach: Reach) -> Reach:
        """``reach`` with each data page's positions, query by query, in
        the order :meth:`_plan_group` requests their exact
        representations — the order of a query's candidates, and so of
        its answers.  Here: the entries' own order."""
        return reach

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
            obj.oid, obj.mbr, self._entry_load(obj), payload, self._column.append(obj)
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
        query's ``io``.  Only here do a query's answer rows become
        objects.
        """
        merge = self._batchable()
        disk, objects, oids = self.disk, self.objects, self.column.oids
        results = []
        for rect, answer in zip(rects, self._answer(rects, points)):
            before = disk.stats()
            self._transfer(answer.visited, answer.groups, rect, points, merge)
            results.append(QueryResult(
                list(map(objects.__getitem__, oids.take(answer.rows).tolist())),
                answer.candidates,
                answer.bytes_retrieved,
                disk.stats() - before,
                answer.exact_tests,
            ))
        return results

    def _answer(self, rects: Sequence[Rect], points: bool) -> list[_Answer]:
        """The unpriced stages of the pipeline for a batch of queries of
        one kind: per query an :class:`_Answer`.  Nothing here touches
        the pool, the disks or the clock, so a run without writes may
        answer all its queries before it prices any.

        **Filter** — one block traversal of all of ``rects``
        (:meth:`RStarTree._reach`), with every data page's positions in
        the order :meth:`_transfer` requests them (:meth:`_request_order`).
        **Gather and refine** — :meth:`_answer_block`, once, or, when
        the block hits more than :data:`_REFINE_ROWS` entries, once per
        slice of consecutive queries cut where the hits pass a multiple
        of :data:`_REFINE_ROWS` (a slice's data pages by query, each a
        view of the traversal's positions).
        """
        reach = self._request_order(self.tree._reach(rects))
        ends, answers, first = [len(rects)], [], 0
        if reach.hits > _REFINE_ROWS:
            groups = reach.groups()
            held = [0, *accumulate(sum(len(hits) for _leaf, hits in query) for query in groups)]
            cuts = np.searchsorted(held, range(_REFINE_ROWS, reach.hits, _REFINE_ROWS)).tolist()
            ends = sorted({*cuts, len(rects)})
        for end in ends:
            part = reach if len(ends) == 1 else Reach(reach.visited[first:end], [
                (leaf, hits, [(q - first, len(hits))]) for q in range(first, end) for leaf, hits in groups[q]
            ], held[end] - held[first])
            answers += self._answer_block(rects[first:end], part, points)
            first = end
        return answers

    def _answer_block(self, rects: Sequence[Rect], reach: Reach, points: bool) -> list[_Answer]:
        """Gather and refine the queries ``rects`` as one block, ``reach``
        their traversal.  One gather per data page reached: its
        candidates' rows and, for windows, their keys, which a comparison
        with each candidate's window turns into its sides (one byte a
        candidate; the keys are dropped, page by page in a block of
        several queries).  Then the candidates are ordered query by
        query (a stable radix sort on the query: within a query the order
        is its own traversal's), so each query's candidates, and its
        answers, are one slice of the block's arrays, and :meth:`_refine`
        decides them."""
        n, leaves = len(rects), reach.leaves
        rows = _joined([leaf.rows().take(hits) for leaf, hits, _runs in leaves], _NO_ROWS)
        column, owners, sides = self.column, None, None
        if n != 1:  # several queries, or none
            runs = [run for _leaf, _hits, leaf_runs in leaves for run in leaf_runs]
            owners = np.repeat(
                np.array(
                    [query for query, _count in runs],
                    dtype=_OWNER if n <= np.iinfo(_OWNER).max + 1 else np.int64,
                ),
                [count for _query, count in runs],
            )
        if not points:
            low = np.array([(r.xmin, r.ymin, -r.xmax, -r.ymax) for r in rects])
            if owners is None:  # one query: all its keys at once
                keys = [leaf.query_matrix().take(hits, axis=0) for leaf, hits, _runs in leaves]
                sides = _sides(_joined(keys, _NO_KEYS), low[0])
            else:  # page by page: a block's keys are never held at once
                sides = []
                for leaf, hits, runs in leaves:
                    bounds = low[runs[0][0]] if len(runs) == 1 else np.repeat(
                        low.take([query for query, _count in runs], axis=0),
                        [count for _query, count in runs],
                        axis=0,
                    )
                    sides.append(_sides(leaf.query_matrix().take(hits, axis=0), bounds))
                sides = _joined(sides, _NO_SIDES)
        if owners is None:
            accepted, tests = self._refine((rects, None, rows, sides), points)
            return [_Answer(
                reach.visited[0], [(leaf, hits) for leaf, hits, _runs in leaves], rows[accepted],
                len(rows), sum(column.sizes.take(rows).tolist()), tests[0],
            )]
        order = np.argsort(owners, kind="stable")
        owners, rows = owners.take(order), rows.take(order)
        if sides is not None:
            sides = sides.take(order)
        del order  # eight bytes a candidate, not needed through the refinement
        ends = [0, *np.bincount(owners, minlength=n).cumsum().tolist()]
        paid = np.concatenate(([0], column.sizes.take(rows).cumsum())).take(ends).tolist()
        accepted, tests = self._refine((rects, owners, rows, sides), points)
        kept, groups = rows[accepted], reach.groups()
        tops = [0, *np.bincount(owners[accepted], minlength=n).cumsum().tolist()]
        return [
            _Answer(
                reach.visited[q], groups[q], kept[tops[q]:tops[q + 1]],
                ends[q + 1] - ends[q], paid[q + 1] - paid[q], tests[q],
            )
            for q in range(n)
        ]

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

    def _refine(self, candidates: tuple, points: bool) -> tuple[np.ndarray, list[int]]:
        """Exact refinement of one block of queries of one kind: per
        candidate whether it is an answer, and per query its
        ``exact_tests``.  ``candidates`` is ``(rects, owners, rows,
        sides)``: candidate ``i`` is :attr:`column` row ``rows[i]`` of
        query ``rects[owners[i]]`` (of the only query when ``owners`` is
        ``None``), and ``sides[i]`` counts the sides of that window its
        entry's MBR lies within (:func:`_sides`; ``None`` for point
        queries, whose candidates are all tested).  Every decision is
        taken on row arrays.

        A window candidate whose MBR lies inside the window necessarily
        shares points with it and needs no test: its ``sides`` count
        says so (four), as ``rect.contains(obj.mbr)`` would.  Those left
        pending are what ``exact_tests`` counts.  A pending candidate
        with three sides and a tight row (no ``mbr_override``) is
        accepted without a test: its key is then its geometry's MBR,
        whose remaining side lies in the window (the filter found the
        MBR intersecting it), so the vertex on that side is inside the
        window and the scalar predicate accepts it through
        ``contains_point``.  All pending tests of the block go through
        one :func:`~repro.geometry.intersect.polylines_intersect_rects`
        call, which gathers their vertices from the column by row (map
        polylines have a handful of segments each, so only one call
        across candidates and queries amortizes the numpy dispatch; a
        point test is a degenerate rect intersection)."""
        rects, owners, rows, sides = candidates
        column, n = self.column, len(rects)
        if points:
            test = _EVERY  # no sides: every candidate
            tests = [len(rows)] if owners is None else np.bincount(owners, minlength=n).tolist()
        else:
            tested = sides < 4
            tests = (
                [int(np.count_nonzero(tested))] if owners is None
                else np.bincount(owners[tested], minlength=n).tolist()
            )
            # Three sides and a tight row: a whole side in the window.
            test = np.flatnonzero(sides + column.tight.take(rows) < 4)
        accepted = np.ones(len(rows), dtype=bool)
        pending = rows[test]
        if len(pending):
            if owners is None:
                window = rects[0].as_tuple()
            else:
                window = np.array([r.as_tuple() for r in rects]).take(owners[test], axis=0)
            accepted[test] = polylines_intersect_rects(column, pending, window)
        return accepted, tests

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

    def check(self) -> None:
        """:meth:`RStarTree.check` (a :class:`TreeError`), then raise
        :class:`StorageError` unless the column holds the object table
        as the entries say; each object is in one place (own extent,
        unit or page); node pages and own extents tile their regions
        with the free lists.  Flushes queued appends, fills no cache."""
        self.tree.check()
        column, objects, extents = self.column, self.objects, self._extents
        if column.oids.take(column.live()).tolist() != list(objects):
            raise StorageError("the column's live rows are not the object table")
        if not extents.keys() <= objects.keys():
            raise StorageError("an extent row outlives its object")
        seen: list[int] = []
        for leaf in self.tree.leaves():
            in_unit = leaf.tag.live if leaf.tag is not None else {}
            if leaf._rows is not None and leaf._rows.tolist() != [e.row for e in leaf.entries]:
                raise StorageError(f"data page {leaf.node_id} caches stale rows")
            for entry in leaf.entries:
                oid, row = entry.oid, entry.row
                if oid not in objects or not 0 <= row < column.n_rows or column.oids[row] != oid:
                    raise StorageError(f"object {oid}'s entry points at row {row}, not its own")
                obj, start, count = objects[oid], column.starts[row], column.counts[row]
                if (
                    column.vertices[start:start + count].tolist() != obj.geometry.coords().tolist()
                    or column.sizes[row] != obj.size_bytes
                    or column.tight[row] != (obj.mbr_override is None)
                    or column.boxes[row].tolist() != list(obj.geometry.mbr.as_tuple())
                ):
                    raise StorageError(f"row {row} does not hold object {oid}")
                inline = self._page_holds_objects and entry.load == ENTRY_SIZE + obj.size_bytes
                places = (oid in extents) + (oid in in_unit) + inline
                if places != 1:
                    raise StorageError(f"object {oid} is stored in {places} places")
                seen.append(oid)
            if len(in_unit) != sum(e.oid in in_unit for e in leaf.entries):
                raise StorageError(f"data page {leaf.node_id}'s unit holds others' objects")
        if sorted(seen) != sorted(objects):
            raise StorageError("the data entries are not the object table")
        if column._by_oid is not None:  # the oid index, where one is kept
            rows = column.rows_of(np.array(seen, dtype=np.int64))
            if column.oids.take(rows).tolist() != seen:
                raise StorageError("the column's oid index is stale")
        _check_tiled(self._query_pager.region, [Extent(n.page, 1) for n in self.tree.nodes()])
        _check_tiled(self._own_region, list(extents.values()), self._byte_packed)
