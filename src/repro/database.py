"""High-level facade: a spatial database with a pluggable organization.

:class:`SpatialDatabase` bundles the pieces a downstream user needs —
an organization model over a simulated disk, query entry points, the
spatial join, and statistics — behind one constructor.  The examples
under ``examples/`` are written exclusively against this API.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Iterable, Sequence

from repro.buffer.pool import BufferPool
from repro.constants import PAGE_CAPACITY, PAGE_SIZE
from repro.core.organization import ClusterOrganization
from repro.core.policy import ClusterPolicy, smax_bytes_for
from repro.core.techniques import check_technique
from repro.disk.allocator import PageAllocator
from repro.disk.model import DiskModel, DiskStats
from repro.disk.params import DiskParameters
from repro.errors import ConfigurationError, ObjectTooLargeError
from repro.geometry.feature import SpatialObject
from repro.geometry.polyline import Polyline
from repro.geometry.rect import Rect
from repro.iosched.admission import admission_name, make_admission
from repro.iosched.prefetch import make_prefetcher
from repro.iosched.scheduler import OverlapScheduler, make_scheduler
from repro.join.multistep import JoinResult, spatial_join
from repro.obs.metrics import MetricsRegistry
from repro.pagestore.placement import make_placement
from repro.pagestore.store import PageStore, ShardedPageStore
from repro.pagestore.tiered import FAST_TIER_PARAMS, TieredPageStore
from repro.rtree.stats import TreeStats, tree_stats
from repro.storage.base import QueryResult, SpatialOrganization
from repro.storage.primary import PrimaryOrganization
from repro.storage.secondary import SecondaryOrganization

__all__ = ["SpatialDatabase", "Layout", "ORGANIZATIONS"]

#: The organization models of Sections 3.2 / 4 by name — the one place
#: that says which exist (the order is what CLI help and errors print).
ORGANIZATIONS: dict[str, type[SpatialOrganization]] = {
    "secondary": SecondaryOrganization,
    "primary": PrimaryOrganization,
    "cluster": ClusterOrganization,
}


@dataclass(frozen=True)
class Layout:
    """How one relation is laid out on its disk — the paper's parameter
    list, declared once.  The constructor, :meth:`SpatialDatabase.attach`,
    the catalog (its config block is ``asdict(layout)``) and the figure
    context all build a relation from one of these; a bad value, or one
    the named organization has no use for, raises
    :class:`~repro.errors.ConfigurationError` here, before anything is
    built."""

    #: ``"cluster"`` (default, the paper's contribution), ``"secondary"``
    #: or ``"primary"`` — a key of :data:`ORGANIZATIONS`.
    organization: str = "cluster"
    #: Maximum cluster unit size (Section 4.2), in whole pages; required
    #: for the cluster organization unless ``avg_object_size`` is given
    #: (then the paper's ``Smax = 1.5 * M * S_obj`` rule resolves it
    #: here).  Organizations without cluster units ignore both.
    smax_bytes: int | None = None
    #: Expected average object size used to derive ``Smax``.
    avg_object_size: float | None = None
    #: Window-query read technique of the cluster organization
    #: (Section 5.4: ``complete`` / ``threshold`` / ``slm`` / ``page`` /
    #: ``optimum``, and ``adaptive``); cluster only.
    technique: str = "complete"
    #: Number of buddy sizes for cluster-unit storage (Section 5.3.1;
    #: ``None`` = fixed ``Smax`` extents, the paper's restricted system
    #: uses 3); cluster only.
    buddy_sizes: int | None = None
    #: Page size in bytes and page capacity ``M`` (Section 5.1).
    page_size: int = PAGE_SIZE
    max_entries: int = PAGE_CAPACITY
    #: Write-back buffer of the construction phase, in pages.
    construction_buffer_pages: int = 256
    #: Optional hard limit on the exact-representation size of inserted
    #: objects; :class:`~repro.errors.ObjectTooLargeError` is raised
    #: beyond it.  ``None`` (default) accepts any size — the cluster
    #: organization stores objects beyond ``Smax`` in separate storage
    #: units (footnote 1 of Section 4.2.2).
    max_object_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.organization not in ORGANIZATIONS:
            raise ConfigurationError(
                f"unknown organization '{self.organization}'; valid: "
                f"{', '.join(ORGANIZATIONS)}"
            )
        for knob, least in (
            ("page_size", 1),
            ("max_entries", 2),
            ("construction_buffer_pages", 0),
        ):
            if getattr(self, knob) < least:
                raise ConfigurationError(
                    f"{knob} must be >= {least}, got {getattr(self, knob)}"
                )
        if self.max_object_bytes is not None and self.max_object_bytes <= 0:
            raise ConfigurationError("max_object_bytes must be positive")
        check_technique(self.technique)
        if self.organization != "cluster":
            if self.technique != "complete" or self.buddy_sizes is not None:
                raise ConfigurationError(
                    "technique and buddy_sizes configure cluster units; the "
                    f"{self.organization} organization has none"
                )
            return
        if self.smax_bytes is None:
            if self.avg_object_size is None:
                raise ConfigurationError(
                    "the cluster organization needs smax_bytes or "
                    "avg_object_size to size its cluster units"
                )
            smax = smax_bytes_for(
                self.avg_object_size, self.max_entries, page_size=self.page_size
            )
            object.__setattr__(self, "smax_bytes", smax)
        self.policy  # its checks: Smax in whole pages, buddy_sizes >= 1

    @property
    def policy(self) -> ClusterPolicy:
        """The cluster-unit policy this layout describes."""
        return ClusterPolicy(
            self.smax_bytes, buddy_sizes=self.buddy_sizes, page_size=self.page_size
        )

    def build(
        self, name, store, allocator, scheduler, prefetcher, metrics
    ) -> SpatialOrganization:
        """This layout's organization over ready parts — the one place
        an organization class is instantiated."""
        units = {}
        if self.organization == "cluster":
            units = dict(policy=self.policy, technique=self.technique)
        return ORGANIZATIONS[self.organization](
            disk=store,
            allocator=allocator,
            page_size=self.page_size,
            max_entries=self.max_entries,
            construction_buffer_pages=self.construction_buffer_pages,
            region_prefix=name,
            scheduler=scheduler,
            prefetch=prefetcher,
            metrics=metrics,
            **units,
        )


class SpatialDatabase:
    """A spatial database over one simulated disk.

    Parameters
    ----------
    organization, smax_bytes, avg_object_size, technique, buddy_sizes,
    page_size, max_entries, construction_buffer_pages, max_object_bytes:
        The relation's :class:`Layout`, field by field — see there.
    disk_params:
        Disk timing constants (defaults to the paper's 9/6/1 ms disk).
    n_disks:
        Number of independent disks.  ``1`` (default) keeps the paper's
        single :class:`~repro.disk.model.DiskModel` with bit-identical
        pricing; ``> 1`` puts a declustered
        :class:`~repro.pagestore.store.ShardedPageStore` behind the
        buffer pool, so *all* page traffic — organizations, R*-tree
        pager and spatial join — runs over parallel disks.
    placement:
        Declustering placement policy of the sharded store
        (``spatial`` (default) / ``round_robin`` / ``hash``); ignored
        when ``n_disks == 1``.
    chunk_pages:
        Declustering chunk granularity for pages no storage manager
        pins explicitly (``None`` = the pagestore default).
    scheduler:
        I/O scheduler servicing submitted access plans: ``"sync"``
        (default — immediate in-order execution, bit-identical to the
        paper's pricing) or ``"overlap"`` (simulated asynchronous
        completion on a virtual clock: requests overlap across disks
        and across concurrent client sessions).  Also accepts a ready
        :class:`~repro.iosched.scheduler.IOScheduler` instance.
    prefetch:
        Read-ahead policy fed by the coalescing scheduler's runs:
        ``None``/``"none"`` (default — no prefetching; keeps figures
        bit-identical), ``"sequential"`` or ``"cluster"`` (see
        :mod:`repro.iosched.prefetch`).  Prefetching needs a caching
        pool; the organizations' pass-through measurement pools skip
        it, the workload/sessions pools use it.
    admission:
        Admission-control policy shaping when client operations
        dispatch on the virtual clock: ``None``/``"none"`` (default),
        ``"token-bucket"`` or ``"priority"`` (see
        :mod:`repro.iosched.admission`), or a ready
        :class:`~repro.iosched.admission.AdmissionPolicy`.  Needs
        ``scheduler="overlap"`` — admission delays live on the virtual
        clock.  :meth:`run_sessions` can also set a policy per run.
    tiering:
        Tiered storage behind the buffer pool: ``None`` (default — the
        paper's single disk, bit-identical pricing), a migration-policy
        name (``"static"`` / ``"promote-on-hit"`` / ``"lru-demote"``)
        building a :class:`~repro.pagestore.tiered.TieredPageStore`
        whose fast tier holds ``fast_pages`` pages of the 2 / 1 /
        0.25 ms device of
        :data:`~repro.pagestore.tiered.FAST_TIER_PARAMS`, or a ready
        store.  Combined with ``n_disks > 1`` each tier is itself a
        declustered :class:`~repro.pagestore.store.ShardedPageStore`
        over ``n_disks`` arms (tiering composed over sharding).
    fast_pages:
        Fast-tier budget in pages when ``tiering`` names a policy
        (default 1024).
    name:
        Region prefix — give two databases on one shared disk distinct
        names (see :meth:`attach`).
    metrics:
        Optional shared :class:`~repro.obs.metrics.MetricsRegistry`
        every layer publishes into (``pool.*``, ``prefetch.*``,
        ``sched.*``, ``tier.*``, ``store.device_ms``).  ``None``
        (default) creates a fresh registry per database;
        :meth:`attach` shares it with the attached relation.

    Example
    -------
    >>> db = SpatialDatabase(avg_object_size=625)
    >>> db.insert_polyline(1, [(0, 0), (10, 10)])
    >>> db.finalize()
    >>> [o.oid for o in db.window_query(0, 0, 20, 20).objects]
    [1]
    """

    def __init__(
        self,
        organization: str = "cluster",
        smax_bytes: int | None = None,
        avg_object_size: float | None = None,
        technique: str = "complete",
        buddy_sizes: int | None = None,
        disk_params: DiskParameters | None = None,
        n_disks: int = 1,
        placement: str = "spatial",
        chunk_pages: int | None = None,
        scheduler="sync",
        prefetch=None,
        admission=None,
        tiering=None,
        fast_pages: int = 1024,
        page_size: int = PAGE_SIZE,
        max_entries: int = PAGE_CAPACITY,
        construction_buffer_pages: int = 256,
        max_object_bytes: int | None = None,
        name: str = "db",
        metrics: MetricsRegistry | None = None,
    ):
        layout = Layout(
            organization,
            smax_bytes,
            avg_object_size,
            technique,
            buddy_sizes,
            page_size,
            max_entries,
            construction_buffer_pages,
            max_object_bytes,
        )
        metrics = metrics if metrics is not None else MetricsRegistry()
        if n_disks < 1:
            raise ConfigurationError(f"need at least one disk, got {n_disks}")
        if fast_pages < 1:
            raise ConfigurationError(f"fast_pages must be >= 1, got {fast_pages}")
        if isinstance(tiering, TieredPageStore) and n_disks > 1:
            raise ConfigurationError(
                "a ready TieredPageStore fixes its own tier backends; "
                "compose sharded tiers by passing a migration-policy "
                "name together with n_disks > 1 instead"
            )
        # The declustering knobs are checked on the single-disk path
        # too, so the one-disk control of an experiment fails as fast
        # as the multi-disk treatment would.
        make_placement(placement, chunk_pages)
        scheduler = make_scheduler(scheduler)
        prefetcher = make_prefetcher(prefetch)
        admission = make_admission(admission)
        if isinstance(scheduler, OverlapScheduler):
            if scheduler.metrics is None:
                scheduler.metrics = metrics
            if admission is not None:
                scheduler.admission = admission
        elif admission is not None:
            raise ConfigurationError(
                "admission control needs scheduler='overlap' — "
                "admission delays live on the virtual clock"
            )

        def device(params: DiskParameters | None) -> PageStore:
            """The whole store, or one tier of it: ``n_disks`` arms —
            one is the paper's setting, a single disk priced
            bit-identically to every run before the pagestore layer."""
            if n_disks == 1:
                return DiskModel(params)
            return ShardedPageStore(
                n_disks, placement=placement, params=params, chunk_pages=chunk_pages
            )

        if isinstance(tiering, TieredPageStore):
            store: PageStore = tiering
        elif tiering is None:
            store = device(disk_params)
        else:
            # Each tier is a device of its own: with n_disks > 1
            # placement spreads pages within a tier while migration
            # moves them between tiers (tiering over sharding).
            store = TieredPageStore(
                fast_pages,
                migration=tiering,
                metrics=metrics,
                fast_store=device(FAST_TIER_PARAMS),
                capacity_store=device(disk_params),
            )
        self._assemble(
            layout, name, store, PageAllocator(), scheduler, prefetcher, metrics
        )

    def _assemble(
        self, layout: Layout, name, store, allocator, scheduler, prefetcher, metrics
    ) -> "SpatialDatabase":
        """Where every builder ends — the constructor, :meth:`attach`
        and the catalog loader: one relation laid out by ``layout``
        over ready parts."""
        self._layout = layout
        self.name = name
        self.disk = store
        self.allocator = allocator
        self.scheduler = scheduler
        self.prefetcher = prefetcher
        self.metrics = metrics
        self._register_device_gauges()
        self.storage = layout.build(
            name, store, allocator, scheduler, prefetcher, metrics
        )
        return self

    @classmethod
    def _from_parts(cls, *parts) -> "SpatialDatabase":
        """A database straight from :meth:`_assemble`'s parts — the
        private entry of every builder that is not the constructor."""
        return cls.__new__(cls)._assemble(*parts)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def insert(self, obj: SpatialObject) -> None:
        """Insert one spatial object.

        Raises :class:`~repro.errors.ObjectTooLargeError` when a
        ``max_object_bytes`` limit is configured and exceeded.
        """
        limit = self._layout.max_object_bytes
        if limit is not None and obj.size_bytes > limit:
            raise ObjectTooLargeError(
                f"object {obj.oid} has {obj.size_bytes} B, database limit is {limit} B"
            )
        self.storage.insert(obj)

    def insert_polyline(
        self,
        oid: int,
        vertices: Sequence[tuple[float, float]],
        size_bytes: int | None = None,
    ) -> SpatialObject:
        """Convenience: build and insert a polyline object."""
        obj = SpatialObject(oid, Polyline(vertices), size_bytes=size_bytes)
        self.insert(obj)
        return obj

    def build(self, objects: Iterable[SpatialObject]) -> DiskStats:
        """Bulk-insert (one by one, unsorted — Section 5.2) and
        finalize; returns the construction I/O statistics."""
        return self.storage.build(list(objects))

    def finalize(self) -> None:
        """Flush construction buffers and switch to measurement mode."""
        self.storage.finalize_build()

    def delete(self, oid: int) -> SpatialObject:
        """Remove an object by id."""
        return self.storage.delete(oid)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def window_query(
        self, xmin: float, ymin: float, xmax: float, ymax: float
    ) -> QueryResult:
        """All objects sharing points with the window (Section 2)."""
        return self.storage.window_query(Rect(xmin, ymin, xmax, ymax))

    def point_query(self, x: float, y: float) -> QueryResult:
        """All objects geometrically containing the point (Section 2)."""
        return self.storage.point_query(x, y)

    def join(
        self,
        other: "SpatialDatabase",
        buffer_pages: int = 1600,
        technique: str = "complete",
        evaluate_exact: bool = False,
        policy: str = "lru",
    ) -> JoinResult:
        """Intersection join with another database on the same disk."""
        return spatial_join(
            self.storage,
            other.storage,
            buffer_pages=buffer_pages,
            technique=technique,
            evaluate_exact=evaluate_exact,
            policy=policy,
        )

    # ------------------------------------------------------------------
    # batched workloads
    # ------------------------------------------------------------------
    def run_workload(
        self,
        operations,
        buffer_pages: int = 1600,
        policy: str = "lru",
    ):
        """Execute a batched mixed operation stream through one shared
        buffer pool and report per-phase I/O statistics and hit rates.

        ``operations`` is an iterable of tuples — see
        :data:`repro.workload.engine.OP_KINDS` for the formats
        (``("window", Rect)``, ``("point", x, y)``,
        ``("insert", SpatialObject)``, ``("delete", oid)``,
        ``("join", other_db[, technique])``).  All phases — queries,
        updates and joins — compete for the same ``buffer_pages`` frames
        under the chosen replacement ``policy``; dirty pages are written
        back with coalesced vectored transfers in a final ``flush``
        phase.  Returns a :class:`~repro.workload.engine.RunReport` of
        ``run="workload"``: one row per operation kind.
        """
        return self._engine(buffer_pages, policy).run(operations)

    def run_sessions(
        self,
        sessions,
        buffer_pages: int = 1600,
        policy: str = "lru",
        admission=None,
    ):
        """Execute several client operation streams as interleaved
        concurrent sessions over one shared buffer pool.

        ``sessions`` maps client names to operation streams (same
        tuple formats as :meth:`run_workload`).  The interleaving is
        deterministic round-robin.  Under ``scheduler="overlap"`` the
        clients share the virtual clock's per-disk service queues, so
        a declustered store overlaps their I/O and the report's
        ``makespan_ms`` drops below the serial response time; under
        the default ``sync`` scheduler the same stream executes
        serially.  ``admission`` applies an admission-control policy
        for this run only (name, instance, or ``None`` to keep the
        scheduler's own policy); the report's per-client table carries
        each session's queueing delay and latency percentiles.
        Returns a :class:`~repro.workload.engine.RunReport` of
        ``run="sessions"``: the per-phase rows plus one row per client.
        """
        return self._engine(buffer_pages, policy).run_sessions(
            sessions, admission=admission
        )

    def run_traffic(
        self,
        sessions,
        buffer_pages: int = 1600,
        policy: str = "lru",
        admission=None,
    ):
        """Drive generated traffic — a list of
        :class:`~repro.workload.traffic.TrafficSession` with arrival
        times and think times — through the overlap scheduler's virtual
        clock.

        Unlike :meth:`run_sessions` (round-robin over a handful of
        scripted clients), operations become ready by *arrival time*:
        open-loop sessions dispatch when they arrive whether or not the
        system kept up, closed-loop sessions pace themselves with think
        time.  Requires ``scheduler="overlap"``.  ``admission`` applies
        an admission-control policy for this run only.  Returns a
        :class:`~repro.workload.engine.RunReport` of ``run="traffic"``:
        the per-phase rows plus one row per traffic class with its latency
        percentiles, and open-loop throughput.
        """
        return self._engine(buffer_pages, policy).run_traffic(
            sessions, admission=admission
        )

    def _workload_pool(self, buffer_pages: int, policy: str) -> BufferPool:
        """The workload/sessions engines' shared pool: a caching sibling
        of the query pool."""
        return self.storage.pool.sibling(
            buffer_pages, policy, label=f"{self.name}.workload"
        )

    def _engine(self, buffer_pages: int, policy: str):
        """The workload engine over a fresh workload pool."""
        from repro.workload.engine import WorkloadEngine

        return WorkloadEngine(self.storage, self._workload_pool(buffer_pages, policy))

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: str, store=None) -> int:
        """Checkpoint this database into a file-backed page store.

        Writes the placement catalog (allocator regions, R*-tree,
        extent tables, cluster-unit bookkeeping) as checksummed pages
        under the crash-safe shadow-superblock protocol of
        :class:`~repro.pagestore.file.FilePageStore`; every allocated
        page of every region also gets a real slot in the file.  Saving onto an existing image
        commits a new epoch on top of the old one.  Returns the
        committed epoch.  See :func:`repro.storage.serial.save_database`.
        """
        from repro.storage.serial import save_database

        return save_database(self, path, store=store)

    @classmethod
    def open(
        cls,
        path: str,
        backing: str = "sim",
        page_size: int | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> "SpatialDatabase":
        """Reopen a saved database, recovering the last committed epoch.

        An image holds the relation's :class:`Layout`, its placement
        catalog and the disk's timing constants.  Devices, scheduler,
        prefetcher and admission belong to whoever opens it: the
        reopened database is single-disk and ``sync``, so its answers
        match the database that was saved and its priced I/O matches a
        single-disk database with those constants.  ``backing="sim"``
        (default) rebuilds over a fresh simulated disk;
        ``backing="file"`` keeps the file as the live backing store:
        reads are priced *and* really performed (checksum-verified)
        against the page image.  See
        :func:`repro.storage.serial.open_database`.
        """
        from repro.storage.serial import open_database

        return open_database(
            path, backing=backing, page_size=page_size, metrics=metrics
        )

    def close(self) -> None:
        """Release the backing store's file descriptor, if it has one.

        A no-op on simulated stores; required for databases opened with
        ``backing="file"`` (nothing is flushed — durability comes from
        :meth:`save`, never from ``close``).
        """
        self.disk.close()

    def attach(self, name: str, **knobs) -> "SpatialDatabase":
        """A second database (relation) on this database's disk — the
        setup a spatial join needs (Section 6.1).  ``knobs`` are the
        fields of the relation's :class:`Layout`; disk, allocator,
        scheduler (one virtual clock), prefetcher and metrics registry
        are this database's own, so no device or I/O-path knob is
        accepted here."""
        if name == self.name:
            raise ConfigurationError(
                f"attached database needs a name different from '{self.name}'"
            )
        stray = knobs.keys() - {field.name for field in fields(Layout)}
        if stray:
            raise ConfigurationError(
                f"attach() takes the relation's layout only; {sorted(stray)} "
                f"configure the disk and I/O path '{self.name}' already owns"
            )
        parts = self.disk, self.allocator, self.scheduler, self.prefetcher, self.metrics
        return self._from_parts(Layout(**knobs), name, *parts)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.storage)

    def _register_device_gauges(self) -> None:
        """Publish live device-time views (``store.device_ms``) into the
        metrics registry: the aggregate plus, over several devices, one
        per arm under the store's ``device_labels()``."""
        store = self.disk
        self.metrics.gauge("store.device_ms", lambda: store.total_ms)
        if len(store.disks) == 1:
            return
        for device, label in zip(store.disks, store.device_labels()):
            self.metrics.gauge(
                "store.device_ms",
                (lambda dev: lambda: dev.total_ms)(device),
                disk=label,
            )

    def reset_stats(self) -> None:
        """Zero statistics across every layer — disk(s), the query
        pool, the scheduler's queueing delays and the metrics registry's
        counters/histograms — without touching operational state (head
        positions, residency, tier placement, the virtual clock, open
        trace spans).  The unified mid-run reset."""
        self.disk.reset_stats()
        self.storage.pool.reset_stats()
        self.scheduler.reset_stats()
        self.metrics.reset_stats()

    @property
    def layout(self) -> Layout:
        """This relation's :class:`Layout` as it stands: the figure
        drivers switch ``storage.technique`` on a built organization,
        so the technique is read live."""
        if isinstance(self.storage, ClusterOrganization):
            return replace(self._layout, technique=self.storage.technique)
        return self._layout

    def io_stats(self) -> DiskStats:
        """Cumulative I/O statistics of the backing store (device time,
        summed over the disks when sharded)."""
        return self.disk.stats()

    @property
    def n_disks(self) -> int:
        """Number of independent disks behind the buffer pool."""
        return len(self.disk.disks)

    @property
    def admission_policy(self) -> str:
        """Name of the scheduler's admission policy ('none' when
        disabled or under the sync scheduler)."""
        return admission_name(self.scheduler.admission)

    @property
    def tiering(self) -> str:
        """Migration policy of the tiered page store ('none' on a
        flat single- or multi-disk store)."""
        if isinstance(self.disk, TieredPageStore):
            return self.disk.migration
        return "none"

    def occupied_pages(self) -> int:
        return self.storage.occupied_pages()

    def tree_stats(self) -> TreeStats:
        return tree_stats(self.storage.tree)
