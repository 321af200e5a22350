"""High-level facade: a spatial database with a pluggable organization.

:class:`SpatialDatabase` bundles the pieces a downstream user needs —
an organization model over a simulated disk, query entry points, the
spatial join, and statistics — behind one constructor.  The examples
under ``examples/`` are written exclusively against this API.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.buffer.pool import BufferPool
from repro.constants import PAGE_CAPACITY, PAGE_SIZE
from repro.core.organization import ClusterOrganization
from repro.core.policy import ClusterPolicy, smax_bytes_for
from repro.disk.allocator import PageAllocator
from repro.disk.model import DiskModel, DiskStats
from repro.disk.params import DiskParameters
from repro.errors import ConfigurationError, ObjectTooLargeError
from repro.geometry.feature import SpatialObject
from repro.geometry.polyline import Polyline
from repro.geometry.rect import Rect
from repro.iosched.admission import admission_name, make_admission
from repro.iosched.prefetch import make_prefetcher, prefetcher_name
from repro.iosched.scheduler import (
    OverlapScheduler,
    make_scheduler,
    scheduler_name,
)
from repro.join.multistep import JoinResult, spatial_join
from repro.obs.metrics import MetricsRegistry
from repro.pagestore.placement import make_placement
from repro.pagestore.store import PageStore, ShardedPageStore
from repro.pagestore.tiered import FAST_TIER_PARAMS, TieredPageStore
from repro.rtree.stats import TreeStats, tree_stats
from repro.storage.base import QueryResult, SpatialOrganization
from repro.storage.primary import PrimaryOrganization
from repro.storage.secondary import SecondaryOrganization

__all__ = ["SpatialDatabase"]


class SpatialDatabase:
    """A spatial database over one simulated disk.

    Parameters
    ----------
    organization:
        ``"cluster"`` (default, the paper's contribution),
        ``"secondary"`` or ``"primary"``.
    smax_bytes:
        Maximum cluster unit size; required for the cluster organization
        unless ``avg_object_size`` is given (then the paper's
        ``Smax = 1.5 * M * S_obj`` rule applies).
    avg_object_size:
        Expected average object size used to derive ``Smax``.
    technique:
        Window-query read technique for the cluster organization
        (``complete`` / ``threshold`` / ``slm`` / ``page`` / ``optimum``).
    buddy_sizes:
        Number of buddy sizes for cluster-unit storage (``None`` = fixed
        ``Smax`` extents; the paper's restricted system uses 3).
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
        :class:`~repro.iosched.scheduler.IOScheduler` instance —
        :meth:`attach` shares this database's instance so joined
        relations run on one virtual clock.
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
        with ``fast_pages`` / ``fast_params``, or a ready store.
        Combined with ``n_disks > 1`` each tier is itself a
        declustered :class:`~repro.pagestore.store.ShardedPageStore`
        over ``n_disks`` arms (tiering composed over sharding).
    fast_pages:
        Fast-tier budget in pages when ``tiering`` names a policy
        (default 1024).
    fast_params:
        Fast-tier :class:`~repro.disk.params.DiskParameters` (default:
        the 2 / 1 / 0.25 ms device of
        :data:`~repro.pagestore.tiered.FAST_TIER_PARAMS`).
    max_object_bytes:
        Optional hard limit on the exact-representation size of inserted
        objects; :class:`~repro.errors.ObjectTooLargeError` is raised
        beyond it.  ``None`` (default) accepts any size — the cluster
        organization stores objects beyond ``Smax`` in separate storage
        units (footnote 1 of Section 4.2.2).
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
        fast_params=None,
        page_size: int = PAGE_SIZE,
        max_entries: int = PAGE_CAPACITY,
        construction_buffer_pages: int = 256,
        max_object_bytes: int | None = None,
        name: str = "db",
        metrics: MetricsRegistry | None = None,
        _disk: "DiskModel | PageStore | None" = None,
        _allocator: PageAllocator | None = None,
    ):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if max_object_bytes is not None and max_object_bytes <= 0:
            raise ConfigurationError("max_object_bytes must be positive")
        if n_disks < 1:
            raise ConfigurationError(f"need at least one disk, got {n_disks}")
        if isinstance(tiering, TieredPageStore) and n_disks > 1:
            raise ConfigurationError(
                "a ready TieredPageStore fixes its own tier backends; "
                "compose sharded tiers by passing a migration-policy "
                "name together with n_disks > 1 instead"
            )

        def device(params: DiskParameters | None) -> PageStore:
            """The whole store, or one tier of it: ``n_disks`` arms."""
            if n_disks > 1:
                return ShardedPageStore(
                    n_disks,
                    placement=placement,
                    params=params,
                    chunk_pages=chunk_pages,
                )
            # Validate the declustering knobs on the single-disk path
            # too, so the one-disk control of an experiment fails as
            # fast as the multi-disk treatment would.
            make_placement(placement, chunk_pages)
            # The paper's setting: one disk, priced bit-identically to
            # every run before the pagestore layer existed.
            return DiskModel(params)

        if _disk is not None:
            if tiering is not None:
                raise ConfigurationError(
                    "tiering cannot be combined with an attached disk; "
                    "configure it on the owning database"
                )
            self.disk = _disk
        elif isinstance(tiering, TieredPageStore):
            self.disk = tiering
        elif tiering is None:
            self.disk = device(disk_params)
        else:
            # Each tier is a device of its own: with n_disks > 1
            # placement spreads pages within a tier while migration
            # moves them between tiers (tiering over sharding).
            self.disk = TieredPageStore(
                fast_pages,
                migration=tiering,
                metrics=self.metrics,
                fast_store=device(fast_params or FAST_TIER_PARAMS),
                capacity_store=device(disk_params),
            )
        self.allocator = _allocator or PageAllocator()
        self.max_object_bytes = max_object_bytes
        self.name = name
        self.scheduler = make_scheduler(scheduler)
        self.prefetcher = make_prefetcher(prefetch)
        if (
            isinstance(self.scheduler, OverlapScheduler)
            and self.scheduler.metrics is None
        ):
            self.scheduler.metrics = self.metrics
        self._register_device_gauges()
        admission_policy = make_admission(admission)
        if admission_policy is not None:
            if not isinstance(self.scheduler, OverlapScheduler):
                raise ConfigurationError(
                    "admission control needs scheduler='overlap' — "
                    "admission delays live on the virtual clock"
                )
            self.scheduler.admission = admission_policy
        common = dict(
            disk=self.disk,
            allocator=self.allocator,
            page_size=page_size,
            max_entries=max_entries,
            construction_buffer_pages=construction_buffer_pages,
            region_prefix=name,
            scheduler=self.scheduler,
            prefetch=self.prefetcher,
            metrics=self.metrics,
        )
        if organization == "cluster":
            if smax_bytes is None:
                if avg_object_size is None:
                    raise ConfigurationError(
                        "the cluster organization needs smax_bytes or "
                        "avg_object_size to size its cluster units"
                    )
                smax_bytes = smax_bytes_for(
                    avg_object_size, max_entries=max_entries, page_size=page_size
                )
            policy = ClusterPolicy(
                smax_bytes, buddy_sizes=buddy_sizes, page_size=page_size
            )
            self.storage: SpatialOrganization = ClusterOrganization(
                policy=policy, technique=technique, **common
            )
        elif organization == "secondary":
            self.storage = SecondaryOrganization(**common)
        elif organization == "primary":
            self.storage = PrimaryOrganization(**common)
        else:
            raise ConfigurationError(
                f"unknown organization '{organization}'; valid: "
                f"cluster, secondary, primary"
            )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def insert(self, obj: SpatialObject) -> None:
        """Insert one spatial object.

        Raises :class:`~repro.errors.ObjectTooLargeError` when a
        ``max_object_bytes`` limit is configured and exceeded.
        """
        if (
            self.max_object_bytes is not None
            and obj.size_bytes > self.max_object_bytes
        ):
            raise ObjectTooLargeError(
                f"object {obj.oid} has {obj.size_bytes} B, database limit "
                f"is {self.max_object_bytes} B"
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
            scheduler=self.scheduler,
            prefetch=self.prefetcher,
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
        phase.  Returns a :class:`~repro.workload.engine.WorkloadReport`.
        """
        from repro.workload.engine import WorkloadEngine

        pool = self._workload_pool(buffer_pages, policy)
        return WorkloadEngine(self.storage, pool).run(operations)

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
        Returns a :class:`~repro.workload.engine.SessionsReport`.
        """
        from repro.workload.engine import WorkloadEngine

        pool = self._workload_pool(buffer_pages, policy)
        return WorkloadEngine(self.storage, pool).run_sessions(
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
        :class:`~repro.workload.engine.TrafficReport` with per-class
        latency percentiles and open-loop throughput.
        """
        from repro.workload.engine import WorkloadEngine

        pool = self._workload_pool(buffer_pages, policy)
        return WorkloadEngine(self.storage, pool).run_traffic(
            sessions, admission=admission
        )

    def _workload_pool(self, buffer_pages: int, policy: str) -> BufferPool:
        """A caching pool on this database's disk, scheduler and
        prefetcher (the workload/sessions engines' shared pool)."""
        return BufferPool(
            self.disk,
            capacity=buffer_pages,
            policy=policy,
            scheduler=self.scheduler,
            prefetcher=self.prefetcher,
            allocator=self.allocator,
            metrics=self.metrics,
            metrics_label=f"{self.name}.workload",
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: str, materialize: bool = True, store=None) -> int:
        """Checkpoint this database into a file-backed page store.

        Writes the placement catalog (allocator regions, R*-tree,
        extent tables, cluster-unit bookkeeping) as checksummed pages
        under the crash-safe shadow-superblock protocol of
        :class:`~repro.pagestore.file.FilePageStore`; with
        ``materialize=True`` every allocated page of every region also
        gets a real slot in the file.  Saving onto an existing image
        commits a new epoch on top of the old one.  Returns the
        committed epoch.  See :func:`repro.storage.serial.save_database`.
        """
        from repro.storage.serial import save_database

        return save_database(self, path, materialize=materialize, store=store)

    @classmethod
    def open(
        cls,
        path: str,
        backing: str = "sim",
        page_size: int | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> "SpatialDatabase":
        """Reopen a saved database, recovering the last committed epoch.

        ``backing="sim"`` (default) rebuilds over a fresh simulated
        disk with the saved timing constants — query answers and priced
        I/O match the database that was saved.  ``backing="file"``
        keeps the file as the live backing store: reads are priced
        *and* really performed (checksum-verified) against the page
        image.  See :func:`repro.storage.serial.open_database`.
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
        close = getattr(self.disk, "close", None)
        if close is not None:
            close()

    def attach(self, name: str, **kwargs) -> "SpatialDatabase":
        """A second database (relation) on this database's disk — the
        setup a spatial join needs.  The attached database shares this
        database's I/O scheduler (one virtual clock) unless the caller
        overrides ``scheduler=``/``prefetch=``."""
        if name == self.name:
            raise ConfigurationError(
                f"attached database needs a name different from '{self.name}'"
            )
        kwargs.setdefault("scheduler", self.scheduler)
        kwargs.setdefault("prefetch", self.prefetcher)
        kwargs.setdefault("metrics", self.metrics)
        return SpatialDatabase(
            name=name, _disk=self.disk, _allocator=self.allocator, **kwargs
        )

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
        reset_sched = getattr(self.scheduler, "reset_stats", None)
        if reset_sched is not None:
            reset_sched()
        self.metrics.reset_stats()

    def io_stats(self) -> DiskStats:
        """Cumulative I/O statistics of the backing store (device time,
        summed over the disks when sharded)."""
        return self.disk.stats()

    @property
    def n_disks(self) -> int:
        """Number of independent disks behind the buffer pool."""
        return len(self.disk.disks)

    @property
    def io_scheduler(self) -> str:
        """Name of the I/O scheduler servicing access plans."""
        return scheduler_name(self.scheduler)

    @property
    def prefetch_policy(self) -> str:
        """Name of the prefetch policy ('none' when disabled)."""
        return prefetcher_name(self.prefetcher)

    @property
    def admission_policy(self) -> str:
        """Name of the scheduler's admission policy ('none' when
        disabled or under the sync scheduler)."""
        return admission_name(getattr(self.scheduler, "admission", None))

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
