"""API-surface and edge-case tests: exports, error hierarchy, paper
constants, and odd corners of the public classes."""

from __future__ import annotations

import pytest

import repro
from repro import constants
from repro.errors import (
    AllocationError,
    ConfigurationError,
    DiskError,
    GeometryError,
    ObjectTooLargeError,
    ReproError,
    StorageError,
    TreeError,
)


class TestPaperConstants:
    def test_page_capacity_is_89(self):
        # 4096 / 46 = 89 entries per page (Section 5.1).
        assert constants.PAGE_CAPACITY == 89

    def test_disk_triple(self):
        assert constants.SEEK_TIME_MS > constants.LATENCY_TIME_MS > (
            constants.TRANSFER_TIME_MS
        )

    def test_smax_rule_average_entries(self):
        # "an average of 58 objects per cluster unit will be clustered"
        # for 4 KB pages, 46 B entries and 66 % utilization.
        assert int(constants.PAGE_CAPACITY * 0.66) == 58

    def test_exact_test_cost(self):
        assert constants.EXACT_TEST_MS == 0.75


class TestExports:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_version(self):
        assert repro.__version__

    def test_star_import_namespace(self):
        namespace: dict = {}
        exec("from repro import *", namespace)
        assert "SpatialDatabase" in namespace
        assert "RStarTree" in namespace


    def test_surface_shrunk_on_purpose(self):
        """Gone since ISSUE 21: the unused [SK91] segment grid, the
        imperative twins of the ``plan_*`` builders, and the four
        per-organization accessors ``extent_of`` replaces (the technique
        lists themselves are pinned under ``TestEdgeCases``).  ISSUE 22's
        removals follow below."""
        import repro.core
        import repro.geometry
        from repro.core.organization import ClusterOrganization
        from repro.storage.primary import PrimaryOrganization
        from repro.storage.secondary import SecondaryOrganization

        assert not hasattr(repro.geometry, "DecomposedObject")
        assert "ExactTestCounter" in repro.geometry.__all__
        for name in ("read_complete", "read_per_object", "read_slm", "read_optimum"):
            assert not hasattr(repro.core, name)
            assert not hasattr(repro.core.techniques, name)
        for org in (SecondaryOrganization, PrimaryOrganization, ClusterOrganization):
            assert callable(org.extent_of)
            for name in (
                "object_extent", "overflow_extent", "is_inline", "oversize_extent"
            ):
                assert not hasattr(org, name)

        # Gone since ISSUE 22: the six figure-driver modules with their
        # row classes and ``format_fig*`` functions (``FIGURES`` rows of
        # ``{column: value}`` replace them), ``BufferPool.get`` (the
        # join's node reads are ``get`` plans now), the ``read_pages``
        # plan request nobody emitted, and two options nobody set.
        import importlib
        import inspect

        import repro.eval
        from repro.buffer.pool import BufferPool
        from repro.database import SpatialDatabase
        from repro.iosched.request import OPS, AccessPlan
        from repro.join.multistep import spatial_join
        from repro.storage.serial import save_database

        for module in (
            "window", "point", "construction", "joins", "adaptation", "table1"
        ):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(f"repro.eval.{module}")
        assert not [
            name for name in repro.eval.__all__
            if name.startswith(("run_", "format_fig"))
            and name not in ("run_window_queries", "run_point_queries")
        ]
        assert list(repro.eval.FIGURES) == [
            "table1", "fig5", "fig6", "fig7", "fig8", "fig10",
            "fig11", "fig12", "fig14", "fig16", "fig17",
        ]
        assert not hasattr(BufferPool, "get") and callable(BufferPool.read_pages)
        assert "read_pages" not in OPS and not hasattr(AccessPlan, "read_pages")
        assert "get" in OPS
        for fn, gone in (
            (save_database, "materialize"),
            (SpatialDatabase.save, "materialize"),
            (spatial_join, "exact_test_ms"),
        ):
            assert gone not in inspect.signature(fn).parameters

        # Gone with the kernel-mode switch: its three functions, every
        # ``*_scalar`` body and ``hilbert_sort_key`` (the vector kernels
        # are the one path; the entry-at-a-time bodies are test oracles
        # in ``tests/scalar_reference.py``), and the disk's own request
        # recorder beside ``repro.obs.trace``.
        import repro.core.hilbert
        import repro.core.kernels
        import repro.join.mbr_join
        import repro.rtree.split
        from repro.disk.model import DiskModel
        from repro.rtree.rstar import RStarTree

        assert repro.core.kernels.__all__ == ["window_qvec", "qvec_mask"]
        for name in ("vectorized", "set_scalar_kernels", "scalar_kernels"):
            assert not hasattr(repro.core.kernels, name)
        assert "trace" not in inspect.signature(DiskModel).parameters
        assert "requests" not in DiskModel.__slots__
        for owner in (RStarTree, repro.rtree.split, repro.join.mbr_join):
            assert not [name for name in dir(owner) if name.endswith("_scalar")]
        assert not hasattr(repro.core.hilbert, "hilbert_sort_key")

        # Gone with the flat join: the recursion over ``Node`` pairs and
        # its per-pair entry mask (the recursion is the test oracle in
        # ``tests/scalar_reference.py``) and refinement per leaf group.
        # A leaf group carries object ids, and so does a group fetch.
        # The join kernel's padded orientation grids went when it began
        # enumerating only the cells of segments inside the other
        # polyline's box.
        import repro.geometry.intersect
        import repro.join.multistep
        from repro.join.mbr_join import MBRJoin
        from repro.join.object_access import ObjectTransfer

        assert not hasattr(repro.join.mbr_join, "_intersecting_pairs")
        assert not hasattr(MBRJoin, "_join")
        assert not hasattr(repro.join.multistep, "_refine_group")
        for name in ("_grid_hits", "_turns", "_GRID_CELLS"):
            assert not hasattr(repro.geometry.intersect, name), name
        assert list(inspect.signature(ObjectTransfer.fetch_group).parameters) == [
            "self", "leaf", "oids"
        ]

        # Gone with the one run report: three report classes and two row
        # classes (a ``RunReport`` of ``Row``s replaces them) and the
        # percentile wrapper beside ``repro.obs.metrics.percentile``.
        import repro.workload
        import repro.workload.engine

        for name in (
            "WorkloadReport", "SessionsReport", "TrafficReport",
            "PhaseStats", "ClientStats", "latency_percentile",
        ):
            for module in (repro, repro.workload, repro.workload.engine):
                assert not hasattr(module, name), name
        assert "RunReport" in repro.__all__

        # Gone because no user path reached them (tests/reachability.py):
        # the four ``*_name(obj)`` probes (each policy, prefetcher and
        # scheduler declares its ``name``), the traffic JSONL pair, the
        # ``reset`` / ``reset_stats`` surface of every layer, the
        # one-key and extent twins of run-level calls, and accessors
        # only tests read.
        import repro.disk.extent
        import repro.geometry.rect
        import repro.iosched
        import repro.obs
        import repro.pagestore.store
        import repro.storage
        from repro.buffer.policy import PolicyBuffer, ReplacementPolicy
        from repro.core.organization import ClusterOrganization
        from repro.iosched.scheduler import OverlapScheduler, SyncScheduler, VirtualClock
        from repro.obs.metrics import Counter, Histogram, MetricsRegistry
        from repro.obs.trace import Tracer
        from repro.pagestore.file import FilePageStore
        from repro.pagestore.store import CompositePageStore, PageStore, ShardedPageStore
        from repro.pagestore.tiered import TieredPageStore

        for module, names in (
            (repro.buffer.policy, ["policy_name"]),
            (repro.iosched, ["admission_name", "prefetcher_name", "scheduler_name"]),
            (repro.workload, ["save_traffic", "load_traffic"]),
            (repro.obs, ["percentile", "install_tracer", "uninstall_tracer", "current_tracer"]),
            (repro.geometry, ["vertices_for_size"]),
            (repro.pagestore.store, ["StoreSnapshot"]),
            (repro.storage, ["ClusterOrganization"]),
        ):
            for name in names:
                assert not hasattr(module, name), name
        for owner, names in (
            (SpatialDatabase, ["reset_stats", "admission_policy"]),
            (BufferPool, ["reset_stats", "stats", "invalidate", "mark_dirty",
                          "read_extent", "fetch_extent", "write_extent"]),
            (PolicyBuffer, ["access", "admit", "mark_dirty", "hit_rate", "reset_stats"]),
            (ReplacementPolicy, ["access", "admit", "mark_dirty", "hit_rate", "reset_stats"]),
            (DiskModel, ["reset", "reset_stats", "head"]),
            (PageStore, ["reset", "reset_stats"]),
            (CompositePageStore, ["reset", "reset_stats", "response_ms", "_owner"]),
            (ShardedPageStore, ["disk_of"]),
            (TieredPageStore, ["invalidations", "copybacks", "dirty_pages", "fast_share"]),
            (FilePageStore, ["get", "_read_slot", "file_bytes"]),
            (SyncScheduler, ["reset_stats", "inline"]),
            (OverlapScheduler, ["reset_stats", "client"]),
            (VirtualClock, ["_busy"]),
            (MetricsRegistry, ["reset_stats", "format", "value", "get", "names"]),
            (Counter, ["reset"]),
            (Histogram, ["reset"]),
            (Tracer, ["device_spans", "current_track"]),
            (AccessPlan, ["write_pages"]),
            (RStarTree, ["matching_leaves"]),
            (ClusterOrganization, ["unit_count", "unit_for"]),
            (repro.geometry.rect.Rect, ["from_point", "margin", "intersection",
                                        "enlargement", "min_distance_to_point", "grown"]),
            (repro.disk.extent.Extent, ["contains", "subextent", "overlaps", "adjacent_to"]),
        ):
            for name in names:
                assert not hasattr(owner, name), (owner.__name__, name)
        from repro.core.policy import ClusterPolicy
        from repro.core.unit import ClusterUnit
        from repro.data.series import SeriesSpec
        from repro.disk.allocator import PageAllocator, Region
        from repro.disk.buddy import BuddyAllocator, FixedUnitAllocator
        from repro.geometry.decomposed import ExactTestCounter
        from repro.geometry.feature import SpatialObject
        from repro.geometry import intersect
        from repro.geometry.polyline import Polyline
        from repro.geometry.rect import Rect
        from repro.obs.metrics import Gauge
        from repro.pagestore.placement import PlacementPolicy
        from repro.rtree.entry import Entry
        from repro.rtree import flat
        from repro.rtree.flat import FlatTree
        from repro.rtree.node import Node
        from repro.rtree.pager import NodePager
        from repro.rtree.stats import TreeStats
        from repro.storage.base import QueryResult

        for owner, names in (
            (Region, ["allocated_pages"]),
            (PageAllocator, ["total_allocated_pages"]),
            (BuddyAllocator, ["free_pages", "unit_count", "max_unit_pages"]),
            (FixedUnitAllocator, ["unit_count"]),
            (ClusterPolicy, ["for_objects"]),
            (ClusterUnit, ["object_count"]),
            (SeriesSpec, ["total_mb"]),
            (ExactTestCounter, ["reset"]),
            (Gauge, ["reset"]),
            (SpatialObject, ["pages"]),
            # The join's per-call table: the organization's geometry
            # column took its place.
            (intersect, ["PolylineTable"]),
            (Polyline, ["length"]),
            # A node's MBR and matrices are read off the block it keeps:
            # nothing unions rectangles entry by entry or drops a block.
            (Rect, ["union_of"]),
            (Node, ["invalidate"]),
            (PlacementPolicy, ["pinned_pages"]),
            (Entry, ["is_data"]),
            # One filter path: the batched flat traversal went, the
            # snapshot stays for the join.
            (FlatTree, ["n_nodes", "owner_of", "entry_q"]),
            (flat, ["FlatBatch", "flat_query_batch"]),
            (NodePager, ["reset_buffer"]),
            (TreeStats, ["total_nodes"]),
            (QueryResult, ["io_ms_per_4kb"]),
        ):
            for name in names:
                assert not hasattr(owner, name), (owner.__name__, name)
        assert "write_pages" not in OPS


class TestRunLevelSurface:
    def test_run_level_members_are_part_of_the_protocols(self):
        """ISSUE 23: a replacement policy touches and admits *runs*
        (``access_all`` returns the misses), a placement answers for a whole
        run (``fragments``) and keeps its pins as extents, a merged
        access plan remembers where its parts end, and the flat
        snapshot lost three columns nobody read."""
        from repro.buffer.policy import POLICIES, ReplacementPolicy
        from repro.iosched.request import AccessPlan
        from repro.pagestore.placement import PLACEMENTS, PlacementPolicy
        from repro.rtree.flat import FlatTree

        for member in ("access_all", "admit_all"):
            assert member in ReplacementPolicy.__dict__, member
        for factory in POLICIES.values():
            frames = factory(2)
            assert isinstance(frames, ReplacementPolicy)
            frames.admit_all([1, 2])
            assert frames.access_all([2, 3, 1]) == [3]
            assert (frames.hits, frames.misses) == (2, 1)
        for cls in PLACEMENTS.values():
            assert cls.fragments is PlacementPolicy.fragments
            assert not hasattr(cls(), "_pinned")
        plan = AccessPlan().get(3)
        plan.cut()
        plan.cut()
        plan.read(8, 2)
        assert [(label, len(part)) for label, part in plan.segments()] == [
            ("plan", 1), ("plan", 1)
        ]
        assert [len(part) for _label, part in AccessPlan().segments()] == [0]
        for gone in ("node_level", "entry_page", "entry_npages", "entries"):
            assert gone not in FlatTree.__slots__


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            GeometryError,
            DiskError,
            AllocationError,
            StorageError,
            ObjectTooLargeError,
            TreeError,
            ConfigurationError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_allocation_is_disk_error(self):
        assert issubclass(AllocationError, DiskError)

    def test_object_too_large_is_storage_error(self):
        assert issubclass(ObjectTooLargeError, StorageError)


class TestEdgeCases:
    def test_window_leaves_empty_tree(self):
        from repro.geometry.rect import Rect
        from repro.rtree.rstar import RStarTree

        tree = RStarTree(max_entries=4)
        assert tree.window_leaves(Rect(0, 0, 1, 1)) == []

    def test_grow_unit_rejected_on_fixed_allocator(self):
        from repro.core.organization import ClusterOrganization
        from repro.core.policy import ClusterPolicy
        from repro.core.unit import ClusterUnit
        from repro.disk.extent import Extent

        org = ClusterOrganization(policy=ClusterPolicy(8 * 4096))
        unit = ClusterUnit(Extent(0, 8), 4096)
        with pytest.raises(StorageError):
            org._grow_unit(unit, 10 * 4096)

    def test_database_with_custom_disk_params(self):
        from repro import DiskParameters, SpatialDatabase

        params = DiskParameters(seek_ms=20.0, latency_ms=10.0, transfer_ms=2.0)
        db = SpatialDatabase(organization="secondary", disk_params=params)
        db.insert_polyline(1, [(0, 0), (1, 1)])
        db.finalize()
        result = db.window_query(-1, -1, 2, 2)
        # One data-page read + one object read at the slow disk's rates.
        assert result.io.total_ms == pytest.approx(2 * (20 + 10 + 2))

    def test_cluster_policy_page_size_mismatch_detected(self):
        from repro.core.organization import ClusterOrganization
        from repro.core.policy import ClusterPolicy

        with pytest.raises(ConfigurationError):
            ClusterOrganization(
                policy=ClusterPolicy(8 * 4096, page_size=4096),
                page_size=8192,
            )

    def test_techniques_list_stable(self):
        from repro.core.techniques import TECHNIQUES

        assert TECHNIQUES == (
            "complete", "page", "threshold", "slm", "adaptive", "optimum"
        )

    def test_join_techniques_list_stable(self):
        from repro.join.object_access import JOIN_TECHNIQUES

        assert JOIN_TECHNIQUES == ("complete", "read", "vector", "optimum")

    def test_query_after_deleting_everything(self):
        from tests.conftest import build_org, make_objects

        objs = make_objects(30, seed=91)
        org = build_org("cluster", objs)
        for o in objs:
            org.delete(o.oid)
        from repro.geometry.rect import Rect

        res = org.window_query(Rect(0, 0, 10_000, 10_000))
        assert res.objects == [] and res.candidates == 0
        assert org.units() == []
