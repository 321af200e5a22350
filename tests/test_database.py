"""Tests for the SpatialDatabase facade."""

from __future__ import annotations

import pytest

from repro.database import ORGANIZATIONS, Layout, SpatialDatabase
from repro.disk.params import DiskParameters
from repro.errors import ConfigurationError
from repro.geometry.feature import SpatialObject
from repro.geometry.polyline import Polyline
from repro.obs.metrics import MetricsRegistry

from tests.conftest import make_objects


class TestConstruction:
    def test_cluster_needs_sizing(self):
        with pytest.raises(ConfigurationError):
            SpatialDatabase(organization="cluster")

    def test_cluster_from_avg_object_size(self):
        db = SpatialDatabase(avg_object_size=625)
        assert db.storage.name == "cluster"
        assert db.storage.policy.smax_bytes == 80 * 1024

    def test_cluster_explicit_smax(self):
        db = SpatialDatabase(smax_bytes=20 * 4096)
        assert db.storage.policy.smax_pages == 20

    def test_other_organizations(self):
        assert SpatialDatabase(organization="secondary").storage.name == "secondary"
        assert SpatialDatabase(organization="primary").storage.name == "primary"

    def test_unknown_organization(self):
        with pytest.raises(ConfigurationError):
            SpatialDatabase(organization="quantum")

    @pytest.mark.parametrize(
        "bad",
        [
            dict(organization="secondary", technique="bogus"),
            dict(organization="secondary", technique="slm"),
            dict(organization="primary", buddy_sizes=3),
            dict(avg_object_size=600, technique="bogus"),
            dict(avg_object_size=600, buddy_sizes=0),
            dict(avg_object_size=600, fast_pages=0),
            dict(avg_object_size=600, page_size=0),
            dict(avg_object_size=600, max_entries=1),
            dict(avg_object_size=600, construction_buffer_pages=-1),
            dict(avg_object_size=600, max_object_bytes=0),
            dict(avg_object_size=-1.0),
            dict(smax_bytes=4097),
            dict(organization="grid"),
            dict(organization="cluster"),
        ],
        ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_bad_configuration_is_refused_before_anything_is_built(self, bad):
        """Every bad or inapplicable value is a ConfigurationError — no
        other exception type — from the constructor and from attach
        alike, and attach leaves no region behind on the shared
        allocator."""
        with pytest.raises(ConfigurationError):
            SpatialDatabase(**bad)
        owner = SpatialDatabase(avg_object_size=600)
        regions = set(owner.allocator.regions())
        with pytest.raises(ConfigurationError):
            owner.attach("s", **bad)
        assert set(owner.allocator.regions()) == regions

    def test_layout_is_the_resolved_parameter_list(self):
        db = SpatialDatabase(avg_object_size=625, buddy_sizes=3, technique="slm")
        assert db.layout == Layout(
            smax_bytes=80 * 1024, avg_object_size=625, buddy_sizes=3, technique="slm"
        )
        assert ORGANIZATIONS[db.layout.organization] is type(db.storage)
        # The sizing knobs mean nothing without cluster units and are
        # carried, not resolved.
        assert SpatialDatabase(
            organization="primary", avg_object_size=625
        ).layout.smax_bytes is None


class TestUsage:
    def test_quickstart_flow(self):
        db = SpatialDatabase(avg_object_size=625)
        db.insert_polyline(1, [(0, 0), (10, 10)])
        db.insert_polyline(2, [(50, 50), (60, 60)])
        db.finalize()
        res = db.window_query(0, 0, 20, 20)
        assert [o.oid for o in res.objects] == [1]
        assert len(db) == 2

    def test_point_query(self):
        db = SpatialDatabase(avg_object_size=625)
        db.insert_polyline(1, [(0, 0), (10, 0)])
        db.finalize()
        assert [o.oid for o in db.point_query(5, 0).objects] == [1]
        assert db.point_query(5, 3).objects == []

    def test_build_and_stats(self):
        db = SpatialDatabase(organization="secondary")
        io = db.build(make_objects(150, seed=61))
        assert io.total_ms > 0
        assert db.occupied_pages() > 0
        assert db.tree_stats().data_entries == 150
        assert db.io_stats().total_ms >= io.total_ms

    def test_delete(self):
        db = SpatialDatabase(avg_object_size=800)
        objs = make_objects(40, seed=62)
        db.build(objs)
        db.delete(objs[0].oid)
        assert len(db) == 39

    def test_max_object_bytes_enforced(self):
        from repro.errors import ObjectTooLargeError

        db = SpatialDatabase(organization="secondary", max_object_bytes=1000)
        db.insert_polyline(1, [(0, 0), (1, 1)], size_bytes=999)
        with pytest.raises(ObjectTooLargeError):
            db.insert_polyline(2, [(0, 0), (1, 1)], size_bytes=1001)
        assert len(db) == 1

    def test_max_object_bytes_validation(self):
        with pytest.raises(ConfigurationError):
            SpatialDatabase(organization="secondary", max_object_bytes=0)

    def test_insert_spatial_object(self):
        db = SpatialDatabase(organization="secondary")
        obj = SpatialObject(5, Polyline([(0, 0), (1, 1)]), size_bytes=500)
        db.insert(obj)
        db.finalize()
        assert db.window_query(0, 0, 2, 2).objects == [obj]


class TestJoin:
    def test_attach_and_join(self):
        db_r = SpatialDatabase(avg_object_size=800, name="r")
        db_s = db_r.attach("s", avg_object_size=800)
        objs_r = make_objects(120, seed=63)
        objs_s = make_objects(120, seed=64)
        for o in objs_s:
            o.oid += 1_000_000
        db_r.build(objs_r)
        db_s.build(objs_s)
        result = db_r.join(db_s, buffer_pages=64, evaluate_exact=True)
        want = sum(
            1
            for a in objs_r
            for b in objs_s
            if a.mbr.intersects(b.mbr) and a.intersects(b)
        )
        assert result.result_pairs == want

    def test_attach_requires_distinct_name(self):
        db = SpatialDatabase(avg_object_size=800, name="db")
        with pytest.raises(ConfigurationError):
            db.attach("db", avg_object_size=800)

    def test_attached_shares_disk(self):
        db_r = SpatialDatabase(organization="secondary", name="r")
        db_s = db_r.attach("s", organization="secondary")
        assert db_r.disk is db_s.disk
        assert db_r.allocator is db_s.allocator

    def test_attached_shares_the_io_path(self):
        db_r = SpatialDatabase(
            avg_object_size=800, n_disks=4, scheduler="overlap", prefetch="cluster"
        )
        db_s = db_r.attach("s", avg_object_size=800, buddy_sizes=3)
        assert db_s.n_disks == 4
        assert db_s.scheduler is db_r.scheduler
        assert db_s.prefetcher is db_r.prefetcher
        assert db_s.metrics is db_r.metrics
        assert db_s.layout.buddy_sizes == 3 and db_r.layout.buddy_sizes is None

    @pytest.mark.parametrize(
        "knob",
        [
            dict(n_disks=8),
            dict(placement="hash"),
            dict(chunk_pages=4),
            dict(disk_params=DiskParameters()),
            dict(tiering="static"),
            dict(fast_pages=64),
            dict(scheduler="sync"),
            dict(prefetch="sequential"),
            dict(admission="priority"),
            dict(metrics=MetricsRegistry()),
            dict(n_disks=8, placement="hash"),
        ],
        ids=lambda knob: "+".join(knob),
    )
    def test_attach_refuses_device_and_io_path_knobs(self, knob):
        """The disk and the I/O path are the owning database's: a knob
        attach cannot honour is an error, never silently dropped."""
        db = SpatialDatabase(avg_object_size=600, n_disks=4, scheduler="overlap")
        regions = set(db.allocator.regions())
        with pytest.raises(ConfigurationError):
            db.attach("s", avg_object_size=600, **knob)
        assert set(db.allocator.regions()) == regions
