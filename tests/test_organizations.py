"""Tests for the three organization models: equivalence of answers,
physical invariants, storage accounting, deletion, error handling."""

from __future__ import annotations

import pytest

from repro.constants import PAGE_SIZE
from repro.core.organization import ClusterOrganization
from repro.core.policy import ClusterPolicy
from repro.core.techniques import TECHNIQUES
from repro.errors import ConfigurationError, StorageError
from repro.geometry.polyline import Polyline
from repro.geometry.feature import SpatialObject
from repro.geometry.rect import Rect
from repro.iosched.scheduler import SyncScheduler
from repro.storage.secondary import SecondaryOrganization

from tests.conftest import brute_force_window, build_org, make_objects

WINDOWS = [
    Rect(0, 0, 10_000, 10_000),
    Rect(1000, 1000, 3000, 3000),
    Rect(5000, 2000, 5400, 2400),
    Rect(9900, 9900, 10_000, 10_000),
    Rect(2500, 2500, 2501, 2501),
]


class TestAnswerEquivalence:
    @pytest.mark.parametrize("window", WINDOWS, ids=range(len(WINDOWS)))
    def test_all_organizations_agree_with_brute_force(
        self, objects300, secondary300, primary300, cluster300, window
    ):
        want = brute_force_window(objects300, window)
        for org in (secondary300, primary300, cluster300):
            got = {o.oid for o in org.window_query(window).objects}
            assert got == want, org.name

    def test_point_queries_agree(
        self, objects300, secondary300, primary300, cluster300
    ):
        points = [(o.mbr.center()) for o in objects300[:60]]
        for x, y in points:
            want = {
                o.oid
                for o in objects300
                if o.mbr.contains_point(x, y) and o.contains_point(x, y)
            }
            answers = {
                org.name: {o.oid for o in org.point_query(x, y).objects}
                for org in (secondary300, primary300, cluster300)
            }
            for name, got in answers.items():
                assert got == want, name

    def test_cluster_techniques_identical_answers(self, objects300, cluster300):
        window = Rect(1000, 1000, 4000, 4000)
        baseline = None
        original = cluster300.technique
        try:
            for technique in TECHNIQUES:
                cluster300.technique = technique
                got = sorted(o.oid for o in cluster300.window_query(window).objects)
                if baseline is None:
                    baseline = got
                assert got == baseline, technique
        finally:
            cluster300.technique = original


class TestQueryResults:
    def test_candidates_at_least_answers(self, secondary300):
        res = secondary300.window_query(Rect(2000, 2000, 4000, 4000))
        assert res.candidates >= len(res.objects)
        assert res.bytes_retrieved >= sum(o.size_bytes for o in res.objects)

    def test_io_positive_when_answers_exist(self, cluster300):
        res = cluster300.window_query(Rect(0, 0, 10_000, 10_000))
        assert res.objects
        assert res.io.total_ms > 0
        assert res.io_ms_per_4kb > 0

    def test_empty_query(self, secondary300):
        res = secondary300.window_query(Rect(-100, -100, -90, -90))
        assert res.objects == []
        assert res.io_ms_per_4kb == float("inf")

    def test_exact_tests_counted(self, secondary300):
        res = secondary300.window_query(Rect(2500, 2500, 2700, 2700))
        # contained-MBR shortcut means not every candidate needs a test
        assert 0 <= res.exact_tests <= res.candidates


class TestConstructionLifecycle:
    def test_duplicate_oid_rejected(self, objects300):
        org = SecondaryOrganization()
        org.insert(objects300[0])
        with pytest.raises(StorageError):
            org.insert(objects300[0])

    def test_build_returns_io(self, objects300):
        org = build_org("secondary", objects300[:50])
        assert org.construction_io.total_ms > 0
        assert len(org) == 50

    def test_finalize_idempotent(self, objects300):
        org = build_org("secondary", objects300[:30])
        org.finalize_build()
        org.finalize_build()

    def test_insert_after_finalize_allowed(self, objects300):
        org = build_org("secondary", objects300[:30])
        extra = make_objects(1, seed=99)[0]
        extra.oid = 10_000
        org.insert(extra)
        assert len(org) == 31

    def test_region_prefix_collision_detected(self, objects300):
        from repro.disk.allocator import PageAllocator
        from repro.disk.model import DiskModel

        disk, alloc = DiskModel(), PageAllocator()
        SecondaryOrganization(disk=disk, allocator=alloc, region_prefix="x")
        with pytest.raises(StorageError):
            SecondaryOrganization(disk=disk, allocator=alloc, region_prefix="x")


class TestSecondary:
    def test_file_is_byte_packed(self, objects300, secondary300):
        total_bytes = sum(o.size_bytes for o in objects300)
        file_pages = secondary300._own_region.high_water_pages
        assert file_pages == -(-total_bytes // PAGE_SIZE)

    def test_occupied_pages_best_of_all(
        self, secondary300, primary300, cluster300
    ):
        # The byte-packed file always wins; the exact primary-vs-cluster
        # ordering is a statistics-of-scale property asserted by the
        # benchmark harness on full series data.
        sec = secondary300.occupied_pages()
        assert sec < primary300.occupied_pages()
        assert sec < cluster300.occupied_pages()

    def test_object_extent_lookup(self, objects300, secondary300):
        extent = secondary300.extent_of(objects300[0].oid)
        assert extent.npages >= 1


class TestPrimary:
    def test_inline_vs_overflow(self, objects300, primary300):
        for obj in objects300:
            inline = primary300.extent_of(obj.oid) is None
            assert inline == (obj.size_bytes + 46 <= PAGE_SIZE)

    def test_overflow_objects_have_exclusive_extents(self, primary300, objects300):
        extents = [
            primary300.extent_of(o.oid)
            for o in objects300
            if primary300.extent_of(o.oid) is not None
        ]
        for i, a in enumerate(extents):
            for b in extents[i + 1:]:
                assert not a.overlaps(b)

    def test_big_object_goes_to_overflow(self):
        org = build_org("primary", [])
        big = SpatialObject(
            1, Polyline([(0, 0), (1, 1)]), size_bytes=3 * PAGE_SIZE
        )
        org.insert(big)
        assert org.extent_of(1).npages == 3

    def test_data_pages_respect_byte_capacity(self, primary300):
        for leaf in primary300.tree.leaves():
            assert len(leaf.entries) == 1 or leaf.load() <= PAGE_SIZE


class TestClusterOrganization:
    def test_invalid_technique_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterOrganization(
                policy=ClusterPolicy(16 * PAGE_SIZE), technique="warp"
            )

    def test_every_object_in_exactly_one_unit(self, objects300, cluster300):
        seen: dict[int, int] = {}
        for leaf in cluster300.tree.leaves():
            u = leaf.tag
            if u is None:
                continue
            for oid in u.live:
                assert oid not in seen
                seen[oid] = leaf.node_id
        oversize = {
            o.oid for o in objects300 if o.size_bytes > cluster300.policy.smax_bytes
        }
        assert set(seen) | oversize == {o.oid for o in objects300}

    def test_units_match_leaf_entries(self, cluster300):
        for leaf in cluster300.tree.leaves():
            unit = leaf.tag
            entry_oids = {
                e.oid for e in leaf.entries
                if cluster300.extent_of(e.oid) is None
            }
            if unit is None:
                assert not entry_oids
            else:
                assert set(unit.live) == entry_oids

    def test_units_fit_their_extents(self, cluster300):
        for unit in cluster300.units():
            assert unit.live_bytes <= unit.capacity_bytes
            assert unit.capacity_bytes <= cluster300.policy.smax_bytes

    def test_cluster_byte_limit_respected(self, cluster300):
        smax = cluster300.policy.smax_bytes
        for leaf in cluster300.tree.leaves():
            assert len(leaf.entries) <= cluster300.max_entries
            assert len(leaf.entries) == 1 or leaf.load() <= smax

    def test_unit_count_matches_allocator(self, cluster300):
        assert len(cluster300.units()) == cluster300.unit_count()

    def test_unit_for_lookup(self, objects300, cluster300):
        obj = objects300[0]
        unit = cluster300.unit_for(obj.oid)
        assert unit is not None and obj.oid in unit.live

    def test_oversize_object_stored_separately(self):
        org = build_org("cluster", [], smax_bytes=4 * PAGE_SIZE)
        big = SpatialObject(
            1, Polyline([(0, 0), (1, 1)]), size_bytes=5 * PAGE_SIZE
        )
        org.insert(big)
        small = SpatialObject(2, Polyline([(0, 0), (2, 2)]), size_bytes=500)
        org.insert(small)
        org.finalize_build()
        assert org.unit_for(1) is None
        assert org.extent_of(1) is not None
        assert org.unit_for(2) is not None
        res = org.window_query(Rect(0, 0, 3, 3))
        assert {o.oid for o in res.objects} == {1, 2}

    def test_cluster_split_triggered_by_bytes(self):
        # Tiny Smax forces byte splits long before the count limit.
        objs = make_objects(60, seed=31, size_range=(3000, 3500))
        org = build_org("cluster", objs, smax_bytes=4 * PAGE_SIZE)
        assert org.tree.leaf_splits > 0
        for leaf in org.tree.leaves():
            assert len(leaf.entries) == 1 or leaf.load() <= 4 * PAGE_SIZE

    def test_buddy_mode_end_to_end(self, objects300):
        org = build_org("cluster", objects300, buddy_sizes=3)
        fixed = build_org("cluster", objects300)
        assert org.occupied_pages() < fixed.occupied_pages()
        window = Rect(1000, 1000, 4000, 4000)
        assert {o.oid for o in org.window_query(window).objects} == {
            o.oid for o in fixed.window_query(window).objects
        }


    def test_unit_moves_price_a_read_and_a_write(self):
        """Every rewrite of a unit is the one move: in place, into a
        bigger buddy (the move Figure 7 counts — by the allocator, only
        when the extent had to change) or into a right-sized one — each
        a read plan and a write plan under its label."""
        org = build_org("cluster", [], smax_bytes=8 * PAGE_SIZE, buddy_sizes=3)
        for oid in range(5):
            org.insert(
                SpatialObject(oid, Polyline([(oid, 0), (oid + 1, 1)]), size_bytes=3000)
            )
        unit = org.unit_for(0)
        assert unit.extent.npages == 4 and org.unit_moves == 1
        before = org.disk.stats()

        class Recording(SyncScheduler):
            plans = []

            def execute(self, plan, pool):
                self.plans.append(plan)
                return super().execute(plan, pool)

        org.pool.scheduler = Recording()
        assert org._move_unit(unit, "t.grow", 8 * PAGE_SIZE) == 4
        assert unit.extent.npages == 8 and org.unit_moves == 2
        org.delete(1)
        assert org._move_unit(unit, "t.compact") == 3
        assert unit.extent.npages == 8 and unit.tail_bytes == unit.live_bytes
        assert org._move_unit(unit, "t.shrink", 3 * PAGE_SIZE, read=False) == 3
        assert unit.extent.npages == 4 and org.unit_moves == 2
        moves = [p for p in Recording.plans if p.label.startswith("t.")]
        assert [(p.label, p.writes) for p in moves] == [
            ("t.grow", False), ("t.grow", True),
            ("t.compact", False), ("t.compact", True),
            ("t.shrink", True),
        ]
        assert (org.disk.stats() - before).pages_transferred >= 4 + 4 + 4 + 3 + 3


class TestDeletion:
    def test_delete_roundtrip_all_orgs(self, objects300):
        for kind in ("secondary", "primary", "cluster"):
            org = build_org(kind, objects300[:120])
            victims = [o.oid for o in objects300[:120:3]]
            for oid in victims:
                org.delete(oid)
            assert len(org) == 120 - len(victims)
            res = org.window_query(Rect(0, 0, 10_000, 10_000))
            got = {o.oid for o in res.objects}
            assert got.isdisjoint(victims)

    def test_delete_unknown_raises(self, objects300):
        org = build_org("secondary", objects300[:10])
        with pytest.raises(StorageError):
            org.delete(999_999)

    def test_cluster_delete_removes_bytes(self, objects300):
        org = build_org("cluster", objects300[:100])
        oid = objects300[0].oid
        unit = org.unit_for(oid)
        assert unit is not None
        org.delete(oid)
        assert oid not in unit.live
        assert org.unit_for(oid) is None

    def test_cluster_delete_consistency_after_condense(self, objects300):
        org = build_org("cluster", objects300[:150])
        for o in objects300[:120]:
            org.delete(o.oid)
        # all remaining objects still answer queries correctly
        rest = objects300[120:150]
        res = org.window_query(Rect(0, 0, 10_000, 10_000))
        assert {o.oid for o in res.objects} == brute_force_window(
            rest, Rect(0, 0, 10_000, 10_000)
        )
        # physical bookkeeping still consistent
        for leaf in org.tree.leaves():
            unit = leaf.tag
            if unit is not None:
                for oid in unit.live:
                    assert org.unit_for(oid) is unit


class TestWhereEveryObjectLives:
    """First slice of ROADMAP D.1, read off the one table: after a
    lifecycle of inserts, deletes and re-inserts every live object's
    exact representation is in exactly one place, and no page is owned
    twice or owned while free."""

    SMAX = 16 * PAGE_SIZE
    KINDS = {
        "secondary": dict(kind="secondary"),
        "primary": dict(kind="primary"),
        "cluster-fixed": dict(kind="cluster", smax_bytes=SMAX),
        "cluster-buddy": dict(kind="cluster", smax_bytes=SMAX, buddy_sizes=3),
    }

    def big(self, oid: int, at: float) -> SpatialObject:
        """Too big for a data page and for ``SMAX``."""
        line = Polyline([(at, at), (at + 50, at + 80)])
        return SpatialObject(oid, line, size_bytes=self.SMAX + 100 * (1 + oid % 7))

    def lifecycle(self, name: str):
        objects = make_objects(300, seed=23)
        objects += [self.big(1000 + i, 900.0 * (i + 1)) for i in range(8)]
        org = build_org(objects=objects, **self.KINDS[name])
        for obj in objects[::3]:
            org.delete(obj.oid)
        for i, obj in enumerate(objects[:120:3]):
            org.insert(SpatialObject(2000 + i, obj.geometry, obj.size_bytes))
        for i in range(3):
            org.insert(self.big(3000 + i, 1200.0 * (i + 2)))
        if name == "cluster-buddy":
            from repro.reorg import Reorganizer

            assert Reorganizer(org, min_dead_fraction=0.0).step() > 0
        return org

    @pytest.mark.parametrize("name", sorted(KINDS))
    def test_exactly_one_place_and_no_page_owned_twice(self, name):
        from repro.constants import ENTRY_SIZE
        from repro.disk.buddy import BuddyAllocator
        from repro.disk.extent import Extent

        org = self.lifecycle(name)
        live = org.objects
        assert set(org._extents) <= set(live)  # no row outlives its object
        placed: list[int] = []
        unit_extents: list[Extent] = []
        for leaf in org.tree.leaves():
            unit = leaf.tag
            if unit is not None:
                unit_extents.append(unit.extent)
                assert set(unit.live) <= {e.oid for e in leaf.entries}
            for entry in leaf.entries:
                oid = entry.oid
                inline = org._page_holds_objects and (
                    entry.load == ENTRY_SIZE + live[oid].size_bytes
                )
                places = (
                    org.extent_of(oid) is not None,
                    unit is not None and oid in unit.live,
                    inline,
                )
                assert sum(places) == 1, (oid, places)
                placed.append(oid)
        assert sorted(placed) == sorted(live)
        own = list(org._extents.values())
        assert own and (unit_extents or not name.startswith("cluster"))

        owned = sorted(own + unit_extents, key=lambda e: e.start)
        if name == "secondary":
            # Byte-packed neighbours may share one boundary page; the
            # file never reclaims, so nothing is ever free.
            file = org._own_region
            top = file.base + file.high_water_pages
            assert all(file.base <= e.start and e.end <= top for e in owned)
            assert all(a.end - b.start <= 1 for a, b in zip(owned, owned[1:]))
        else:
            assert all(a.end <= b.start for a, b in zip(owned, owned[1:]))
        free = [e for r in org.allocator.regions().values() for e in r._free]
        if name == "cluster-buddy":
            alloc = org._unit_alloc
            assert isinstance(alloc, BuddyAllocator)
            free += [
                Extent(start, alloc.sizes[level])
                for level, starts in enumerate(alloc._free)
                for start in starts
            ]
        for extent in owned:
            assert not any(extent.overlaps(f) for f in free), extent
