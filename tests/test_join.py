"""Tests for the spatial join: MBR join correctness, object transfer
buffering semantics, multistep cost accounting."""

from __future__ import annotations

from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.buffer.policy import POLICIES
from repro.buffer.pool import BufferPool
from repro.disk.allocator import PageAllocator
from repro.disk.model import DiskModel
from repro.errors import ConfigurationError
from repro.geometry.column import GeometryColumn
from repro.geometry.feature import SpatialObject
from repro.geometry.polyline import Polyline
from repro.geometry.rect import Rect
from repro.join import multistep
from repro.join.mbr_join import MBRJoin
from repro.join.multistep import spatial_join
from repro.join.object_access import JOIN_TECHNIQUES, ObjectTransfer
from repro.rtree.rstar import RStarTree

from tests import scalar_reference as reference
from tests.conftest import build_org, make_objects
from tests.test_intersect import lattice_line, lattice_point


def join_pair(kind: str, n=200, smax_bytes=16 * 4096, **kwargs):
    """Two organizations over different maps sharing one disk."""
    disk, alloc = DiskModel(), PageAllocator()
    objs_r = make_objects(n, seed=41)
    objs_s = make_objects(n, seed=42)
    for o in objs_s:
        o.oid += 1_000_000
    org_r = build_org(kind, objs_r, smax_bytes=smax_bytes,
                      disk=disk, allocator=alloc, region_prefix="r", **kwargs)
    org_s = build_org(kind, objs_s, smax_bytes=smax_bytes,
                      disk=disk, allocator=alloc, region_prefix="s", **kwargs)
    return org_r, org_s, objs_r, objs_s


def brute_force_pairs(objs_r, objs_s) -> set[tuple[int, int]]:
    return {
        (a.oid, b.oid)
        for a in objs_r
        for b in objs_s
        if a.mbr.intersects(b.mbr)
    }


class TestMBRJoin:
    def test_matches_brute_force(self):
        org_r, org_s, objs_r, objs_s = join_pair("secondary")
        join = MBRJoin(org_r.tree, org_s.tree, BufferPool(org_r.disk, capacity=64))
        got = {
            (oid_r, oid_s)
            for _, _, pairs in join.run()
            for oid_r, oid_s in pairs.tolist()
        }
        assert got == brute_force_pairs(objs_r, objs_s)
        assert join.candidate_pairs == len(got)

    def test_empty_tree_join(self):
        disk = DiskModel()
        t1, t2 = RStarTree(max_entries=4), RStarTree(max_entries=4)
        t1.insert(1, Rect(0, 0, 1, 1))
        join = MBRJoin(t1, t2, BufferPool(disk, capacity=8))
        assert list(join.run()) == []

    def test_unequal_heights(self):
        disk = DiskModel()
        t1 = RStarTree(max_entries=4)
        t2 = RStarTree(max_entries=4)
        import random

        rng = random.Random(5)
        rects1 = []
        for i in range(300):  # tall tree
            x, y = rng.uniform(0, 100), rng.uniform(0, 100)
            r = Rect(x, y, x + 2, y + 2)
            rects1.append(r)
            t1.insert(i, r)
        rects2 = []
        for i in range(6):  # single-leaf tree
            x, y = rng.uniform(0, 100), rng.uniform(0, 100)
            r = Rect(x, y, x + 5, y + 5)
            rects2.append(r)
            t2.insert(i, r)
        assert t1.height > t2.height
        join = MBRJoin(t1, t2, BufferPool(disk, capacity=64))
        got = {tuple(pair) for _, _, ps in join.run() for pair in ps.tolist()}
        want = {
            (i, j)
            for i, r1 in enumerate(rects1)
            for j, r2 in enumerate(rects2)
            if r1.intersects(r2)
        }
        assert got == want

    def test_buffer_reduces_io(self):
        org_r, org_s, _, _ = join_pair("secondary")
        costs = {}
        for pages in (4, 256):
            disk_before = org_r.disk.stats()
            join = MBRJoin(org_r.tree, org_s.tree, BufferPool(org_r.disk, capacity=pages))
            for _ in join.run():
                pass
            costs[pages] = (org_r.disk.stats() - disk_before).total_ms
        assert costs[256] <= costs[4]

    def test_groups_are_leaf_level(self):
        org_r, org_s, _, _ = join_pair("secondary", n=100)
        join = MBRJoin(org_r.tree, org_s.tree, BufferPool(org_r.disk, capacity=64))
        for leaf_r, leaf_s, pairs in join.run():
            assert leaf_r.is_leaf and leaf_s.is_leaf
            assert pairs.shape[0] > 0 and pairs.shape[1] == 2
            rects_r = {e.oid: e.rect for e in leaf_r.entries}
            rects_s = {e.oid: e.rect for e in leaf_s.entries}
            for oid_r, oid_s in pairs.tolist():
                assert rects_r[oid_r].intersects(rects_s[oid_s])


class TestObjectTransfer:
    def test_invalid_technique(self):
        org_r, _, _, _ = join_pair("secondary", n=20)
        with pytest.raises(ConfigurationError):
            ObjectTransfer(
                org_r, BufferPool(org_r.disk, capacity=8), technique="bogus"
            )

    def test_secondary_buffer_hit_avoids_io(self):
        org_r, org_s, objs_r, _ = join_pair("secondary", n=50)
        pool = BufferPool(org_r.disk, capacity=512)
        transfer = ObjectTransfer(org_r, pool)
        leaf = next(org_r.tree.leaves())
        oids = [e.oid for e in leaf.entries[:3]]
        transfer.fetch_group(leaf, oids)
        before = org_r.disk.stats()
        transfer.fetch_group(leaf, oids)  # all pages now buffered
        assert (org_r.disk.stats() - before).requests == 0
        assert transfer.buffer_hits >= len(oids)

    def test_cluster_complete_reads_whole_unit_once(self):
        org_r, org_s, _, _ = join_pair("cluster", n=80)
        pool = BufferPool(org_r.disk, capacity=512)
        transfer = ObjectTransfer(org_r, pool, technique="complete")
        leaf = next(org_r.tree.leaves())
        unit = leaf.tag
        before = org_r.disk.stats()
        transfer.fetch_group(leaf, [leaf.entries[0].oid])
        delta = org_r.disk.stats() - before
        assert delta.requests == 1
        assert delta.pages_transferred == min(unit.used_pages, unit.extent.npages)
        # Second object of the same unit: already buffered.
        before = org_r.disk.stats()
        transfer.fetch_group(leaf, [leaf.entries[1].oid])
        assert (org_r.disk.stats() - before).requests == 0

    def test_vector_read_buffers_less_than_read(self):
        results = {}
        for technique in ("read", "vector"):
            org_r, _, _, _ = join_pair("cluster", n=80)
            pool = BufferPool(org_r.disk, capacity=4096)
            transfer = ObjectTransfer(org_r, pool, technique=technique)
            leaf = next(org_r.tree.leaves())
            transfer.fetch_group(leaf, [e.oid for e in leaf.entries[:2]])
            results[technique] = len(pool)
        assert results["vector"] <= results["read"]

    def test_optimum_transfers_only_requested(self):
        org_r, _, _, _ = join_pair("cluster", n=80)
        pool = BufferPool(org_r.disk, capacity=512)
        transfer = ObjectTransfer(org_r, pool, technique="optimum")
        leaf = next(org_r.tree.leaves())
        unit = leaf.tag
        oid = leaf.entries[0].oid
        requested = unit.requested_pages([oid])
        before = org_r.disk.stats()
        transfer.fetch_group(leaf, [leaf.entries[0].oid])
        delta = org_r.disk.stats() - before
        assert delta.pages_transferred == len(requested)

    def test_primary_inline_needs_only_data_page(self):
        org_r, _, objs_r, _ = join_pair("primary", n=60)
        pool = BufferPool(org_r.disk, capacity=512)
        transfer = ObjectTransfer(org_r, pool)
        leaf = next(org_r.tree.leaves())
        inline = [
            e.oid for e in leaf.entries if org_r.extent_of(e.oid) is None
        ]
        if inline:
            before = org_r.disk.stats()
            transfer.fetch_group(leaf, inline)
            assert (org_r.disk.stats() - before).requests <= 1


class TestSpatialJoin:
    def test_requires_shared_disk(self):
        org_r = build_org("secondary", make_objects(20, seed=1))
        org_s = build_org("secondary", make_objects(20, seed=2))
        with pytest.raises(ConfigurationError):
            spatial_join(org_r, org_s)

    def test_invalid_technique(self):
        org_r, org_s, _, _ = join_pair("secondary", n=20)
        with pytest.raises(ConfigurationError):
            spatial_join(org_r, org_s, technique="bogus")

    def test_candidates_consistent_across_organizations(self):
        counts = set()
        for kind in ("secondary", "primary", "cluster"):
            org_r, org_s, _, _ = join_pair(kind)
            counts.add(spatial_join(org_r, org_s).candidate_pairs)
        assert len(counts) == 1

    def test_exact_evaluation(self):
        org_r, org_s, objs_r, objs_s = join_pair("secondary", n=80)
        result = spatial_join(org_r, org_s, evaluate_exact=True)
        want = sum(
            1
            for a in objs_r
            for b in objs_s
            if a.mbr.intersects(b.mbr) and a.intersects(b)
        )
        assert result.result_pairs == want
        assert result.result_pairs <= result.candidate_pairs

    def test_cost_breakdown_adds_up(self):
        org_r, org_s, _, _ = join_pair("cluster")
        before = org_r.disk.stats()
        result = spatial_join(org_r, org_s, buffer_pages=64)
        total = (org_r.disk.stats() - before).total_ms
        assert result.io_ms == pytest.approx(total)
        assert result.mbr_io.total_ms >= 0
        assert result.transfer_io.total_ms > 0
        assert result.exact_ms == pytest.approx(result.exact_tests * 0.75)
        assert result.total_ms == pytest.approx(result.io_ms + result.exact_ms)

    def test_cluster_beats_secondary_on_dense_join(self):
        """With several candidates per cluster unit (the realistic join
        regime, Section 6.1) the cluster organization's bulk unit reads
        beat the secondary organization's per-object seeks."""
        io = {}
        for kind in ("secondary", "cluster"):
            disk, alloc = DiskModel(), PageAllocator()
            objs_r = make_objects(300, seed=51, space=2500.0)
            objs_s = make_objects(300, seed=52, space=2500.0)
            for o in objs_s:
                o.oid += 1_000_000
            org_r = build_org(kind, objs_r, disk=disk, allocator=alloc,
                              region_prefix="r")
            org_s = build_org(kind, objs_s, disk=disk, allocator=alloc,
                              region_prefix="s")
            io[kind] = spatial_join(
                org_r, org_s, buffer_pages=64
            ).transfer_io.total_ms
        assert io["cluster"] < io["secondary"]

    def test_bigger_buffer_never_hurts_much(self):
        org_r, org_s, _, _ = join_pair("cluster")
        small = spatial_join(org_r, org_s, buffer_pages=8).io_ms
        large = spatial_join(org_r, org_s, buffer_pages=1024).io_ms
        assert large <= small * 1.05

    def test_join_techniques_same_pairs(self):
        org_r, org_s, _, _ = join_pair("cluster")
        pair_counts = {
            technique: spatial_join(
                org_r, org_s, buffer_pages=64, technique=technique
            ).candidate_pairs
            for technique in JOIN_TECHNIQUES
        }
        assert len(set(pair_counts.values())) == 1

    def test_optimum_is_cheapest_transfer(self):
        org_r, org_s, _, _ = join_pair("cluster")
        costs = {
            technique: spatial_join(
                org_r, org_s, buffer_pages=64, technique=technique
            ).transfer_io.total_ms
            for technique in JOIN_TECHNIQUES
        }
        assert costs["optimum"] == min(costs.values())


# ----------------------------------------------------------------------
# mixed organizations, own-extent objects on both sides
# ----------------------------------------------------------------------
MIXED_PAIRS = [("secondary", "cluster"), ("primary", "cluster"), ("cluster", "cluster")]
MIXED_POOLS = (36, 512)

#: (r ⋈ s, technique, pool pages) -> (transfer requests, pages, total
#: ms, object requests r / s, buffer hits r / s), taken at the commit
#: before ``ObjectTransfer._dispatch`` became organization-blind (the
#: parent of ISSUE 21): ``python -m tests.test_join`` with that
#: commit's ``src`` on the path.
MIXED_EXPECTED = {
    ('secondary-cluster', 'complete', 36): (102, 383, 1883.0, 105, 60, 14, 1),
    ('secondary-cluster', 'complete', 512): (62, 307, 1222.0, 105, 60, 52, 3),
    ('secondary-cluster', 'read', 36): (102, 370, 1870.0, 105, 60, 15, 0),
    ('secondary-cluster', 'read', 512): (63, 303, 1233.0, 105, 60, 52, 2),
    ('secondary-cluster', 'vector', 36): (101, 369, 1854.0, 105, 60, 16, 0),
    ('secondary-cluster', 'vector', 512): (63, 303, 1233.0, 105, 60, 52, 2),
    ('secondary-cluster', 'optimum', 36): (104, 365, 1820.0, 105, 60, 16, 0),
    ('secondary-cluster', 'optimum', 512): (67, 300, 1215.0, 105, 60, 52, 1),
    ('primary-cluster', 'complete', 36): (24, 402, 762.0, 105, 114, 100, 56),
    ('primary-cluster', 'complete', 512): (14, 242, 452.0, 105, 114, 100, 70),
    ('primary-cluster', 'read', 36): (32, 366, 846.0, 105, 114, 100, 48),
    ('primary-cluster', 'read', 512): (22, 237, 567.0, 105, 114, 100, 61),
    ('primary-cluster', 'vector', 36): (35, 369, 894.0, 105, 114, 100, 43),
    ('primary-cluster', 'vector', 512): (22, 237, 567.0, 105, 114, 100, 61),
    ('primary-cluster', 'optimum', 36): (32, 353, 653.0, 105, 114, 100, 28),
    ('primary-cluster', 'optimum', 512): (26, 235, 445.0, 105, 114, 100, 34),
    ('cluster-cluster', 'complete', 36): (29, 435, 870.0, 105, 64, 0, 2),
    ('cluster-cluster', 'complete', 512): (19, 299, 584.0, 105, 64, 73, 13),
    ('cluster-cluster', 'read', 36): (31, 374, 830.0, 105, 64, 0, 0),
    ('cluster-cluster', 'read', 512): (24, 296, 647.0, 105, 64, 6, 12),
    ('cluster-cluster', 'vector', 36): (31, 376, 832.0, 105, 64, 0, 0),
    ('cluster-cluster', 'vector', 512): (26, 302, 683.0, 105, 64, 6, 4),
    ('cluster-cluster', 'optimum', 36): (37, 345, 675.0, 105, 64, 0, 0),
    ('cluster-cluster', 'optimum', 512): (34, 285, 570.0, 105, 64, 0, 3),
}


def mixed_pair(kind_r: str, kind_s: str):
    """Two relations of different organizations on one disk, each with
    objects that need pages of their own under every organization
    (larger than a data page and than ``Smax``)."""
    disk, alloc = DiskModel(), PageAllocator()
    sides = []
    for kind, prefix, seed, base in ((kind_r, "r", 41, 0), (kind_s, "s", 42, 1_000_000)):
        objects = make_objects(200, seed=seed, space=2000.0)
        for i in range(5):
            x, y = 300.0 * i + 4 * seed, 350.0 * i + 100
            line = Polyline([(x, y), (x + 200, y + 90), (x + 400, y - 60)])
            objects.insert(37 * i, SpatialObject(500 + i, line, size_bytes=70_000 + 4096 * i))
        for o in objects:
            o.oid += base
        org = build_org(kind, objects, disk=disk, allocator=alloc, region_prefix=prefix)
        sides.append((org, objects))
    return sides


def mixed_transfers(org_r, org_s, technique: str, pages: int):
    """What ``spatial_join`` does, keeping hold of the two transfers:
    (candidate pairs, the observed numbers of ``MIXED_EXPECTED``)."""
    disk = org_r.disk
    disk.invalidate_head()
    pool = org_r.pool.sibling(pages)
    join = MBRJoin(org_r.tree, org_s.tree, pool)
    transfer_r = ObjectTransfer(org_r, pool, technique=technique)
    transfer_s = ObjectTransfer(org_s, pool, technique=technique)
    io = disk.stats() - disk.stats()
    found = set()
    for leaf_r, leaf_s, pairs in join.run():
        before = disk.stats()
        transfer_r.fetch_group(leaf_r, pairs[:, 0].tolist())
        transfer_s.fetch_group(leaf_s, pairs[:, 1].tolist())
        io = io + (disk.stats() - before)
        found.update(map(tuple, pairs.tolist()))
    return found, (
        io.requests,
        io.pages_transferred,
        round(io.total_ms, 6),
        transfer_r.object_requests,
        transfer_s.object_requests,
        transfer_r.buffer_hits,
        transfer_s.buffer_hits,
    )


class TestMixedOrganizations:
    @pytest.fixture(scope="class", params=MIXED_PAIRS, ids="-".join)
    def pair(self, request):
        return request.param, mixed_pair(*request.param)

    @pytest.mark.parametrize("pages", MIXED_POOLS)
    @pytest.mark.parametrize("technique", JOIN_TECHNIQUES)
    def test_pairs_and_transfer_cost_are_the_parents(self, pair, technique, pages):
        kinds, ((org_r, objs_r), (org_s, objs_s)) = pair
        for org, objects in pair[1]:
            own = sum(org.extent_of(o.oid) is not None for o in objects)
            assert own == (len(objects) if org.name == "secondary" else 5)
        found, observed = mixed_transfers(org_r, org_s, technique, pages)
        assert found == brute_force_pairs(objs_r, objs_s)
        assert any(org_r.extent_of(r) and org_s.extent_of(s) for r, s in found)
        assert observed == MIXED_EXPECTED["-".join(kinds), technique, pages]


# ----------------------------------------------------------------------
# the flat traversal against the recursion it replaced
# ----------------------------------------------------------------------
def lattice_objects(n: int, seed: int, base: int = 0) -> list[SpatialObject]:
    """``make_objects`` with every vertex snapped to a 25-unit lattice,
    so entries and directory rectangles share xmin values and the
    processing order's ties are common."""
    return [
        SpatialObject(
            base + obj.oid,
            Polyline([(25.0 * round(x / 25), 25.0 * round(y / 25)) for x, y in obj.geometry.vertices]),
            size_bytes=obj.size_bytes,
        )
        for obj in make_objects(n, seed=seed, space=1500.0)
    ]


def recorded_join(org_r, org_s, technique, pages, policy, run=MBRJoin.run):
    """``spatial_join`` through ``run`` from a reset disk and clock: the
    node accesses in order, the leaf groups in order, the result."""
    accesses, groups = [], []
    access = MBRJoin._access

    def spy_access(join, node):
        accesses.append((node.node_id, node.page))
        return access(join, node)

    def spy_run(join):
        for leaf_r, leaf_s, pairs in run(join):
            groups.append((leaf_r.node_id, leaf_s.node_id, pairs.tolist()))
            yield leaf_r, leaf_s, pairs

    from repro.iosched import OverlapScheduler

    org_r.disk.invalidate_head()
    if isinstance(org_r.pool.scheduler, OverlapScheduler):
        org_r.pool.scheduler.reset()
    with patch.object(MBRJoin, "_access", spy_access), patch.object(MBRJoin, "run", spy_run):
        result = spatial_join(
            org_r, org_s, buffer_pages=pages, technique=technique,
            evaluate_exact=True, policy=policy,
        )
    return accesses, groups, result


class TestFlatJoinIsTheRecursion:
    """``MBRJoin.run`` replays the node accesses and leaf groups of the
    recursive traversal (``tests/scalar_reference.py``) in its order,
    so everything priced after them is the recursion's too."""

    @pytest.fixture(
        scope="class",
        params=[(kind, sched) for kind in ("secondary", "primary", "cluster")
                for sched in ("sync", "overlap")],
        ids="-".join,
    )
    def relations(self, request):
        from repro.iosched import OverlapScheduler

        kind, sched = request.param
        disk, alloc = DiskModel(), PageAllocator()
        shared = dict(disk=disk, allocator=alloc, max_entries=8)
        if sched == "overlap":
            shared["scheduler"] = OverlapScheduler()
        orgs = [
            build_org(kind, objects, region_prefix=prefix, **shared)
            for prefix, objects in (
                ("r", lattice_objects(160, seed=41)),
                ("s", lattice_objects(30, seed=42, base=1_000_000)),
                ("e", []),
            )
        ]
        return orgs

    @pytest.mark.parametrize("policy", list(POLICIES))
    @pytest.mark.parametrize("pages", [8, 4096], ids=["tiny", "fits"])
    @pytest.mark.parametrize("technique", JOIN_TECHNIQUES)
    def test_same_accesses_groups_and_result(self, relations, technique, pages, policy):
        org_r, org_s, _empty = relations
        assert org_r.tree.height > org_s.tree.height
        for pair in ((org_r, org_s), (org_s, org_r)):  # either side taller
            flat = recorded_join(*pair, technique, pages, policy)
            recursion = recorded_join(*pair, technique, pages, policy, reference.mbr_join_run)
            accesses, groups, result = flat
            assert len(accesses) > 2 and groups and result.result_pairs > 0
            assert accesses == recursion[0]
            assert groups == recursion[1]
            assert result == recursion[2]

    def test_an_empty_side_joins_nothing(self, relations):
        org_r, _, empty = relations
        for pair in ((org_r, empty), (empty, org_r)):
            flat = recorded_join(*pair, "complete", 8, "lru")
            assert flat == recorded_join(*pair, "complete", 8, "lru", reference.mbr_join_run)
            assert flat[:2] == ([], []) and flat[2].result_pairs == 0


# ----------------------------------------------------------------------
# exact refinement against the per-pair predicate
# ----------------------------------------------------------------------
# Lattice lines (shared vertices, collinear overlaps, touches on both
# sides of _EPS) and closed lattice triangles (borders), which ride in
# the same batch.
@st.composite
def lattice_geometry(draw):
    """A lattice polyline (at least two vertices) or, one time in four,
    a lattice triangle closed into a ring."""
    if draw(st.integers(0, 3)):
        return Polyline([draw(lattice_point), *draw(lattice_line)])
    ring = draw(st.lists(lattice_point, min_size=3, max_size=3))
    return Polyline(ring + ring[:1])


def relation(objects) -> SimpleNamespace:
    """What ``_refine`` reads of an organization: its objects by id and
    their geometry column."""
    column = GeometryColumn.of([])
    for obj in objects:
        column.append(obj)
    return SimpleNamespace(
        objects={obj.oid: obj for obj in objects}, column=column.flushed()
    )


@st.composite
def refine_batch(draw):
    """Two relations of lattice objects and candidate pairs in which
    objects repeat on both sides: ``(relation_r, relation_s, pairs)``."""
    relations = [
        relation([
            SpatialObject(base + k, geometry)
            for k, geometry in enumerate(
                draw(st.lists(lattice_geometry(), min_size=1, max_size=6))
            )
        ])
        for base in (0, 1000)
    ]
    ids_r, ids_s = (sorted(relation.objects) for relation in relations)
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(ids_r), st.sampled_from(ids_s)), max_size=16
    ))
    return (*relations, np.array(pairs, dtype=np.int64).reshape(-1, 2))


class TestRefineIsThePerPairPredicate:
    @settings(deadline=None)
    @given(refine_batch())
    def test_refine_property(self, batch):
        """``_refine``'s verdict on every pair is the scalar predicate's,
        gated by the two tight MBRs."""
        relation_r, relation_s, pairs = batch
        with reference.scalar_loops():
            want = [
                a.geometry.mbr.intersects(b.geometry.mbr) and a.intersects(b)
                for a, b in (
                    (relation_r.objects[r], relation_s.objects[s])
                    for r, s in pairs.tolist()
                )
            ]
        assert multistep._refine(relation_r, relation_s, pairs).tolist() == want

    def test_no_pairs(self):
        empty = relation([])
        pairs = np.empty((0, 2), dtype=np.int64)
        assert multistep._refine(empty, empty, pairs).shape == (0,)


# ----------------------------------------------------------------------
# what a join costs, as counts (ROADMAP item A)
# ----------------------------------------------------------------------
def counting_slot(counts: dict, key: str, owner, name: str):
    """A patch of the slot ``owner.name`` that counts its reads."""
    slot = owner.__dict__[name]

    def read(obj):
        counts[key] += 1
        return slot.__get__(obj, owner)

    return patch.object(owner, name, property(read, slot.__set__))


def join_counts() -> dict[str, float]:
    """Run the benchmark's smoke-size ``join_exact`` twin — A-1 ⋈ A-2 at
    scale 0.005, every object stored, a 36-page LRU pool, exact
    refinement — and count what the join costs in calls and cells.
    Machine-independent; CI's ``Size report`` prints them."""
    from repro.data.series import scaled, spec_for
    from repro.data.tiger import generate_map
    from repro.database import SpatialDatabase
    from repro.geometry import intersect
    from repro.iosched.scheduler import SyncScheduler
    from repro.rtree.entry import Entry
    from repro.rtree.node import Node

    spec_r, spec_s = scaled(spec_for("A-1"), 0.005), scaled(spec_for("A-2"), 0.005)
    db = SpatialDatabase(avg_object_size=spec_r.avg_object_size)
    db.build(generate_map(spec_r, seed=1994))
    other = db.attach("s", avg_object_size=spec_s.avg_object_size)
    other.build(generate_map(spec_s, seed=1994, id_offset=10**6))
    for tree in (db.storage.tree, other.storage.tree):
        tree.flat_snapshot()  # built with the trees, not by the join
    counts = dict.fromkeys(
        ("node_plans", "plans", "kernel_calls", "live_segments", "cells",
         "box_cells", "entries_reads", "oid_reads", "coords_calls",
         "object_lookups"), 0
    )
    execute, kernel = SyncScheduler.execute, multistep.polylines_intersect_rows
    enumerate_cells, segment_rule = intersect._cells, intersect._segments_intersect_mask
    coords = Polyline.coords

    class CountingObjects(dict):
        def __getitem__(self, oid):
            counts["object_lookups"] += 1
            return dict.__getitem__(self, oid)

    def spy_execute(scheduler, plan, pool):
        counts["plans"] += 1
        counts["node_plans"] += plan.label == "join.node"
        return execute(scheduler, plan, pool)

    def spy_kernel(*tables_and_rows):
        counts["kernel_calls"] += 1
        return kernel(*tables_and_rows)

    def spy_cells(owner, n):
        counts["live_segments"] += len(owner)
        for i, j in enumerate_cells(owner, n):
            counts["cells"] += len(i)
            yield i, j

    def spy_rule(ax, *rest):
        counts["box_cells"] += len(ax)
        return segment_rule(ax, *rest)

    def spy_coords(line):
        counts["coords_calls"] += 1
        return coords(line)

    with (
        patch.object(SyncScheduler, "execute", spy_execute),
        patch.object(multistep, "polylines_intersect_rows", spy_kernel),
        patch.object(intersect, "_cells", spy_cells),
        patch.object(intersect, "_segments_intersect_mask", spy_rule),
        patch.object(Polyline, "coords", spy_coords),
        counting_slot(counts, "entries_reads", Node, "entries"),
        counting_slot(counts, "oid_reads", Entry, "oid"),
    ):
        for storage in (db.storage, other.storage):
            storage.objects = CountingObjects(storage.objects)
        result = db.join(other, buffer_pages=36, evaluate_exact=True)
    return {
        **counts,
        "candidate_pairs": result.candidate_pairs,
        "result_pairs": result.result_pairs,
        "node_accesses": result.node_accesses,
    }


class TestJoinCounts:
    def test_one_kernel_call_and_no_object_walks_per_join(self):
        """ROADMAP A's ``join_exact`` row.  Exact values: the maps, the
        trees and therefore every count are deterministic."""
        counts = join_counts()
        assert (counts["candidate_pairs"], counts["result_pairs"]) == (424, 152)
        # One plan per node access, as before the flat traversal (whose
        # 32 node-pair pair lists were 32 Python calls); one plan per
        # leaf group is ROADMAP J step 2.
        assert counts["node_plans"] == counts["node_accesses"] == 64
        # One kernel call per join (26, one per leaf group, before).  It
        # enumerates only the cells of segments that reach the other
        # polyline's box, and the hit rule sees the cells whose
        # segment boxes meet.
        assert counts["kernel_calls"] == 1
        assert counts["live_segments"] == 6_952
        assert (counts["cells"], counts["box_cells"]) == (16_179, 1_192)
        # Refinement reads object ids from the flat snapshots, not from
        # the trees' ``Node`` / ``Entry`` objects.
        assert counts["entries_reads"] == counts["oid_reads"] == 0
        # It reads each pair's rows from the geometry columns: no object
        # is looked up, no ``coords`` matrix asked for (384 each when a
        # table of the 225 + 159 distinct candidates was built per join,
        # 848 before that).
        assert counts["object_lookups"] == counts["coords_calls"] == 0


if __name__ == "__main__":  # print MIXED_EXPECTED's rows
    for kinds in MIXED_PAIRS:
        (org_r, _), (org_s, _) = mixed_pair(*kinds)
        for technique in JOIN_TECHNIQUES:
            for pages in MIXED_POOLS:
                row = mixed_transfers(org_r, org_s, technique, pages)[1]
                print(f"    ({'-'.join(kinds)!r}, {technique!r}, {pages}): {row},")
