"""Tests for the spatial join: MBR join correctness, object transfer
buffering semantics, multistep cost accounting."""

from __future__ import annotations

import pytest

from repro.buffer.pool import BufferPool
from repro.disk.allocator import PageAllocator
from repro.disk.model import DiskModel
from repro.errors import ConfigurationError
from repro.geometry.rect import Rect
from repro.join.mbr_join import MBRJoin
from repro.join.multistep import spatial_join
from repro.join.object_access import JOIN_TECHNIQUES, ObjectTransfer
from repro.rtree.rstar import RStarTree

from tests.conftest import build_org, make_objects


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
            (er.oid, es.oid)
            for _, _, pairs in join.run()
            for er, es in pairs
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
        got = {(er.oid, es.oid) for _, _, ps in join.run() for er, es in ps}
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
            assert pairs
            for er, es in pairs:
                assert er in leaf_r.entries and es in leaf_s.entries
                assert er.rect.intersects(es.rect)


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
        entries = leaf.entries[:3]
        transfer.fetch_group(leaf, entries)
        before = org_r.disk.stats()
        transfer.fetch_group(leaf, entries)  # all pages now buffered
        assert (org_r.disk.stats() - before).requests == 0
        assert transfer.buffer_hits >= len(entries)

    def test_cluster_complete_reads_whole_unit_once(self):
        org_r, org_s, _, _ = join_pair("cluster", n=80)
        pool = BufferPool(org_r.disk, capacity=512)
        transfer = ObjectTransfer(org_r, pool, technique="complete")
        leaf = next(org_r.tree.leaves())
        unit = leaf.tag
        before = org_r.disk.stats()
        transfer.fetch_group(leaf, leaf.entries[:1])
        delta = org_r.disk.stats() - before
        assert delta.requests == 1
        assert delta.pages_transferred == min(unit.used_pages, unit.extent.npages)
        # Second object of the same unit: already buffered.
        before = org_r.disk.stats()
        transfer.fetch_group(leaf, leaf.entries[1:2])
        assert (org_r.disk.stats() - before).requests == 0

    def test_vector_read_buffers_less_than_read(self):
        results = {}
        for technique in ("read", "vector"):
            org_r, _, _, _ = join_pair("cluster", n=80)
            pool = BufferPool(org_r.disk, capacity=4096)
            transfer = ObjectTransfer(org_r, pool, technique=technique)
            leaf = next(org_r.tree.leaves())
            transfer.fetch_group(leaf, leaf.entries[:2])
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
        transfer.fetch_group(leaf, leaf.entries[:1])
        delta = org_r.disk.stats() - before
        assert delta.pages_transferred == len(requested)

    def test_primary_inline_needs_only_data_page(self):
        org_r, _, objs_r, _ = join_pair("primary", n=60)
        pool = BufferPool(org_r.disk, capacity=512)
        transfer = ObjectTransfer(org_r, pool)
        leaf = next(org_r.tree.leaves())
        inline_entries = [
            e for e in leaf.entries if org_r.is_inline(e.oid)
        ]
        if inline_entries:
            before = org_r.disk.stats()
            transfer.fetch_group(leaf, inline_entries)
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
