"""Vector kernels against the entry-at-a-time bodies they replaced
(``tests/scalar_reference.py``).

The vector kernels must be *bit-identical* to the entry-at-a-time code —
same result sets, same orders — because the I/O pricing (the committed
figure oracles) depends on tree shapes and visit orders.  These tests
pin that contract on seeded trees, crafted edge cases and, end to end,
on whole databases built and served both ways.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.hilbert import (
    hilbert_index,
    hilbert_indices,
    keys,
    point_key,
    sort_by_hilbert,
)
from repro.geometry.intersect import mbr_intersect_mask
from repro.geometry.polyline import Polyline
from repro.geometry.rect import Rect
from repro.rtree.entry import Entry
from repro.rtree.node import Node
from repro.rtree.rstar import RStarTree

from tests import scalar_reference as reference
from tests.conftest import batch_entries, build_org
from tests.test_rtree_split import split_groups


def random_rect(rng: random.Random, span: float = 100.0) -> Rect:
    x = rng.uniform(0, span)
    y = rng.uniform(0, span)
    return Rect(x, y, x + rng.uniform(0, span / 10), y + rng.uniform(0, span / 10))


def grown(rect: Rect, amount: float) -> Rect:
    return Rect(rect.xmin - amount, rect.ymin - amount, rect.xmax + amount, rect.ymax + amount)


def reference_entries(tree, window) -> list:
    """``tree.window_query(window)`` by the entry-at-a-time walk."""
    return [
        leaf.entries[i]
        for leaf, hits in reference.window_leaves(tree, window)
        for i in hits.tolist()
    ]


@pytest.fixture()
def seeded_tree() -> tuple[RStarTree, list[Rect]]:
    rng = random.Random(42)
    tree = RStarTree(max_entries=16)
    rects = [random_rect(rng) for _ in range(600)]
    for oid, rect in enumerate(rects):
        tree.insert(oid, rect)
    return tree, rects


class TestQueryOrderEquivalence:
    """The node masks return entries in the exact entry-at-a-time
    (stack-DFS) order."""

    def test_window_query_scalar_vs_vectorized(self, seeded_tree):
        tree, _ = seeded_tree
        rng = random.Random(7)
        for _ in range(25):
            window = grown(random_rect(rng, span=80.0), rng.uniform(0, 10))
            vectorized = tree.window_query(window)
            assert vectorized == reference_entries(tree, window)  # same order

    def test_point_query_scalar_vs_vectorized(self, seeded_tree):
        tree, rects = seeded_tree
        rng = random.Random(8)
        for _ in range(25):
            base = rects[rng.randrange(len(rects))]
            x, y = base.center()
            vectorized = tree.point_query(x, y)
            assert vectorized == reference_entries(tree, Rect(x, y, x, y))

    def test_window_leaves(self, seeded_tree):
        tree, _ = seeded_tree
        rng = random.Random(9)
        for _ in range(15):
            window = grown(random_rect(rng, span=80.0), 5.0)
            vector_groups = tree.window_leaves(window)
            scalar_groups = reference.window_leaves(tree, window)
            assert [
                (node.node_id, hits.tolist()) for node, hits in vector_groups
            ] == [(node.node_id, hits.tolist()) for node, hits in scalar_groups]
            for _node, hits in vector_groups:
                assert hits.dtype == np.int64

    def test_batch_queries_match_single_queries(self, seeded_tree):
        tree, rects = seeded_tree
        rng = random.Random(10)
        windows = [grown(random_rect(rng, span=80.0), 3.0) for _ in range(30)]
        points = [rects[rng.randrange(len(rects))].center() for _ in range(30)]
        batch = batch_entries(tree, windows)
        assert batch == [tree.window_query(w) for w in windows]
        assert batch == [reference_entries(tree, w) for w in windows]
        for groups, want in zip(tree._reach(windows).groups(), reference.reach(tree, windows).groups()):
            assert [(leaf, hits.tolist()) for leaf, hits in groups] == [
                (leaf, hits.tolist()) for leaf, hits in want
            ]
        point_batch = batch_entries(tree, [Rect(x, y, x, y) for x, y in points])
        assert point_batch == [tree.point_query(x, y) for x, y in points]

    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_a_block_reaches_each_data_page_once(self, seeded_tree, n):
        """A block of ``n`` windows is one traversal: each data page it
        hits is one ``leaves`` entry, whose runs name its queries in
        ascending order and cover its positions, and each query reaches
        what its own walk reaches."""
        tree, _rects = seeded_tree
        rng = random.Random(11)
        windows = [grown(random_rect(rng, span=80.0), 3.0) for _ in range(n)]
        block, walk = tree._reach(windows), reference.reach(tree, windows)
        alone = [tree._reach([w]) for w in windows]
        pages = [id(leaf) for leaf, _hits, _runs in block.leaves]
        assert len(set(pages)) == len(pages)
        for _leaf, hits, runs in block.leaves:
            queries = [query for query, _count in runs]
            assert queries == sorted(set(queries))
            assert all(count > 0 for _query, count in runs)
            assert sum(count for _query, count in runs) == len(hits)
        assert block.visited == walk.visited == [a.visited[0] for a in alone]
        assert [[(leaf, h.tolist()) for leaf, h in g] for g in block.groups()] == [
            [(leaf, h.tolist()) for leaf, h in g] for g in walk.groups()
        ]
        assert block.hits == walk.hits == sum(a.hits for a in alone)
        # The walk reaches a page once per query hitting it, the block once.
        assert (len(block.leaves) < len(walk.leaves)) == (n > 1)

    def test_batch_query_pricing_matches_per_query_read_count(self):
        from repro.disk.allocator import PageAllocator
        from repro.disk.model import DiskModel
        from repro.rtree.pager import NodePager

        def build(disk):
            pager = NodePager(
                disk, PageAllocator().region("t"), directory_resident=True
            )
            tree = RStarTree(max_entries=8, pager=pager)
            rng = random.Random(3)
            for oid in range(200):
                tree.insert(oid, random_rect(rng))
            pager.flush()
            return tree, disk

        rng = random.Random(4)
        windows = [grown(random_rect(rng, span=80.0), 4.0) for _ in range(10)]

        tree_a, disk_a = build(DiskModel())
        before_a = disk_a.stats()
        for visited in tree_a._reach(windows).visited:
            for node in visited:
                tree_a.pager.read(node)
        batch = disk_a.stats() - before_a

        tree_b, disk_b = build(DiskModel())
        before_b = disk_b.stats()
        for w in windows:
            tree_b.window_query(w)
        single = disk_b.stats() - before_b
        # Same reads in the same order -> same counts and same time.
        assert batch.requests == single.requests
        assert batch.pages_transferred == single.pages_transferred
        assert batch.total_ms == single.total_ms


def join_pairs(rects_r: list[Rect], rects_s: list[Rect]) -> list[tuple[int, int]]:
    """The candidate pairs ``MBRJoin.run`` yields for two one-leaf
    trees holding the rectangles in order (oid = position)."""
    from repro.buffer.pool import BufferPool
    from repro.disk.model import DiskModel
    from repro.join.mbr_join import MBRJoin

    trees = []
    for rects in (rects_r, rects_s):
        tree = RStarTree(max_entries=64)
        for oid, rect in enumerate(rects):
            tree.insert(oid, rect)
        trees.append(tree)
    join = MBRJoin(*trees, BufferPool(DiskModel(), capacity=8))
    return [tuple(pair) for *_leaves, pairs in join.run() for pair in pairs.tolist()]


class TestIntersectingPairsOrder:
    """Satellite: the join's pair order is pinned — stable sort on
    max(xmin, xmin), row-major within ties — and disjoint or empty
    nodes yield nothing; the flat traversal against the recursion's
    pair list."""

    @staticmethod
    def _leaf(rects: list[Rect], node_id: int = 0) -> Node:
        return Node(
            node_id, 0, [Entry(r, oid=i) for i, r in enumerate(rects)]
        )

    def test_pair_order_pinned_with_ties(self):
        # All four pairs share identical xmin keys -> ties must keep
        # row-major (i, j) candidate order.
        rects_r = [Rect(0, 0, 2, 2), Rect(0, 5, 2, 7)]
        rects_s = [Rect(0, 1, 2, 6), Rect(0, 0, 2, 8)]
        expected = [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert join_pairs(rects_r, rects_s) == expected
        assert reference.intersecting_pairs(
            self._leaf(rects_r), self._leaf(rects_s, 1)
        ) == expected

    def test_pair_order_sorted_by_max_xmin(self):
        rects_r = [Rect(4, 0, 9, 9), Rect(0, 0, 5, 9)]
        rects_s = [Rect(2, 0, 6, 9), Rect(0, 0, 1, 9)]
        pairs = join_pairs(rects_r, rects_s)
        # keys: (0,0)->4, (1,0)->2, (1,1)->0; (0,1) disjoint (4 > 1)
        assert pairs == [(1, 1), (1, 0), (0, 0)]
        assert reference.intersecting_pairs(
            self._leaf(rects_r), self._leaf(rects_s, 1)
        ) == pairs

    def test_scalar_and_vector_agree_on_random_nodes(self):
        rng = random.Random(11)
        for _ in range(20):
            rects_r = [random_rect(rng) for _ in range(17)]
            rects_s = [random_rect(rng) for _ in range(23)]
            assert join_pairs(rects_r, rects_s) == reference.intersecting_pairs(
                self._leaf(rects_r), self._leaf(rects_s, 1)
            )

    def test_disjoint_nodes_return_early(self):
        assert join_pairs(
            [Rect(0, 0, 1, 1), Rect(1, 1, 2, 2)], [Rect(10, 10, 11, 11)]
        ) == []

    def test_empty_nodes(self):
        assert join_pairs([], [Rect(0, 0, 1, 1)]) == []
        assert join_pairs([Rect(0, 0, 1, 1)], []) == []


class TestSplitEquivalence:
    def test_split_scalar_vs_vectorized(self):
        rng = random.Random(12)
        for n in (2, 3, 5, 16, 60, 89, 120):
            entries = [
                Entry(random_rect(rng), oid=i) for i in range(n)
            ]
            g1, g2 = split_groups(entries)
            s1, s2 = split_groups(entries, split=reference.rstar_split)
            assert [e.oid for e in g1] == [e.oid for e in s1]
            assert [e.oid for e in g2] == [e.oid for e in s2]

    def test_split_with_degenerate_ties(self):
        # Identical rectangles: every distribution ties; both paths must
        # pick the same (first) one.
        entries = [Entry(Rect(0, 0, 1, 1), oid=i) for i in range(10)]
        g1, g2 = split_groups(entries)
        s1, s2 = split_groups(entries, split=reference.rstar_split)
        assert [e.oid for e in g1] == [e.oid for e in s1]
        assert [e.oid for e in g2] == [e.oid for e in s2]

    def test_identical_trees_with_the_reference_split(self, monkeypatch):
        rng = random.Random(13)
        rects = [random_rect(rng) for _ in range(400)]
        vector_tree = RStarTree(max_entries=8)
        for oid, rect in enumerate(rects):
            vector_tree.insert(oid, rect)
        monkeypatch.setattr("repro.rtree.rstar.rstar_split", reference.rstar_split)
        scalar_tree = RStarTree(max_entries=8)
        for oid, rect in enumerate(rects):
            scalar_tree.insert(oid, rect)

        def shape(tree):
            return [
                (node.level, [e.oid for e in node.entries if e.child is None],
                 node.mbr().as_tuple())
                for node in tree.nodes()
            ]

        assert shape(vector_tree) == shape(scalar_tree)


class TestHilbertKernels:
    def test_hilbert_indices_match_scalar(self):
        rng = random.Random(14)
        for order in (1, 4, 8, 16):
            side = 1 << order
            gx = np.array([rng.randrange(side) for _ in range(200)])
            gy = np.array([rng.randrange(side) for _ in range(200)])
            batched = hilbert_indices(gx, gy, order)
            for x, y, d in zip(gx.tolist(), gy.tolist(), batched.tolist()):
                assert d == hilbert_index(x, y, order)

    def test_keys_match_point_key(self):
        rng = random.Random(15)
        pts = np.array(
            [(rng.uniform(-1, 101), rng.uniform(-1, 101)) for _ in range(100)]
        )
        batched = keys(pts, data_space=100.0)
        for (x, y), k in zip(pts.tolist(), batched.tolist()):
            assert k == point_key(x, y, 100.0)

    def test_sort_by_hilbert_matches_the_per_object_sort(self):
        from repro.geometry.feature import SpatialObject

        rng = random.Random(16)
        objects = []
        for oid in range(150):
            x, y = rng.uniform(0, 90), rng.uniform(0, 90)
            objects.append(
                SpatialObject(
                    oid, Polyline([(x, y), (x + rng.uniform(0.1, 5), y + 1)])
                )
            )
        # Duplicated centres: equal keys must keep their input order.
        objects += [SpatialObject(1000 + o.oid, o.geometry) for o in objects[::7]]
        vector_order = [o.oid for o in sort_by_hilbert(objects, 100.0)]
        scalar_order = [o.oid for o in reference.sort_by_hilbert(objects, 100.0)]
        assert vector_order == scalar_order

    def test_out_of_grid_cells_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            hilbert_indices(np.array([16]), np.array([0]), 4)


class TestRefinementKernels:
    def test_mbr_intersect_mask_matches_rect(self):
        rng = random.Random(17)
        rect_pairs = [(random_rect(rng), random_rect(rng)) for _ in range(300)]
        a = np.array([r.as_tuple() for r, _ in rect_pairs])
        b = np.array([s.as_tuple() for _, s in rect_pairs])
        mask = mbr_intersect_mask(a, b)
        for (r, s), hit in zip(rect_pairs, mask.tolist()):
            assert hit == r.intersects(s)

    def test_polyline_predicates_scalar_vs_vectorized(self):
        rng = random.Random(18)

        def random_line(n):
            x, y = rng.uniform(0, 50), rng.uniform(0, 50)
            pts = [(x, y)]
            for _ in range(n - 1):
                x += rng.uniform(-3, 3)
                y += rng.uniform(-3, 3)
                pts.append((x, y))
            return Polyline(pts)

        # Straddle the vector-kernel thresholds (64 vertices for rect
        # tests, 128 segment-pair cells for line/line).
        lines = [random_line(rng.randrange(2, 90)) for _ in range(40)]
        rects = [random_rect(rng, span=50.0) for _ in range(20)]
        for line in lines:
            other = lines[rng.randrange(len(lines))]
            vector_ll = line.intersects(other)
            vector_rects = [line.intersects_rect(r) for r in rects]
            with reference.scalar_loops():
                assert line.intersects(other) == vector_ll
                assert [line.intersects_rect(r) for r in rects] == vector_rects

    def test_polyline_eps_boundary_case(self):
        # A polyline a hair outside the rectangle (long enough for the
        # vector kernel): the per-segment MBR pretest must reject every
        # segment in the kernel and in the loop (the eps-tolerant edge
        # tests alone would accept them).
        x = 2.0 + 1e-13
        line = Polyline([(x, i / 100.0) for i in range(80)])
        rect = Rect(0.0, 0.0, 2.0, 1.0)
        vectorized = line.intersects_rect(rect)
        assert vectorized is False
        with reference.scalar_loops():
            assert line.intersects_rect(rect) == vectorized

    @pytest.mark.parametrize("kind", ["secondary", "primary", "cluster"])
    def test_join_result_pairs_match_the_reference(self, kind, monkeypatch):
        """Pairs of 120..3500 cells (the cross-pair kernel's range, not
        the scalar crossover's) with closed rings mixed into one relation:
        the same join as the per-pair reference and the brute-force
        count — and, as shipped, through one cross-pair kernel call per
        join, not pair by pair or group by group."""
        from repro.disk.allocator import PageAllocator
        from repro.disk.model import DiskModel
        from repro.geometry.feature import SpatialObject
        from repro.join import multistep

        rng = random.Random(19)

        def walk(n, step):
            x, y = rng.uniform(0, 40), rng.uniform(0, 40)
            pts = [(x, y)]
            for _ in range(n - 1):
                x += rng.uniform(-step, step)
                y += rng.uniform(-step, step)
                pts.append((x, y))
            return pts

        def make_objects(offset, ring_every=None):
            objects = []
            for i in range(80):
                if ring_every and i % ring_every == 0:
                    x, y = rng.uniform(0, 40), rng.uniform(0, 40)
                    w, h = rng.uniform(1, 6), rng.uniform(1, 6)
                    geometry = Polyline(
                        [(x, y), (x + w, y), (x + w, y + h), (x, y + h), (x, y)]
                    )
                else:
                    geometry = Polyline(walk(rng.randrange(12, 61), 1.0))
                objects.append(SpatialObject(offset + i, geometry))
            return objects

        disk, allocator = DiskModel(), PageAllocator()
        objs_r, objs_s = make_objects(0), make_objects(1000, ring_every=8)
        shared = dict(disk=disk, allocator=allocator, max_entries=16)  # many leaves
        org_r = build_org(kind, objs_r, region_prefix="r", **shared)
        org_s = build_org(kind, objs_s, region_prefix="s", **shared)

        # Work counters (ROADMAP A(iii)): a silent fall-back to the
        # per-pair path fails here instead of in a benchmark.
        groups, kernel_calls, per_pair_calls = [], [], []
        run = multistep.MBRJoin.run
        kernel = multistep.polylines_intersect_rows
        per_pair = Polyline.intersects

        def counting_run(mbr_join):
            for group in run(mbr_join):
                groups.append(group)
                yield group

        def counting_kernel(table_a, rows_a, table_b, rows_b):
            kernel_calls.append(len(rows_a))
            return kernel(table_a, rows_a, table_b, rows_b)

        def counting_per_pair(line, other):
            per_pair_calls.append(1)
            return per_pair(line, other)

        monkeypatch.setattr(multistep.MBRJoin, "run", counting_run)
        monkeypatch.setattr(multistep, "polylines_intersect_rows", counting_kernel)
        monkeypatch.setattr(Polyline, "intersects", counting_per_pair)

        vector_result = multistep.spatial_join(
            org_r, org_s, buffer_pages=64, evaluate_exact=True
        )
        assert len(kernel_calls) == 1 and len(groups) > 1
        assert not per_pair_calls
        line_pairs = sum(kernel_calls)
        del kernel_calls[:]
        with reference.scalar_loops():
            monkeypatch.setattr(multistep, "_refine", reference.join_refine)
            scalar_result = multistep.spatial_join(
                org_r, org_s, buffer_pages=64, evaluate_exact=True
            )
        assert not kernel_calls and len(per_pair_calls) >= line_pairs > 0

        assert vector_result.result_pairs == scalar_result.result_pairs
        assert vector_result.candidate_pairs == scalar_result.candidate_pairs
        assert vector_result.io_ms == scalar_result.io_ms
        with reference.scalar_loops():
            brute_force = sum(
                a.mbr.intersects(b.mbr) and a.intersects(b)
                for a in objs_r
                for b in objs_s
            )
        assert vector_result.result_pairs == brute_force > 0


class TestReferenceKernelsBuildTheSameDatabase:
    """Every database is built and served twice — as shipped, and with
    the entry-at-a-time bodies of ``tests/scalar_reference.py`` patched
    over the tree walk, the split, the join's traversal, the Hilbert
    sort, both refinement steps and the geometry crossovers (nothing
    under ``src/`` can select them) — and must come out the same:
    answers in order, per-query counters and I/O, the catalog after a
    delete + re-insert round, and the join."""

    @staticmethod
    def lifecycle(kind: str, scheduler: str, order: str):
        from repro.data.series import scaled, spec_for
        from repro.data.tiger import generate_map
        from repro.data.workload import window_workload
        from repro.database import SpatialDatabase
        from repro.geometry.feature import SpatialObject
        from repro.storage.serial import dump_state, encode_catalog

        spec = scaled(spec_for("A-1"), 0.005)
        objects = generate_map(spec, seed=1994)
        # Twins share a centre, so their Hilbert keys tie.
        objects += [
            SpatialObject(20_000 + i, obj.geometry, obj.size_bytes)
            for i, obj in enumerate(objects[::25])
        ]
        others = generate_map(
            scaled(spec_for("A-2"), 0.005), seed=1994, id_offset=10**6
        )
        db = SpatialDatabase(
            organization=kind, scheduler=scheduler, avg_object_size=spec.avg_object_size
        )
        construction = db.storage.build(objects, order=order)
        rng = random.Random(5)
        windows = window_workload(objects, 1e-3, n_queries=12, seed=101)
        windows += window_workload(objects, 2e-2, n_queries=4, seed=102)
        points = [
            rng.choice(obj.geometry.vertices) for obj in rng.sample(objects, 12)
        ] + [obj.mbr.center() for obj in rng.sample(objects, 4)]

        def served(results):
            return [
                (
                    [o.oid for o in r.objects],
                    r.candidates,
                    r.exact_tests,
                    r.bytes_retrieved,
                    r.io,
                )
                for r in results
            ]

        def serve():
            org = db.storage
            singles = []
            for i, window in enumerate(windows):
                with db.scheduler.operation(f"client{i % 2}"):
                    singles.append(org.window_query(window))
            for i, (x, y) in enumerate(points):
                with db.scheduler.operation(f"client{i % 2}"):
                    singles.append(org.point_query(x, y))
            batches = org.window_query_batch(windows) + org.point_query_batch(points)
            return served(singles), served(batches)

        before_round = serve()
        doomed = objects[100:400]
        for obj in doomed:
            db.delete(obj.oid)
        for i, obj in enumerate(doomed[::2]):
            db.insert(SpatialObject(10_000 + i, obj.geometry, obj.size_bytes))
        after_round = serve()
        other = db.attach("s", organization=kind, avg_object_size=spec.avg_object_size)
        other.storage.build(others, order=order)
        join = db.join(other, buffer_pages=64, evaluate_exact=True)
        tree = db.storage.tree
        return {
            "construction": construction,
            "tree": (tree.splits, tree.leaf_splits, tree.reinserts, tree.height),
            "before_round": before_round,
            "after_round": after_round,
            "catalog": encode_catalog(dump_state(db)),
            "join": (join.candidate_pairs, join.result_pairs, join.io_ms),
            "disk": db.io_stats(),
        }

    @pytest.mark.parametrize("order", ["insertion", "hilbert"])
    @pytest.mark.parametrize("scheduler", ["sync", "overlap"])
    @pytest.mark.parametrize("kind", ["secondary", "primary", "cluster"])
    def test_same_answers_io_catalog_and_join(self, kind, scheduler, order):
        shipped = self.lifecycle(kind, scheduler, order)
        with reference.installed():
            expected = self.lifecycle(kind, scheduler, order)
        assert shipped["join"][1] > 0
        assert sum(len(oids) for oids, *_ in shipped["after_round"][1]) > 0
        assert shipped["catalog"] == expected["catalog"], "the catalogs differ"
        for key in shipped:
            assert shipped[key] == expected[key], key
