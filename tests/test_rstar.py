"""Correctness and invariant tests for the R*-tree."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.disk.allocator import PageAllocator
from repro.disk.model import DiskModel
from repro.geometry.rect import Rect
from repro.rtree.capacity import ByteCapacity, CountOrByteCapacity
from repro.rtree.node import Node
from repro.rtree.pager import NodePager
from repro.rtree.rstar import RStarTree
from repro.rtree.stats import tree_stats

from tests import scalar_reference as reference
from tests.conftest import allocated_pages
from tests.test_rtree_split import (
    on_block,
    reference_least_area_enlargement,
    reference_least_overlap_enlargement,
)


def check_invariants(tree: RStarTree) -> None:
    """Structural R*-tree invariants:

    * parent directory rect == union of the child's entry rects,
    * parent pointers consistent,
    * all leaves on level 0 and equally deep,
    * non-root nodes non-empty,
    * node levels decrease by one per step.
    """
    depths = set()

    def visit(node: Node, depth: int) -> None:
        if node is not tree.root:
            assert node.entries, "non-root node must not be empty"
        if node.is_leaf:
            depths.add(depth)
            for e in node.entries:
                assert e.child is None and e.oid is not None
            return
        for e in node.entries:
            child = e.child
            assert child is not None
            assert child.parent is node
            assert child.level == node.level - 1
            assert e.rect == child.mbr(), (
                f"directory rect {e.rect} != child MBR {child.mbr()}"
            )
            visit(child, depth + 1)

    visit(tree.root, 0)
    assert len(depths) <= 1, "leaves at different depths"
    assert tree.height == (next(iter(depths)) + 1 if depths else 1)
    assert tree.leaf_count == sum(1 for _ in tree.leaves())


def random_rects(n: int, seed: int, span: float = 1000.0) -> list[Rect]:
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        x, y = rng.uniform(0, span), rng.uniform(0, span)
        out.append(Rect(x, y, x + rng.uniform(0, 10), y + rng.uniform(0, 10)))
    return out


class TestInsertQuery:
    def test_empty_tree(self):
        tree = RStarTree(max_entries=8)
        assert len(tree) == 0
        assert tree.window_query(Rect(0, 0, 100, 100)) == []
        assert tree.point_query(1, 1) == []

    def test_single_insert(self):
        tree = RStarTree(max_entries=8)
        tree.insert(1, Rect(0, 0, 1, 1))
        assert len(tree) == 1
        assert [e.oid for e in tree.window_query(Rect(0, 0, 2, 2))] == [1]

    def test_window_query_matches_brute_force(self):
        rects = random_rects(500, seed=3)
        tree = RStarTree(max_entries=8)
        for i, r in enumerate(rects):
            tree.insert(i, r)
        check_invariants(tree)
        for q in random_rects(40, seed=4, span=900):
            window = Rect(q.xmin, q.ymin, q.xmin + 60, q.ymin + 60)
            got = sorted(e.oid for e in tree.window_query(window))
            want = sorted(i for i, r in enumerate(rects) if r.intersects(window))
            assert got == want

    def test_point_query_matches_brute_force(self):
        rects = random_rects(300, seed=5)
        tree = RStarTree(max_entries=8)
        for i, r in enumerate(rects):
            tree.insert(i, r)
        rng = random.Random(6)
        for _ in range(50):
            x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
            got = sorted(e.oid for e in tree.point_query(x, y))
            want = sorted(i for i, r in enumerate(rects) if r.contains_point(x, y))
            assert got == want

    def test_duplicate_rects_supported(self):
        tree = RStarTree(max_entries=4)
        r = Rect(0, 0, 1, 1)
        for i in range(50):
            tree.insert(i, r)
        assert len(tree.window_query(r)) == 50
        check_invariants(tree)

    def test_fill_factor_reasonable(self):
        rects = random_rects(3000, seed=7)
        tree = RStarTree()  # paper fan-out 89
        for i, r in enumerate(rects):
            tree.insert(i, r)
        stats = tree_stats(tree)
        assert 0.55 <= stats.avg_leaf_fill <= 0.95
        assert stats.height >= 2

    def test_payload_and_load_kept(self):
        tree = RStarTree(max_entries=4)
        entry = tree.insert(1, Rect(0, 0, 1, 1), load=123, payload="locator")
        assert entry.load == 123 and entry.payload == "locator"

    def test_window_leaves_groups(self):
        rects = random_rects(200, seed=8)
        tree = RStarTree(max_entries=8)
        for i, r in enumerate(rects):
            tree.insert(i, r)
        window = Rect(100, 100, 400, 400)
        groups = tree.window_leaves(window)
        flat = sorted(leaf.entries[i].oid for leaf, hits in groups for i in hits)
        want = sorted(e.oid for e in tree.window_query(window))
        assert flat == want
        for leaf, hits in groups:
            assert leaf.is_leaf and len(hits)
            assert hits.tolist() == sorted(set(hits.tolist()))
            assert 0 <= hits.min() and hits.max() < len(leaf.entries)


class TestDelete:
    def test_delete_missing_raises(self):
        tree = RStarTree(max_entries=4)
        tree.insert(1, Rect(0, 0, 1, 1))
        with pytest.raises(KeyError):
            tree.delete(2, Rect(0, 0, 1, 1))
        with pytest.raises(KeyError):
            tree.delete(1, Rect(0, 0, 2, 2))

    def test_delete_all(self):
        rects = random_rects(300, seed=11)
        tree = RStarTree(max_entries=8)
        for i, r in enumerate(rects):
            tree.insert(i, r)
        order = list(range(300))
        random.Random(12).shuffle(order)
        for i in order:
            tree.delete(i, rects[i])
        assert len(tree) == 0
        assert tree.window_query(Rect(0, 0, 2000, 2000)) == []
        assert tree.height == 1

    def test_interleaved_insert_delete_query(self):
        rng = random.Random(13)
        tree = RStarTree(max_entries=6)
        live: dict[int, Rect] = {}
        next_id = 0
        for step in range(800):
            action = rng.random()
            if action < 0.55 or not live:
                x, y = rng.uniform(0, 500), rng.uniform(0, 500)
                r = Rect(x, y, x + rng.uniform(0, 5), y + rng.uniform(0, 5))
                tree.insert(next_id, r)
                live[next_id] = r
                next_id += 1
            elif action < 0.8:
                oid = rng.choice(list(live))
                tree.delete(oid, live.pop(oid))
            else:
                x, y = rng.uniform(0, 450), rng.uniform(0, 450)
                window = Rect(x, y, x + 50, y + 50)
                got = sorted(e.oid for e in tree.window_query(window))
                want = sorted(
                    oid for oid, r in live.items() if r.intersects(window)
                )
                assert got == want
            if step % 100 == 99:
                check_invariants(tree)
        check_invariants(tree)

    def test_condense_shrinks_height(self):
        rects = random_rects(2000, seed=14)
        tree = RStarTree(max_entries=8)
        for i, r in enumerate(rects):
            tree.insert(i, r)
        h = tree.height
        assert h >= 3
        for i in range(1990):
            tree.delete(i, rects[i])
        assert tree.height < h
        check_invariants(tree)


class TestVariants:
    def test_no_leaf_reinsert_mode(self):
        tree = RStarTree(max_entries=8, leaf_reinsert=False)
        for i, r in enumerate(random_rects(400, seed=15)):
            tree.insert(i, r)
        check_invariants(tree)
        # directory reinserts may still happen, leaf reinserts never:
        # with leaf_reinsert=False every leaf overflow splits.
        assert tree.leaf_splits > 0

    def test_byte_capacity_tree(self):
        tree = RStarTree(max_entries=64, leaf_capacity=ByteCapacity(1000))
        rng = random.Random(16)
        for i, r in enumerate(random_rects(200, seed=16)):
            tree.insert(i, r, load=rng.randrange(100, 700))
        check_invariants(tree)
        for leaf in tree.leaves():
            assert len(leaf.entries) == 1 or leaf.load() <= 1000

    def test_count_or_byte_capacity_tree(self):
        tree = RStarTree(
            max_entries=8,
            leaf_capacity=CountOrByteCapacity(8, 5000),
            leaf_reinsert=False,
        )
        rng = random.Random(17)
        for i, r in enumerate(random_rects(300, seed=17)):
            tree.insert(i, r, load=rng.randrange(100, 2000))
        check_invariants(tree)
        for leaf in tree.leaves():
            assert len(leaf.entries) <= 8
            assert len(leaf.entries) == 1 or leaf.load() <= 5000

    def test_leaf_split_handler_called(self):
        events = []
        tree = RStarTree(
            max_entries=4,
            leaf_reinsert=False,
            leaf_split_handler=lambda old, new: events.append((old.node_id, new.node_id)),
        )
        for i, r in enumerate(random_rects(50, seed=18)):
            tree.insert(i, r)
        assert events, "splits must fire the handler"
        assert len(events) == tree.leaf_splits

    def test_entry_added_handler_sees_every_data_entry(self):
        seen = []
        tree = RStarTree(
            max_entries=4,
            leaf_reinsert=False,
            entry_added_handler=lambda leaf, e: seen.append(e.oid),
        )
        for i, r in enumerate(random_rects(60, seed=19)):
            tree.insert(i, r)
        assert sorted(set(seen)) == list(range(60))

    def test_invalid_parameters(self):
        from repro.errors import TreeError

        with pytest.raises(TreeError):
            RStarTree(min_fill_fraction=0.9)
        with pytest.raises(TreeError):
            RStarTree(reinsert_fraction=0.0)


class TestPagedTree:
    def make_paged(self, buffer=None, directory_resident=False):
        disk = DiskModel()
        region = PageAllocator().region("tree")
        pager = NodePager(disk, region, buffer_capacity=buffer,
                          directory_resident=directory_resident)
        return RStarTree(max_entries=8, pager=pager), disk

    def test_unbuffered_queries_price_each_node(self):
        tree, disk = self.make_paged()
        for i, r in enumerate(random_rects(200, seed=20)):
            tree.insert(i, r)
        before = disk.stats()
        tree.window_query(Rect(0, 0, 1000, 1000))
        delta = disk.stats() - before
        assert delta.requests == tree.node_count()

    def test_directory_resident_prices_leaves_only(self):
        tree, disk = self.make_paged(directory_resident=True)
        for i, r in enumerate(random_rects(200, seed=21)):
            tree.insert(i, r)
        before = disk.stats()
        tree.window_query(Rect(0, 0, 1000, 1000))
        delta = disk.stats() - before
        assert delta.requests == tree.leaf_count

    def test_buffered_construction_cheaper(self):
        unbuffered_tree, unbuffered_disk = self.make_paged()
        buffered_tree, buffered_disk = self.make_paged(buffer=512)
        for i, r in enumerate(random_rects(300, seed=22)):
            unbuffered_tree.insert(i, r)
            buffered_tree.insert(i, r)
        if buffered_tree.pager is not None:
            buffered_tree.pager.flush()
        assert buffered_disk.total_ms < unbuffered_disk.total_ms

    def test_retired_pages_freed(self):
        tree, disk = self.make_paged()
        rects = random_rects(300, seed=23)
        for i, r in enumerate(rects):
            tree.insert(i, r)
        pages_before = allocated_pages(tree.pager.region)
        for i in range(290):
            tree.delete(i, rects[i])
        assert allocated_pages(tree.pager.region) < pages_before
        assert allocated_pages(tree.pager.region) == tree.node_count()


class TestDeleteDescentTwin:
    """Delete's descent picks the children to visit with one
    ``Rect.contains`` mask per directory node, and visits them in entry
    order: the pages it reads, in order, and what they cost equal the
    entry-by-entry loop's (``tests/scalar_reference.py``) over a
    generated insert / delete sequence."""

    @staticmethod
    def run(seed: int) -> tuple[list[int], object, list]:
        disk = DiskModel()
        pager = NodePager(disk, PageAllocator().region("tree"))
        tree = RStarTree(max_entries=6, pager=pager)
        visits: list[int] = []
        read = tree._read
        tree._read = lambda node: (visits.append(node.node_id), read(node))
        rng = random.Random(seed)
        live: dict[int, Rect] = {}
        for oid in range(500):
            # A coarse grid: duplicates and nested rectangles make several
            # directory entries contain a deleted one.
            x, y = rng.randrange(30), rng.randrange(30)
            live[oid] = Rect(x, y, x + rng.randrange(3), y + rng.randrange(3))
            tree.insert(oid, live[oid])
            if oid % 3 == 2:
                gone = rng.choice(sorted(live))
                tree.delete(gone, live.pop(gone))
        for gone in sorted(live)[::2]:
            tree.delete(gone, live.pop(gone))
        with pytest.raises(KeyError):
            tree.delete(10**6, Rect(0, 0, 1, 1))
        check_invariants(tree)
        shape = [(n.node_id, [e.oid for e in n.entries]) for n in tree.nodes()]
        return visits, disk.stats(), shape

    @pytest.mark.parametrize("seed", [3, 11])
    def test_same_visits_and_io_as_the_entry_loop(self, seed, monkeypatch):
        shipped = self.run(seed)
        monkeypatch.setattr(RStarTree, "_find_leaf", reference.find_leaf)
        expected = self.run(seed)
        assert shipped[0] == expected[0]
        assert shipped[1] == expected[1]
        assert shipped[2] == expected[2]


class TestTreeStats:
    def test_counts(self):
        tree = RStarTree(max_entries=8)
        for i, r in enumerate(random_rects(200, seed=24)):
            tree.insert(i, r)
        st_ = tree_stats(tree)
        assert st_.data_entries == 200
        assert st_.leaf_count == tree.leaf_count
        assert st_.leaf_count + st_.directory_count == tree.node_count()
        assert st_.nodes_per_level[0] == st_.leaf_count
        assert st_.avg_entries_per_leaf == pytest.approx(200 / st_.leaf_count)

    def test_empty_tree_stats(self):
        st_ = tree_stats(RStarTree())
        assert st_.data_entries == 0
        assert st_.leaf_count == 1


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0, 100, allow_nan=False),
                st.floats(0, 100, allow_nan=False),
                st.floats(0, 5, allow_nan=False),
                st.floats(0, 5, allow_nan=False),
            ),
            min_size=1,
            max_size=120,
        )
    )
    def test_full_scan_returns_everything(self, raw):
        tree = RStarTree(max_entries=5)
        for i, (x, y, w, h) in enumerate(raw):
            tree.insert(i, Rect(x, y, x + w, y + h))
        check_invariants(tree)
        everything = Rect(-1, -1, 200, 200)
        assert sorted(e.oid for e in tree.window_query(everything)) == list(
            range(len(raw))
        )

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_random_operation_sequences(self, data):
        tree = RStarTree(max_entries=4)
        live: dict[int, Rect] = {}
        next_id = 0
        n_ops = data.draw(st.integers(10, 80))
        for _ in range(n_ops):
            if live and data.draw(st.booleans()):
                oid = data.draw(st.sampled_from(sorted(live)))
                tree.delete(oid, live.pop(oid))
            else:
                x = data.draw(st.floats(0, 50, allow_nan=False))
                y = data.draw(st.floats(0, 50, allow_nan=False))
                r = Rect(x, y, x + 1, y + 1)
                tree.insert(next_id, r)
                live[next_id] = r
                next_id += 1
        check_invariants(tree)
        got = sorted(e.oid for e in tree.window_query(Rect(-10, -10, 100, 100)))
        assert got == sorted(live)


# ----------------------------------------------------------------------
# the covering shortcut builds the trees the full criterion builds
# ----------------------------------------------------------------------
class TestSameTreesAsTheReferenceChooser:
    """Every database is built twice — as shipped, and with the tree's
    two ChooseSubtree criteria swapped for the rect-matrix bodies they
    replaced (kept in ``tests/test_rtree_split.py``, called on the
    node's block through ``on_block``; nothing under ``src/`` can
    select them) — and must come out the same to the byte: catalog,
    split and reinsert counters, construction I/O and the I/O of a
    delete + re-insert round."""

    # M = 8 makes the trees four levels tall, so the deletes dissolve
    # directory nodes and condensation re-inserts above the data pages.
    KNOBS = {
        "cluster": dict(organization="cluster"),
        "secondary": dict(organization="secondary"),
        "primary": dict(organization="primary"),
        "cluster-M8": dict(organization="cluster", max_entries=8),
        "secondary-M8": dict(organization="secondary", max_entries=8),
    }

    @staticmethod
    def lifecycle(series: str, knobs: dict):
        from repro.data.series import scaled, spec_for
        from repro.data.tiger import generate_map
        from repro.database import SpatialDatabase
        from repro.geometry.feature import SpatialObject
        from repro.storage.serial import dump_state, encode_catalog

        spec = scaled(spec_for(series), 0.005)
        objects = generate_map(spec, seed=1994)
        db = SpatialDatabase(avg_object_size=spec.avg_object_size, **knobs)
        construction = db.build(objects)
        tree = db.storage.tree
        built = (tree.splits, tree.leaf_splits, tree.reinserts)
        # Neighbours in the map are neighbours in id order: dropping a
        # run empties whole data pages (and, at M = 8, whole subtrees).
        doomed = objects[100:400]
        for obj in doomed:
            db.delete(obj.oid)
        for i, obj in enumerate(doomed[::2]):
            db.insert(SpatialObject(10_000 + i, obj.geometry, obj.size_bytes))
        return (
            encode_catalog(dump_state(db)),
            built,
            (tree.splits, tree.leaf_splits, tree.reinserts),
            construction,
            db.io_stats(),
        )

    @pytest.mark.parametrize("series", ["A-1", "A-2"])
    @pytest.mark.parametrize("name", sorted(KNOBS))
    def test_same_catalog_counters_and_io(self, series, name, monkeypatch):
        calls = {"reference": 0, "area_reference": 0, "condensing": 0, "above_leaves": 0}

        def counted(key, reference):
            def criterion(*args):
                calls[key] += 1
                return on_block(reference)(*args)

            return criterion

        raw_insert, raw_condense = RStarTree._insert, RStarTree._condense

        def counting_insert(tree, entry, level):
            calls["above_leaves"] += calls["condensing"] and level > 0
            return raw_insert(tree, entry, level)

        def scoped_condense(tree, node):
            calls["condensing"] += 1
            try:
                return raw_condense(tree, node)
            finally:
                calls["condensing"] -= 1

        shipped = self.lifecycle(series, self.KNOBS[name])
        monkeypatch.setattr(
            "repro.rtree.rstar.least_overlap_enlargement",
            counted("reference", reference_least_overlap_enlargement),
        )
        monkeypatch.setattr(
            "repro.rtree.rstar.least_area_enlargement",
            counted("area_reference", reference_least_area_enlargement),
        )
        monkeypatch.setattr(RStarTree, "_insert", counting_insert)
        monkeypatch.setattr(RStarTree, "_condense", scoped_condense)
        expected = self.lifecycle(series, self.KNOBS[name])
        assert calls["reference"] > 500
        if name.endswith("M8"):
            assert calls["above_leaves"] > 0
            assert calls["area_reference"] > 500
        assert shipped[0] == expected[0], "the catalogs differ"
        assert shipped[1:] == expected[1:]

    @pytest.mark.parametrize("leaf_reinsert", [True, False])
    def test_same_bare_tree(self, leaf_reinsert, monkeypatch):
        def grow() -> list[tuple]:
            rng = random.Random(7)
            tree = RStarTree(max_entries=6, leaf_reinsert=leaf_reinsert)
            live: dict[int, Rect] = {}
            for oid in range(600):
                # A coarse grid: covered, duplicated and edge-sharing
                # rectangles, so the shortcut and the ties both run.
                x, y = rng.randrange(40), rng.randrange(40)
                live[oid] = Rect(x, y, x + rng.randrange(4), y + rng.randrange(4))
                tree.insert(oid, live[oid])
                if oid % 5 == 4:
                    gone = rng.choice(sorted(live))
                    tree.delete(gone, live.pop(gone))
            check_invariants(tree)
            shape = [
                (n.node_id, n.level, [(e.oid, e.rect.as_tuple()) for e in n.entries])
                for n in tree.nodes()
            ]
            return shape + [(tree.splits, tree.leaf_splits, tree.reinserts)]

        shipped = grow()
        monkeypatch.setattr(
            "repro.rtree.rstar.least_overlap_enlargement",
            on_block(reference_least_overlap_enlargement),
        )
        monkeypatch.setattr(
            "repro.rtree.rstar.least_area_enlargement",
            on_block(reference_least_area_enlargement),
        )
        assert grow() == shipped
