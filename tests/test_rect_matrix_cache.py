"""Coherence of the block a node keeps — Node.rect_matrix /
query_matrix / areas — and of its MBR and byte load.

Property-style walks drive a tree through inserts, deletes, splits,
forced reinserts and condensation, over ordinary and over degenerate
rectangles, and compare every node's block with one built afresh from
its entries — to the byte — after every operation.  A stale row here
would silently corrupt ChooseSubtree, query results and the
bit-identical pricing; a stale byte load would move byte-capacity
splits, i.e. tree shape.
"""

from __future__ import annotations

import ast
import random
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.geometry.rect import Rect
from repro.rtree.capacity import ByteCapacity, CountOrByteCapacity
from repro.rtree.node import Node
from repro.rtree.entry import Entry
from repro.rtree.rstar import RStarTree


def fresh_block(node: Node) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rect matrix, query matrix and areas built from the entries
    in Python, independently of the node's own arithmetic."""
    rects = [e.rect for e in node.entries]
    return (
        np.array([(r.xmin, r.ymin, r.xmax, r.ymax) for r in rects], np.float64).reshape(-1, 4),
        np.array([(r.xmin, r.ymin, -r.xmax, -r.ymax) for r in rects], np.float64).reshape(-1, 4),
        np.array([r.area() for r in rects], np.float64),
    )


def assert_loads_are_sums(tree: RStarTree) -> None:
    """The cached byte load — whatever mix of summed, advanced by
    ``add``, lowered by ``remove`` and dropped by ``replace_entries``
    it is — is the summed one."""
    for node in tree.nodes():
        assert node.load() == sum(e.load for e in node.entries), (
            f"stale load on node#{node.node_id}"
        )


def assert_caches_coherent(tree: RStarTree) -> None:
    """Every node's block equals a fresh build to the byte (so a -0.0
    where the entries say 0.0 shows), and its MBR is the entries'."""
    assert_loads_are_sums(tree)
    for node in tree.nodes():
        rects, query, areas = fresh_block(node)
        for kept, fresh, what in (
            (node.rect_matrix(), rects, "rect matrix"),
            (node.query_matrix(), query, "query matrix"),
            (node.areas(), areas, "areas"),
        ):
            assert kept.shape == fresh.shape and kept.tobytes() == fresh.tobytes(), (
                f"stale {what} on node#{node.node_id}"
            )
        if node.entries:
            union = reduce(Rect.union, (e.rect for e in node.entries))
            assert node.mbr().as_tuple() == union.as_tuple(), (
                f"stale MBR on node#{node.node_id}"
            )
            assert np.array(node.mbr().as_tuple()).tobytes() == np.array(
                union.as_tuple()
            ).tobytes()
        # Directory invariant while we're here: every entry rect equals
        # its child's MBR after any sequence of mutations.
        if not node.is_leaf:
            for entry in node.entries:
                assert entry.rect == entry.child.mbr()


def random_rect(rng: random.Random) -> Rect:
    x, y = rng.uniform(0, 100), rng.uniform(0, 100)
    return Rect(x, y, x + rng.uniform(0, 8), y + rng.uniform(0, 8))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("leaf_reinsert", [True, False])
def test_caches_survive_insert_delete_split_reinsert(seed, leaf_reinsert):
    """Random mutation walk: small fan-out forces frequent splits and
    (with leaf_reinsert) forced reinserts; deletes trigger condensation
    and root shrinking.  Caches are checked after every operation."""
    rng = random.Random(seed)
    tree = RStarTree(max_entries=6, leaf_reinsert=leaf_reinsert)
    live: dict[int, Rect] = {}
    next_oid = 0
    for step in range(300):
        if live and rng.random() < 0.35:
            oid = rng.choice(sorted(live))
            tree.delete(oid, live.pop(oid))
        else:
            rect = random_rect(rng)
            tree.insert(next_oid, rect)
            live[next_oid] = rect
            next_oid += 1
        assert_caches_coherent(tree)
    assert len(tree) == len(live)


#: The spacing of float64 values near 1e9.
_ULP = float(np.spacing(1e9))


def degenerate_rect(rng: random.Random) -> Rect:
    """Zero width or height, edges shared on a coarse grid, and tiny
    extents at large coordinates beside bands twice as wide as those
    coordinates, where a union's area enlargement rounds away to 0.0."""
    kind = rng.randrange(5)
    x, y = float(rng.randrange(12)), float(rng.randrange(12))
    far = 1e9 + rng.randrange(3) * _ULP  # one of three adjacent floats
    if kind == 0:  # a segment: zero height, or zero width
        if rng.random() < 0.5:
            return Rect(x, y, x + rng.randrange(4), y)
        return Rect(x, y, x, y + rng.randrange(4))
    if kind == 1:  # a point
        return Rect(x, y, x, y)
    if kind == 2:  # grid cells sharing edges, some of them duplicates
        return Rect(x, y, x + 1.0, y + rng.choice([1.0, 2.0]))
    if kind == 3:  # a box zero or one ulp wide far out
        return Rect(far, y, far + rng.choice([0.0, _ULP]), y + rng.choice([0.0, 1.0]))
    # A band from -1e9 to far: moving its right edge by one ulp of 1e9
    # adds less than half an ulp of its area.
    return Rect(-1e9, y, far, y + 1.0)


@pytest.mark.parametrize("seed", [4, 5])
@pytest.mark.parametrize("leaf_reinsert", [True, False])
def test_blocks_survive_a_degenerate_walk(seed, leaf_reinsert):
    """The same walk over degenerate rectangles, where zero areas,
    zero enlargements without covering and ties are the rule; the
    blocks are checked to the byte after every operation."""
    rng = random.Random(seed)
    tree = RStarTree(max_entries=6, leaf_reinsert=leaf_reinsert)
    live: dict[int, Rect] = {}
    for oid in range(250):
        if live and rng.random() < 0.35:
            gone = rng.choice(sorted(live))
            tree.delete(gone, live.pop(gone))
        else:
            live[oid] = degenerate_rect(rng)
            tree.insert(oid, live[oid])
        assert_caches_coherent(tree)
    assert tree.height >= 3 and len(tree) == len(live)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("leaf_reinsert", [True, False])
@pytest.mark.parametrize(
    "capacity", [ByteCapacity(400), CountOrByteCapacity(6, 400)], ids=repr
)
def test_loads_survive_byte_capacity_mutation_walk(seed, leaf_reinsert, capacity):
    """The same walk over trees whose data pages split on their byte
    load, where the overflow check reads the cached value after every
    insert: it must be the summed one after every operation (splits,
    repeated splits of a still-overflowing half, forced reinserts that
    split before reinserting, condensation)."""
    rng = random.Random(seed)
    tree = RStarTree(max_entries=6, leaf_capacity=capacity, leaf_reinsert=leaf_reinsert)
    live: dict[int, Rect] = {}
    for oid in range(300):
        if live and rng.random() < 0.35:
            gone = rng.choice(sorted(live))
            tree.delete(gone, live.pop(gone))
        else:
            live[oid] = random_rect(rng)
            tree.insert(oid, live[oid], load=rng.choice([46, 60, 120, 250, 390]))
        assert_caches_coherent(tree)
    assert tree.leaf_splits > 20
    for leaf in tree.leaves():
        assert len(leaf.entries) == 1 or leaf.load() <= 400
    assert len(tree) == len(live)


@pytest.mark.parametrize("organization", ["cluster", "secondary"])
def test_reopened_blocks_are_slices_that_stay_coherent(organization, tmp_path):
    """``open`` gives every node its slice of one block over the
    catalog's rectangle column; the slices equal fresh builds, and
    inserts, deletes, splits and condensation on the reopened tree
    touch only their own node's rows."""
    from repro.data import generate_map, scaled, spec_for
    from repro.database import SpatialDatabase

    spec = scaled(spec_for("A-1"), 0.002)
    objects = generate_map(spec, seed=7)
    db = SpatialDatabase(
        avg_object_size=spec.avg_object_size, organization=organization, max_entries=8
    )
    db.build(objects[:200])
    db.save(str(tmp_path / "spatial.db"))
    reopened = SpatialDatabase.open(str(tmp_path / "spatial.db"))
    try:
        tree = reopened.storage.tree
        splits = tree.leaf_splits
        assert_caches_coherent(tree)
        for obj in objects[:60]:
            reopened.delete(obj.oid)
        for obj in objects[200:]:
            reopened.insert(obj)
        assert_caches_coherent(tree)
        assert tree.leaf_splits > splits
    finally:
        reopened.close()


def test_caches_after_bulk_build_and_drain():
    rng = random.Random(99)
    tree = RStarTree(max_entries=8)
    rects = {oid: random_rect(rng) for oid in range(250)}
    for oid, rect in rects.items():
        tree.insert(oid, rect)
    assert_caches_coherent(tree)
    # Drain to (almost) nothing: exercises condensation heavily.
    for oid in list(rects)[:-5]:
        tree.delete(oid, rects.pop(oid))
    assert_caches_coherent(tree)
    assert len(tree) == 5


def test_add_and_remove_keep_the_block_in_entry_order():
    node = Node(0, 0, [Entry(Rect(0, 0, 1, 1), oid=0)])
    assert node.rect_matrix().shape == (1, 4)
    assert node.mbr() == Rect(0, 0, 1, 1)
    for oid in range(1, 20):  # past the first two capacity doublings
        node.add(Entry(Rect(oid, oid, oid + 1, oid + 2), oid=oid))
    assert node.rect_matrix().shape == (20, 4)
    assert node.mbr() == Rect(0, 0, 20, 21)
    node.remove(node.entries[0])
    node.remove(node.entries[7])
    assert [e.oid for e in node.entries] == [*range(1, 8), *range(9, 20)]
    rects, query, areas = fresh_block(node)
    assert node.rect_matrix().tobytes() == rects.tobytes()
    assert node.query_matrix().tobytes() == query.tobytes()
    assert node.areas().tobytes() == areas.tobytes()
    assert node.mbr() == Rect(1, 1, 20, 21)


def test_take_hands_a_part_its_rows():
    entries = [Entry(Rect(i, 0, i + 1, i + 1), oid=i) for i in range(6)]
    node = Node(0, 0, entries)
    other = Node(1, 0)
    other.replace_entries(*node.take([5, 1, 3]))
    node.replace_entries(*node.take([0, 2, 4]))
    assert [e.oid for e in other.entries] == [5, 1, 3]
    assert [e.oid for e in node.entries] == [0, 2, 4]
    for part in (node, other):
        rects, query, areas = fresh_block(part)
        assert part.rect_matrix().tobytes() == rects.tobytes()
        assert part.query_matrix().tobytes() == query.tobytes()
        assert part.areas().tobytes() == areas.tobytes()
    other.add(Entry(Rect(9, 9, 9, 9), oid=9))
    assert other.rect_matrix()[-1].tolist() == [9, 9, 9, 9]
    assert other.mbr() == Rect(1, 0, 9, 9)


def test_load_is_kept_by_add_and_remove_and_dropped_by_replace():
    entries = [Entry(Rect(0, 0, 1, 1), oid=i, load=10 * (i + 1)) for i in range(4)]
    # ``add`` on a node whose load was never asked for: nothing to
    # advance, the first ``load()`` sums.
    node = Node(0, 0)
    node.add(entries[0])
    node.add(entries[1])
    assert node._load is None
    assert node.load() == 30
    # Asked for: ``add`` advances it and ``remove`` lowers it.
    node.add(entries[2])
    assert node._load == 60 == node.load()
    node.remove(entries[0])
    assert node._load == 50 == node.load()
    # A wholesale replacement sums again on the next ask.
    node.replace_entries(*Node(1, 0, entries[2:]).take([0, 1]))
    assert node._load is None and node.load() == 70
    node.add(entries[0])
    assert node.load() == 80 == sum(e.load for e in node.entries)


def attribute_assignments(tree: ast.AST):
    """``(target, statement, the statement after it)`` for every
    assignment to ``<owner>.<attr>`` or ``<owner>.<attr>[...]``."""
    for parent in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            body = getattr(parent, field, None)
            if not isinstance(body, list):  # a lambda's body is an expression
                continue
            for stmt, following in zip(body, body[1:] + [None]):
                if isinstance(stmt, ast.Assign):
                    targets = stmt.targets
                elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                    targets = [stmt.target]
                else:
                    continue
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        target = target.value
                    if isinstance(target, ast.Attribute):
                        yield target, stmt, following


def test_only_the_node_changes_entries_and_entry_load_is_write_once():
    """What the kept block leans on, read off the source: outside
    ``Node`` nobody assigns an entry list or an entry's rectangle (only
    ``Entry.__init__`` and the node's own mutators do), nobody mutates
    an entry list in place, and ``Entry.load`` is assigned in
    ``Entry.__init__`` only."""
    root = Path(repro.__file__).parent
    mutators = {"append", "remove", "pop", "insert", "extend", "clear", "sort", "reverse"}
    rect_assignments = []
    for path in sorted(root.rglob("*.py")):
        where = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text())
        for target, stmt, _ in attribute_assignments(tree):
            owner = ast.unparse(target.value)
            if target.attr == "load":
                assert (where, owner) == ("rtree/entry.py", "self"), where
            if target.attr == "entries":
                assert (where, owner) == ("rtree/node.py", "self"), f"{where}:{stmt.lineno}"
            if target.attr == "rect":
                rect_assignments.append((where, owner))
        for call in ast.walk(tree):
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in mutators
                and isinstance(call.func.value, ast.Attribute)
                and call.func.value.attr == "entries"
            ):
                assert where == "rtree/node.py", f"{where}:{call.lineno}"
    assert sorted(rect_assignments) == [
        ("rtree/entry.py", "self"),
        ("rtree/node.py", "self.entries[index]"),
    ]


def test_patch_rect_updates_row_and_drops_mbr():
    entries = [Entry(Rect(0, 0, 1, 1), oid=0), Entry(Rect(4, 4, 5, 5), oid=1)]
    node = Node(0, 0, entries)
    assert node.mbr() == Rect(0, 0, 5, 5)
    node.patch_rect(1, Rect(4, 4, 9, 9))
    assert entries[1].rect == Rect(4, 4, 9, 9)
    assert node.rect_matrix()[1].tolist() == [4.0, 4.0, 9.0, 9.0]
    assert node.query_matrix()[1].tolist() == [4.0, 4.0, -9.0, -9.0]
    assert node.areas().tolist() == [1.0, 25.0]
    assert node.mbr() == Rect(0, 0, 9, 9)
