"""Cache coherence of Node.rect_matrix / query_matrix / mbr / load.

Satellite of the vectorized-kernels PR: property-style tests drive a
tree through inserts, deletes, splits, forced reinserts and
condensation, asserting after every mutation that each node's cached
matrices and MBR match freshly computed ones.  A stale cache here
would silently corrupt query results and the bit-identical pricing;
a stale byte load would move byte-capacity splits, i.e. tree shape.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.geometry.rect import Rect
from repro.rtree.capacity import ByteCapacity, CountOrByteCapacity
from repro.rtree.node import Node
from repro.rtree.entry import Entry
from repro.rtree.rstar import RStarTree


def fresh_matrix(node: Node) -> np.ndarray:
    return np.array(
        [(e.rect.xmin, e.rect.ymin, e.rect.xmax, e.rect.ymax)
         for e in node.entries],
        dtype=np.float64,
    ).reshape(len(node.entries), 4)


def assert_loads_are_sums(tree: RStarTree) -> None:
    """The cached byte load — whatever mix of summed, advanced by
    ``add`` and dropped by ``invalidate`` it is — is the summed one."""
    for node in tree.nodes():
        assert node.load() == sum(e.load for e in node.entries), (
            f"stale load on node#{node.node_id}"
        )


def assert_caches_coherent(tree: RStarTree) -> None:
    assert_loads_are_sums(tree)
    for node in tree.nodes():
        cached = node.rect_matrix()
        expected = fresh_matrix(node)
        assert cached.shape == expected.shape
        assert (cached == expected).all(), (
            f"stale rect matrix on node#{node.node_id}"
        )
        qm = node.query_matrix()
        assert (qm[:, :2] == expected[:, :2]).all()
        assert (qm[:, 2:] == -expected[:, 2:]).all(), (
            f"stale query matrix on node#{node.node_id}"
        )
        if node.entries:
            assert node.mbr() == Rect.union_of(e.rect for e in node.entries), (
                f"stale MBR on node#{node.node_id}"
            )
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
        assert_loads_are_sums(tree)
        if step % 10 == 0:
            assert_caches_coherent(tree)
    assert_caches_coherent(tree)
    assert len(tree) == len(live)


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
        assert_loads_are_sums(tree)
    assert_caches_coherent(tree)
    assert tree.leaf_splits > 20
    for leaf in tree.leaves():
        assert len(leaf.entries) == 1 or leaf.load() <= 400
    assert len(tree) == len(live)


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


def test_direct_mutation_with_invalidate():
    node = Node(0, 0, [Entry(Rect(0, 0, 1, 1), oid=0)])
    first = node.rect_matrix()
    assert first.shape == (1, 4)
    assert node.mbr() == Rect(0, 0, 1, 1)
    node.add(Entry(Rect(2, 2, 3, 3), oid=1))
    assert node.rect_matrix().shape == (2, 4)
    assert node.mbr() == Rect(0, 0, 3, 3)
    node.remove(node.entries[0])
    assert node.rect_matrix().shape == (1, 4)
    assert (node.rect_matrix()[0] == (2.0, 2.0, 3.0, 3.0)).all()
    assert node.mbr() == Rect(2, 2, 3, 3)


def test_load_is_advanced_by_add_and_dropped_by_invalidate():
    entries = [Entry(Rect(0, 0, 1, 1), oid=i, load=10 * (i + 1)) for i in range(4)]
    # ``add`` on a node whose load was never asked for: nothing to
    # advance, the first ``load()`` sums.
    node = Node(0, 0)
    node.add(entries[0])
    node.add(entries[1])
    assert node._load is None
    assert node.load() == 30
    # Asked for: ``add`` advances it instead of dropping it.
    node.add(entries[2])
    assert node._load == 60 == node.load()
    node.remove(entries[0])
    assert node._load is None and node.load() == 50
    # Direct assignment is the caller's to announce.
    node.entries = entries[2:]
    node.invalidate()
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


def test_every_entries_assignment_invalidates_and_entry_load_is_write_once():
    """What the cached load leans on, read off the source: outside
    ``Node`` itself every ``<node>.entries = ...`` is followed at once
    by ``<node>.invalidate()``, nobody mutates an entry list in place,
    and ``Entry.load`` is assigned in ``Entry.__init__`` only."""
    root = Path(repro.__file__).parent
    mutators = {"append", "remove", "pop", "insert", "extend", "clear", "sort", "reverse"}
    entries_assignments = 0
    for path in sorted(root.rglob("*.py")):
        where = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text())
        for target, stmt, following in attribute_assignments(tree):
            owner = ast.unparse(target.value)
            if target.attr == "load":
                assert (where, owner) == ("rtree/entry.py", "self"), where
            if target.attr == "entries" and owner != "self":
                entries_assignments += 1
                assert following is not None, f"{where}:{stmt.lineno}"
                assert ast.unparse(following) == f"{owner}.invalidate()", (
                    f"{where}:{stmt.lineno}"
                )
        for call in ast.walk(tree):
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in mutators
                and isinstance(call.func.value, ast.Attribute)
                and call.func.value.attr == "entries"
            ):
                assert where == "rtree/node.py", f"{where}:{call.lineno}"
    assert entries_assignments >= 3  # reinsert, and both halves of a split


def test_patch_rect_updates_row_and_drops_mbr():
    entries = [Entry(Rect(0, 0, 1, 1), oid=0), Entry(Rect(4, 4, 5, 5), oid=1)]
    node = Node(0, 0, entries)
    node.rect_matrix()
    node.query_matrix()
    assert node.mbr() == Rect(0, 0, 5, 5)
    entries[1].rect = Rect(4, 4, 9, 9)
    node.patch_rect(1, entries[1].rect)
    assert (node.rect_matrix()[1] == (4.0, 4.0, 9.0, 9.0)).all()
    assert (node.query_matrix()[1] == (4.0, 4.0, -9.0, -9.0)).all()
    assert node.mbr() == Rect(0, 0, 9, 9)
