"""One lifecycle machine, run per organization: generated sequences of
insert, delete, window, point, reorganization (cluster), save -> open,
join and a batched workload, with ``SpatialDatabase.check()`` after
every rule and every answer held to the brute-force ``perf/oracle.py``.

Each organization runs a quarter of the hypothesis profile's examples,
also under ``HYPOTHESIS_PROFILE=deep`` (CI's non-blocking deep step).
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import tempfile

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from perf.oracle import Oracle, join_counts, stream_totals
from repro.database import SpatialDatabase
from repro.errors import StorageError, TreeError
from repro.geometry.feature import SpatialObject
from repro.geometry.polyline import Polyline
from repro.geometry.rect import Rect
from repro.reorg import Reorganizer

from tests.conftest import make_objects

SMAX = 4 * 4096

# Eight entries a page: splits, reinserts and condensation within a
# few steps.
CONFIGS = {
    "secondary": dict(organization="secondary", max_entries=8),
    "primary": dict(organization="primary", max_entries=8),
    "cluster-fixed": dict(smax_bytes=SMAX, max_entries=8),
    "cluster-buddy": dict(smax_bytes=SMAX, buddy_sizes=3, max_entries=8),
}


def extra_objects(n: int) -> list[SpatialObject]:
    """Objects that start outside the database: polylines, closed rings
    (borders), MBR overrides and objects larger than ``SMAX`` and a
    page (extents of their own in every organization)."""
    out = []
    for k, base in enumerate(make_objects(n, seed=29)):
        oid, line, size = 1000 + k, base.geometry, base.size_bytes
        vertices = line.vertices
        if k % 4 == 1 and len(set(vertices)) >= 3:
            out.append(SpatialObject(oid, Polyline(vertices + vertices[:1]), size + 16))
        elif k % 4 == 2:
            m = line.mbr
            override = Rect(m.xmin - 25, m.ymin - 5, m.xmax + 10, m.ymax + 30)
            out.append(SpatialObject(oid, line, size, override))
        elif k % 6 == 3:
            out.append(SpatialObject(oid, line, size_bytes=SMAX + 1000 * k))
        else:
            out.append(SpatialObject(oid, line, size))
    return out


INITIAL = make_objects(60, seed=17)
EXTRA = extra_objects(24)
BY_OID = {obj.oid: obj for obj in INITIAL + EXTRA}
#: The join's second relation, attached to the database's disk.
OTHER = make_objects(30, seed=71)
COORD = st.floats(0, 9000)
SIDE = st.floats(1, 3000)
PICK = st.integers(0, 10**6)


class Lifecycle(RuleBasedStateMachine):
    """One database and its oracle; ``name`` picks the configuration."""

    name = "secondary"

    def __init__(self):
        super().__init__()
        self.db = SpatialDatabase(**CONFIGS[self.name])
        self.db.build(INITIAL)
        self.oracle = Oracle(INITIAL, extra=EXTRA)
        self.live = [obj.oid for obj in INITIAL]
        self.dead = [obj.oid for obj in EXTRA]
        self.other = None
        self.relations = 0
        self.scratch = tempfile.mkdtemp(prefix="lifecycle-")

    def teardown(self):
        shutil.rmtree(self.scratch, ignore_errors=True)

    @invariant()
    def check(self):
        self.db.check()

    @rule(pick=PICK)
    def insert(self, pick):
        """A new object, or a deleted one back under its old oid."""
        if self.dead:
            obj = BY_OID[self.dead.pop(pick % len(self.dead))]
            self.db.insert(obj)
            self.oracle.insert(obj)
            self.live.append(obj.oid)

    @rule(pick=PICK)
    def delete(self, pick):
        """Small picks (which hypothesis favours) delete the latest
        inserts."""
        if self.live:
            oid = self.live.pop(-1 - pick % len(self.live))
            self.db.delete(oid)
            self.oracle.delete(oid)
            self.dead.append(oid)

    @rule(x=COORD, y=COORD, w=SIDE, h=SIDE)
    def window(self, x, y, w, h):
        rect = Rect(x, y, x + w, y + h)
        got = self.db.window_query(*rect.as_tuple())
        assert {o.oid for o in got.objects} == self.oracle.window(rect)

    @rule(pick=PICK, vertex=PICK)
    def point(self, pick, vertex):
        """A point on a live object's vertex."""
        if self.live:
            vertices = BY_OID[self.live[pick % len(self.live)]].geometry.vertices
            x, y = vertices[vertex % len(vertices)]
            got = self.db.point_query(x, y)
            assert {o.oid for o in got.objects} == self.oracle.point(x, y)

    @precondition(lambda self: self.db.storage.reorganizable)
    @rule()
    def reorg(self):
        Reorganizer(self.db, min_dead_fraction=0.0).step()

    @rule()
    def reopen(self):
        """save -> open: the database becomes its reopened image."""
        path = os.path.join(self.scratch, "db.img")
        self.db.save(path)
        self.db = SpatialDatabase.open(path)
        self.other = None

    @rule()
    def join(self):
        """The exact join with a fixed relation on the same disk; its
        regions go into this database's allocator and catalog."""
        if self.other is None:
            self.relations += 1
            self.other = self.db.attach(f"other{self.relations}", smax_bytes=SMAX)
            self.other.build(OTHER)
        got = self.db.join(self.other, buffer_pages=32, evaluate_exact=True)
        live = [BY_OID[oid] for oid in self.live]
        assert (got.candidate_pairs, got.result_pairs) == join_counts(live, OTHER)

    @rule(pick=PICK, x=COORD, y=COORD)
    def run_workload(self, pick, x, y):
        """Two inserts, a delete and a window through a caching pool:
        the flush phase writes the dirty frames back."""
        ops = []
        for _ in range(2):
            if self.dead:
                oid = self.dead.pop(pick % len(self.dead))
                ops.append(("insert", BY_OID[oid]))
                self.live.append(oid)
        if self.live:
            oid = self.live.pop(-1 - pick % len(self.live))
            ops.append(("delete", oid))
            self.dead.append(oid)
        ops.append(("window", Rect(x, y, x + 2000, y + 2000)))
        report = self.db.run_workload(ops, buffer_pages=64)
        for kind, counts in stream_totals(self.oracle, ops).items():
            row = report.phase(kind)
            assert (row.operations, row.results) == counts, kind
        assert report.phase("flush").io.pages_transferred > 0


# A quarter of the profile's examples: 25 under the default profile.
SETTINGS = settings(
    max_examples=settings.default.max_examples // 4, stateful_step_count=12, deadline=None
)


def lifecycle(name: str) -> type[Lifecycle]:
    machine = type(f"Lifecycle[{name}]", (Lifecycle,), {"name": name})
    machine.TestCase.settings = SETTINGS
    return machine


TestSecondary = lifecycle("secondary").TestCase
TestPrimary = lifecycle("primary").TestCase
TestClusterFixed = lifecycle("cluster-fixed").TestCase
TestClusterBuddy = lifecycle("cluster-buddy").TestCase

#: Every rule at least once; the fourth insert is an oversize object.
STEPS = [
    *[("insert", 0)] * 4, ("delete", 0), ("insert", 0), ("delete", 3),
    ("window", 1000.0, 1000.0, 3000.0, 3000.0), ("point", 5, 1), ("join",), ("reorg",),
    ("run_workload", 4, 2000.0, 2000.0), ("reopen",), ("insert", 0), ("delete", 0),
    ("join",), ("reopen",), ("point", 2, 0),
]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_every_rule_at_least_once(name):
    machine = lifecycle(name)()
    try:
        machine.check()
        for rule, *args in STEPS:
            if rule != "reorg" or machine.db.storage.reorganizable:
                getattr(machine, rule)(*args)
                machine.check()
    finally:
        machine.teardown()


# ----------------------------------------------------------------------
# each stage of check() catches its own kind of damage
# ----------------------------------------------------------------------
def small_database(name: str) -> SpatialDatabase:
    """Built, every third object deleted, the extra objects (oversize
    ones among them) inserted, a reorganization round where there are
    units: ``check()`` passes."""
    db = SpatialDatabase(**CONFIGS[name])
    db.build(INITIAL)
    for obj in INITIAL[::3]:
        db.delete(obj.oid)
    for obj in EXTRA:
        db.insert(obj)
    if db.storage.reorganizable:
        Reorganizer(db, min_dead_fraction=0.0).step()
    db.check()
    return db


def first_leaf(db):
    return next(db.storage.tree.leaves())


def stale_block_row(db):
    first_leaf(db).query_matrix()[0, 2] += 1.0


def block_loses_a_row(db):
    leaf = first_leaf(db)
    leaf._areas = leaf._areas[:-1]


def stale_directory_rect(db):
    root = db.storage.tree.root
    rect = root.entries[0].rect
    root.patch_rect(0, Rect(rect.xmin - 1.0, rect.ymin, rect.xmax, rect.ymax))


def stale_rows_cache(db):
    first_leaf(db).rows()[0] += 1


def entry_at_a_tombstone(db):
    column = db.storage.column
    leaf = first_leaf(db)
    tombstone = int((column.oids[:column.n_rows] < 0).nonzero()[0][0])
    leaf.rows()[0] = leaf.entries[0].row = tombstone


def unit_forgets_an_object(db):
    unit = first_leaf(db).tag
    unit.live.pop(next(iter(unit.live)))


def smax_grows_over_an_extent(db):
    """The oversize objects' own extents now hold objects within Smax."""
    org = db.storage
    org.policy = dataclasses.replace(org.policy, smax_bytes=3 * SMAX)


def extent_on_a_free_list(db):
    org = db.storage
    extent = next(iter(org._extents.values()))
    org._own_region._free.append(extent)


def catalog_drops_a_field(db):
    db.storage._catalog_scalars = ()


@pytest.mark.parametrize(
    "name, damage, error, message",
    [
        ("secondary", stale_block_row, TreeError, "block is not its entries"),
        ("primary", block_loses_a_row, TreeError, "block is not shaped"),
        ("primary", stale_directory_rect, TreeError, "is not its MBR"),
        ("secondary", stale_rows_cache, StorageError, "caches stale rows"),
        ("primary", entry_at_a_tombstone, StorageError, "points at row"),
        ("cluster-fixed", unit_forgets_an_object, StorageError, "stored in 0 places"),
        ("cluster-fixed", smax_grows_over_an_extent, StorageError, "placed against Smax"),
        ("cluster-buddy", extent_on_a_free_list, StorageError, "is held twice"),
        ("secondary", catalog_drops_a_field, StorageError, "lacks '_byte_tail'"),
        ("cluster-fixed", catalog_drops_a_field, StorageError, "lacks '_total_object_bytes'"),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_check_raises_the_stage_error(name, damage, error, message):
    db = small_database(name)
    damage(db)
    with pytest.raises(error, match=message):
        db.check()


def test_check_fills_no_cache():
    """A stale flat snapshot stays stale, an unsummed load unsummed."""
    db = small_database("cluster-fixed")
    tree = db.storage.tree
    flat = tree.flat_snapshot()
    db.delete(INITIAL[1].oid)
    leaf = first_leaf(db)
    leaf._load = None
    db.check()
    assert tree._flat is flat and flat.generation != tree._generation
    assert leaf._load is None
