"""Crash-recovery tests for the persistent database: save/open round
trips across every organization (answers AND priced I/O must survive),
the columnar catalog's byte form (round trips, size, damage), the
crash-at-every-write-boundary matrix over the fault-injection harness,
and detection of persistent media corruption."""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro.constants import DEFAULT_DATA_SPACE
from repro.data import generate_map, scaled, spec_for
from repro.database import SpatialDatabase
from repro.errors import PageCorruptionError, StorageError
from repro.geometry.feature import SpatialObject
from repro.geometry.polyline import Polyline
from repro.geometry.rect import Rect
from repro.iosched.scheduler import SyncScheduler
from repro.obs import MetricsRegistry
from repro.pagestore import FaultyPageStore, FilePageStore, SimulatedCrash, flip_byte
from repro.pagestore import file as file_store
from repro.pagestore.file import payload_capacity
from repro.storage import serial
from repro.storage.serial import (
    CATALOG_FORMAT,
    decode_catalog,
    dump_state,
    encode_catalog,
    load_state,
)

from tests.conftest import make_objects

SMAX = 16 * 4096

CONFIGS = {
    "cluster-fixed": dict(smax_bytes=SMAX),
    "cluster-buddy": dict(smax_bytes=SMAX, buddy_sizes=3),
    "secondary": dict(organization="secondary"),
    "primary": dict(organization="primary"),
}

WINDOWS = [
    (0, 0, 2500, 2500),
    (4000, 4000, 6000, 6000),
    (7000, 1000, 9500, 3500),
    (0, 0, 10_000, 10_000),
]


def build_db(config: dict, n: int = 80) -> SpatialDatabase:
    db = SpatialDatabase(**config)
    db.build(make_objects(n))
    return db


def build_rich_db(config: dict) -> SpatialDatabase:
    """Everything the catalog has a column for: polylines, closed rings
    (borders), an ``mbr_override``, an oversize object, and deletes that leave dead
    space in the units and a live-map order ``repack`` depends on."""
    db = build_db(config, n=120)
    for i in range(6):
        x = y = 900.0 * (i + 1)
        ring = [(x, y), (x + 300, y), (x + 300, y + 200), (x, y + 250), (x, y)]
        db.insert(SpatialObject(500 + i, Polyline(ring), size_bytes=400 + 50 * i))
    db.insert(
        SpatialObject(
            600,
            Polyline([(5000, 5000), (5100, 5080), (5200, 5020)]),
            size_bytes=300,
            mbr_override=Rect(4900, 4900, 5300, 5200),
        )
    )
    db.insert(SpatialObject(601, Polyline([(100, 9000), (900, 9500)]), size_bytes=SMAX + 5000))
    for oid in (3, 17, 18, 44, 90, 502):
        db.delete(oid)
    db.finalize()
    return db


def answers(db: SpatialDatabase) -> list[tuple[list[int], float]]:
    """Per-window (sorted oids, priced ms) from a cold disk head."""
    out = []
    for window in WINDOWS:
        db.disk.invalidate_head()
        res = db.window_query(*window)
        out.append((sorted(o.oid for o in res.objects), res.io.total_ms))
    return out


# ----------------------------------------------------------------------
# catalog round trips
# ----------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_state_round_trip_preserves_answers_and_pricing(self, name):
        db = build_db(CONFIGS[name])
        db.finalize()
        expected = answers(db)
        twin = load_state(dump_state(db))
        assert answers(twin) == expected
        assert len(twin) == len(db)
        assert twin.storage.occupied_pages() == db.storage.occupied_pages()

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_byte_round_trip_of_everything_the_catalog_holds(self, name):
        db = build_rich_db(CONFIGS[name])
        blob = encode_catalog(dump_state(db))
        twin = load_state(decode_catalog(blob))
        assert list(twin.storage.objects) == list(db.storage.objects)
        for oid, obj in db.storage.objects.items():
            got = twin.storage.objects[oid]
            assert type(got.geometry) is type(obj.geometry)
            assert got.geometry.vertices == obj.geometry.vertices
            assert (got.size_bytes, got.mbr_override) == (obj.size_bytes, obj.mbr_override)
        assert answers(twin) == answers(db)
        point = (5150.0, 5050.0)  # inside the override, off the polyline
        assert twin.point_query(*point).candidates == db.point_query(*point).candidates
        # Nothing is lost or reordered on the way: the twin's catalog is
        # the same bytes, and later updates price the same on both —
        # repack() follows the live-map order, the allocators their
        # free lists.
        assert encode_catalog(dump_state(twin)) == blob
        spent = []
        for side in (db, twin):
            mark = side.disk.stats()
            for i in range(40):
                x = 4000.0 + 45.0 * i
                side.insert_polyline(7000 + i, [(x, x), (x + 30, x + 40)], size_bytes=1500)
            for oid in range(20, 40):
                side.delete(oid)
            spent.append((side.disk.stats() - mark).total_ms)
        assert spent[0] == spent[1]
        state = dump_state(db)
        assert encode_catalog(dump_state(twin)) == encode_catalog(state)
        # One ``extents`` row per live object stored on pages of its own:
        # a deleted object's row is gone, also from the sequential file,
        # which keeps the pages.
        org = db.storage
        own = [oid for oid in org.objects if org.extent_of(oid) is not None]
        assert state["columns"]["extents"][:, 0].tolist() == own
        assert len(own) == (len(org.objects) if name == "secondary" else 1)
        # The columns are taken from caches (node blocks, the geometry
        # column): after updates check() still finds them the entries'
        # and the objects', and the catalog still the same bytes.
        db.check()

    def test_trusted_geometry_constructors_seed_the_matrix_caches(self):
        db = build_rich_db(CONFIGS["cluster-fixed"])
        state = decode_catalog(encode_catalog(dump_state(db)))
        twin = load_state(state)
        loaded = [o.geometry for o in twin.storage.objects.values()]
        assert not [g for g in loaded if g._vertices is not None]
        for oid, obj in db.storage.objects.items():
            geometry = twin.storage.objects[oid].geometry
            if isinstance(geometry, Polyline):
                assert np.shares_memory(geometry.coords(), state["columns"]["vertices"])
                assert np.array_equal(geometry.coords(), obj.geometry.coords())
            else:
                assert np.array_equal(geometry.ring_coords(), obj.geometry.ring_coords())
                assert geometry.contains_point(*obj.geometry.vertices[0])

    @pytest.mark.parametrize("backing", ["sim", "file"])
    def test_reopened_geometry_is_the_saved_geometry(self, backing, tmp_path):
        """A reopened geometry is a view of the vertex column; what it
        answers from the matrix (``len``, ``size_bytes``, ``mbr``) and
        what it builds on first scalar use (``vertices``, ``==``,
        ``hash``) is the saved object's — the MBR bit for bit, signed
        zeros included (the min/max loop keeps the first of ``-0.0`` and
        ``0.0``; ``np.min`` need not)."""
        db = build_rich_db(CONFIGS["cluster-fixed"])
        db.insert(SpatialObject(700, Polyline([(-0.0, 10.0), (0.0, -0.0), (5.0, 0.0)])))
        db.insert(
            SpatialObject(701, Polyline([(0.0, 0.0), (-0.0, 40.0), (30.0, -0.0), (0.0, 0.0)]))
        )
        path = str(tmp_path / "spatial.db")
        db.save(path)
        reopened = SpatialDatabase.open(path, backing=backing)
        try:
            assert list(reopened.storage.objects) == list(db.storage.objects)
            for oid, obj in db.storage.objects.items():
                saved, got = obj.geometry, reopened.storage.objects[oid].geometry
                assert (len(got), got.size_bytes()) == (len(saved), saved.size_bytes())
                assert (
                    np.array(got.mbr.as_tuple()).tobytes()
                    == np.array(saved.mbr.as_tuple()).tobytes()
                )
                assert got._vertices is None  # nothing above built the tuples
                assert got.vertices == saved.vertices
                assert got == saved and hash(got) == hash(saved)
        finally:
            reopened.close()

    def test_empty_database_round_trips(self):
        db = SpatialDatabase(smax_bytes=SMAX)
        blob = encode_catalog(dump_state(db))
        twin = load_state(decode_catalog(blob))
        assert len(twin) == 0
        assert encode_catalog(dump_state(twin)) == blob

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_file_round_trip(self, name, tmp_path):
        path = str(tmp_path / "spatial.db")
        db = build_db(CONFIGS[name])
        expected = answers(db)
        assert db.save(path) == 1
        reopened = SpatialDatabase.open(path)
        assert answers(reopened) == expected

    def test_file_backed_reopen_prices_identically(self, tmp_path):
        path = str(tmp_path / "spatial.db")
        db = build_db(CONFIGS["cluster-fixed"])
        expected = answers(db)
        db.save(path)
        fdb = SpatialDatabase.open(path, backing="file")
        try:
            assert fdb.disk.scrub() == fdb.disk.mapped_pages
            assert answers(fdb) == expected
        finally:
            fdb.close()

    def test_insert_and_resave_after_reopen(self, tmp_path):
        path = str(tmp_path / "spatial.db")
        db = build_db(CONFIGS["cluster-fixed"])
        db.save(path)
        reopened = SpatialDatabase.open(path)
        reopened.insert_polyline(9001, [(100, 100), (160, 160)])
        assert reopened.save(path) == 2
        again = SpatialDatabase.open(path)
        res = again.window_query(50, 50, 200, 200)
        assert 9001 in {o.oid for o in res.objects}

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_state_round_trip_preserves_the_layout(self, name):
        """The catalog's config block is the layout: every knob comes
        back, the technique as it stands — the figure drivers switch it
        on a built organization."""
        db = build_db(dict(CONFIGS[name], construction_buffer_pages=32), n=30)
        if name == "cluster-buddy":
            db.storage.technique = "slm"
        twin = load_state(dump_state(db))
        assert twin.layout == db.layout
        assert twin.layout.construction_buffer_pages == 32
        assert twin.name == db.name
        assert twin.disk.params == db.disk.params
        if name == "cluster-buddy":
            assert twin.storage.technique == "slm"

    def test_an_image_holds_the_layout_not_the_devices(self, tmp_path):
        """Devices, scheduler and prefetcher belong to whoever opens
        an image: a sharded overlap database comes back
        single-disk and sync, with its answers and its layout."""
        path = str(tmp_path / "spatial.db")
        db = SpatialDatabase(
            smax_bytes=SMAX,
            buddy_sizes=3,
            n_disks=4,
            placement="hash",
            scheduler="overlap",
            prefetch="cluster",
        )
        db.build(make_objects(80))
        db.save(path)
        reopened = SpatialDatabase.open(path)
        assert reopened.layout == db.layout
        assert reopened.n_disks == 1
        assert type(reopened.scheduler) is SyncScheduler
        assert reopened.prefetcher is None
        assert reopened.scheduler.admission is None
        assert [oids for oids, _ms in answers(reopened)] == [
            oids for oids, _ms in answers(db)
        ]
        # Its priced I/O is a single-disk database's with that layout.
        single = SpatialDatabase(smax_bytes=SMAX, buddy_sizes=3)
        single.build(make_objects(80))
        assert answers(reopened) == answers(single)

    def test_wrong_format_rejected(self):
        """A newer catalog, format 2 (one JSON document) and format 1
        (the config block before it was the layout) alike are refused by
        the typed error, not misread."""
        db = build_db(CONFIGS["secondary"], n=20)
        db.finalize()
        state = dump_state(db)
        assert state["format"] == CATALOG_FORMAT == 3
        for other in (1, 2, CATALOG_FORMAT + 1):
            state["format"] = other
            with pytest.raises(StorageError):
                load_state(state)

    def test_a_database_too_large_for_per_slot_superblocks(self, tmp_path):
        """A-1 @ 0.05 (6,573 objects, the database ``traffic_open`` and
        ``query_cold`` serve) raised ``superblock overflow`` on save
        while the superblock listed every catalog slot."""
        path = str(tmp_path / "a1.db")
        spec = scaled(spec_for("A-1"), 0.05)
        db = SpatialDatabase(avg_object_size=spec.avg_object_size)
        db.build(generate_map(spec, seed=1994))
        side = 0.04 * DEFAULT_DATA_SPACE
        corners = [f * DEFAULT_DATA_SPACE for f in (0.1, 0.3, 0.5, 0.7)]
        windows = [(x, x, x + side, x + side) for x in corners]

        def priced(database):
            out = []
            for window in windows:
                database.disk.invalidate_head()
                res = database.window_query(*window)
                out.append((sorted(o.oid for o in res.objects), res.io.total_ms))
            return out

        expected = priced(db)
        assert sum(len(oids) for oids, _ in expected) > 0
        assert db.save(path) == 1
        assert priced(SpatialDatabase.open(path)) == expected
        live = SpatialDatabase.open(path, backing="file")
        try:
            assert priced(live) == expected
            assert live.disk.scrub() == live.disk.mapped_pages == db.occupied_pages()
        finally:
            live.close()
        x = corners[1] + side / 2
        db.insert_polyline(10**7, [(x, x), (x + side / 8, x + side / 9)])
        assert db.save(path) == 2
        again = SpatialDatabase.open(path)
        assert len(again) == len(db) == 6574
        assert priced(again) == priced(db)

    def test_catalog_size_is_pinned(self, tmp_path):
        """The exact, machine-independent work counter of a checkpoint:
        bytes of catalog per thing catalogued, on a fixed map (A-1 @
        0.01, map seed 1994; the JSON catalog was 1.44 MB)."""
        spec = scaled(spec_for("A-1"), 0.01)
        db = SpatialDatabase(avg_object_size=spec.avg_object_size)
        db.build(generate_map(spec, seed=1994))
        path = str(tmp_path / "a1.db")
        db.save(path)
        columns = dump_state(db)["columns"]
        counts = {name: len(column) for name, column in columns.items()}
        assert (
            counts["vertices"], counts["entries"], counts["live"],
            counts["objects"], counts["nodes"],
        ) == (32946, 1335, 1314, 1314, 22)
        budget = (
            16 * counts["vertices"]
            + 72 * counts["entries"]
            + 24 * counts["live"]
            + 32 * counts["objects"]
            + 64 * counts["nodes"]
            + 8192
        )
        assert budget == 706_440
        with FilePageStore(path) as store:
            assert sum(len(chunk) for chunk in store.read_meta_pages()) <= budget

    def test_open_requires_a_catalog(self, tmp_path):
        path = str(tmp_path / "empty.db")
        with FilePageStore(path) as store:
            store.put(0, b"just a page")
            store.commit()
        with pytest.raises(StorageError):
            SpatialDatabase.open(path)

    def test_recovery_metrics_are_published(self, tmp_path):
        path = str(tmp_path / "spatial.db")
        db = build_db(CONFIGS["cluster-fixed"])
        db.save(path)
        metrics = MetricsRegistry()
        with FilePageStore(path, metrics=metrics) as store:
            assert metrics.snapshot()["recovery.epoch"] == store.epoch == 1
            # Recovery replays the page-map chunks; a scrub then adds
            # one count per verified data page.
            replayed = metrics.counter("recovery.replayed_pages").value
            assert replayed >= 1
            store.scrub()
            assert (
                metrics.counter("recovery.replayed_pages").value
                == replayed + store.mapped_pages
            )


# ----------------------------------------------------------------------
# damage: a typed error, never a smaller database (ROADMAP item D)
# ----------------------------------------------------------------------
def reheaded(blob: bytes, edit) -> bytes:
    """``blob`` with its JSON header passed through ``edit``."""
    prefix = serial._PREFIX
    _magic, head_len = prefix.unpack_from(blob)
    header = json.loads(blob[prefix.size:prefix.size + head_len])
    edit(header)
    head = json.dumps(header, separators=(",", ":")).encode("ascii")
    head += b" " * (-len(head) % 8)
    body = blob[prefix.size + head_len:]
    return prefix.pack(serial.CATALOG_MAGIC, len(head)) + head + body


class TestDamage:
    @pytest.fixture(scope="class")
    def blob(self) -> bytes:
        return encode_catalog(dump_state(build_rich_db(CONFIGS["cluster-buddy"])))

    @staticmethod
    def column_row(header: dict, name: str) -> list:
        return next(row for row in header["columns"] if row[0] == name)

    def test_the_intact_catalog_loads(self, blob):
        assert len(load_state(decode_catalog(blob))) == 122

    def test_truncation_at_every_sixteenth(self, blob):
        for i in range(16):
            with pytest.raises(StorageError):
                decode_catalog(blob[: len(blob) * i // 16])

    def test_stray_tail(self, blob):
        with pytest.raises(StorageError):
            decode_catalog(blob + b"\0" * 8)

    def test_wrong_magic(self, blob):
        with pytest.raises(StorageError, match="magic"):
            decode_catalog(b"REPROCAX" + blob[8:])
        # What format 2 stored: one JSON document.
        with pytest.raises(StorageError, match="magic"):
            decode_catalog(json.dumps({"format": 2, "objects": []}).encode("ascii"))

    def test_garbled_header(self, blob):
        garbled = bytearray(blob)
        garbled[serial._PREFIX.size] = ord("]")
        with pytest.raises(StorageError, match="header"):
            decode_catalog(bytes(garbled))

    @pytest.mark.parametrize(
        "block, key",
        [
            ("tree", "root"),
            ("allocator", "regions"),
            ("config", "disk_params"),
            ("storage", "unit_alloc"),
        ],
    )
    def test_a_header_entry_missing(self, blob, block, key):
        """A header that parses but lacks an entry the loader reads is
        damage, refused as such, not a bare ``KeyError``."""

        def drop(header):
            del header[block][key]

        with pytest.raises(StorageError, match=key):
            load_state(decode_catalog(reheaded(blob, drop)))

    def test_column_running_past_the_end(self, blob):
        def grow(header):
            self.column_row(header, "live")[2][0] += 1

        with pytest.raises(StorageError, match="past the end"):
            decode_catalog(reheaded(blob, grow))

    @pytest.mark.parametrize("dtype", ["O", "|O", "<U8", "|S8", "V8", ">f8", "<f4", 7])
    def test_non_numeric_dtype_in_the_header(self, blob, dtype):
        def retype(header):
            self.column_row(header, "vertices")[1] = dtype

        with pytest.raises(StorageError):
            decode_catalog(reheaded(blob, retype))

    @pytest.mark.parametrize("shape", [[-1, 2], [2.5, 2], "ab", [[1], 2], [2**62, 4]])
    def test_bad_shape_in_the_header(self, blob, shape):
        def reshape(header):
            self.column_row(header, "vertices")[2] = shape

        with pytest.raises(StorageError):
            decode_catalog(reheaded(blob, reshape))

    @pytest.mark.parametrize(
        "damage",
        [
            # column lengths that disagree
            lambda c: c.update(entry_rects=c["entry_rects"][:-1]),
            lambda c: c.update(entries=c["entries"][:-1]),
            lambda c: c.update(live=c["live"][:-1]),
            lambda c: c.update(override_rects=c["override_rects"][:0]),
            # an object-table offset past the vertex matrix
            lambda c: c["objects"].__setitem__((5, 3), c["objects"][5, 3] + 1),
            lambda c: c["objects"].__setitem__((-1, 3), len(c["vertices"]) + 1),
            lambda c: c["objects"].__setitem__((0, 3), -2),
            lambda c: c.update(vertices=c["vertices"][:-1]),
            # wrong dtype, wrong width, a column missing
            lambda c: c.update(vertices=c["vertices"].astype("<f4")),
            lambda c: c.update(objects=c["objects"].astype("<f8")),
            lambda c: c.update(live=c["live"][:, :2]),
            lambda c: c.pop("nodes"),
            # references to rows that are not there
            lambda c: c["entries"].__setitem__((0, 0), 10**6),
            lambda c: c["units"].__setitem__((0, 0), 10**6),
            lambda c: c["override_rows"].__setitem__((0, 0), 10**6),
            lambda c: c["extents"].__setitem__((0, 0), 10**6),
            # an object listed twice, unknown to the tree, or too short
            lambda c: c["objects"].__setitem__((1, 0), c["objects"][0, 0]),
            lambda c: c["objects"].__setitem__((1, 0), 10**6),
            lambda c: c["live"].__setitem__((1, 0), c["live"][0, 0]),
            lambda c: c["objects"].__setitem__((0, 1), 2),
            # a size below the footprint; an override off its object
            lambda c: c["objects"].__setitem__((0, 2), 1),
            lambda c: c["override_rects"].__setitem__(0, c["override_rects"][0] + 10_000),
        ],
    )
    def test_tables_that_contradict_each_other(self, blob, damage):
        state = decode_catalog(blob)
        state["columns"] = {k: v.copy() for k, v in state["columns"].items()}
        damage(state["columns"])
        with pytest.raises(StorageError):
            load_state(state)

    def test_a_polygon_row_is_refused_before_anything_is_built(self, blob, monkeypatch):
        """Kind 1 was a polygon.  No catalog holds one: a row of that
        kind is a typed error, raised before a database exists."""
        state = decode_catalog(blob)
        columns = state["columns"] = {k: v.copy() for k, v in state["columns"].items()}
        columns["objects"][7, 1] = 1
        built = []
        monkeypatch.setattr(SpatialDatabase, "_from_parts", lambda *parts: built.append(parts))
        with pytest.raises(StorageError, match="kind 1"):
            load_state(state)
        assert built == []

    def test_the_read_path_never_unpickles_or_evaluates(self):
        for module in (serial, file_store):
            with open(module.__file__, encoding="utf-8") as f:
                source = f.read()
            for banned in ("pickle", "eval(", "exec(", "np.load", "fromstring"):
                assert banned not in source, (module.__name__, banned)

    @staticmethod
    def stores_left_by_a_damaged_open(blob, damage, backing, tmp_path, monkeypatch):
        """Commit ``blob`` with its columns passed through ``damage`` to
        a file, open it (which must raise :class:`StorageError`) and
        return every file store the open created."""
        state = decode_catalog(blob)
        columns = state["columns"] = {k: v.copy() for k, v in state["columns"].items()}
        damage(columns)
        damaged = encode_catalog(state)
        path = str(tmp_path / "damaged.db")
        with FilePageStore(path) as store:
            capacity = payload_capacity(store.page_size)
            store.commit(
                meta={"kind": "spatialdb", "format": CATALOG_FORMAT},
                meta_payloads=[
                    damaged[i:i + capacity] for i in range(0, len(damaged), capacity)
                ],
            )
        opened = []
        init = FilePageStore.__init__

        def spy(store, *args, **kwargs):
            init(store, *args, **kwargs)
            opened.append(store)

        monkeypatch.setattr(FilePageStore, "__init__", spy)
        with pytest.raises(StorageError):
            SpatialDatabase.open(path, backing=backing)
        return opened

    @pytest.mark.parametrize("backing", ["sim", "file"])
    def test_open_closes_the_file_when_the_catalog_is_damaged(
        self, blob, backing, tmp_path, monkeypatch
    ):
        """``open`` used to close the store only when *reading* the meta
        pages failed; a catalog that fails validation left the
        descriptor to ``__del__``."""

        def damage(columns):
            columns["objects"][0, 3] += 1  # checksums fine, tables disagree

        opened = self.stores_left_by_a_damaged_open(blob, damage, backing, tmp_path, monkeypatch)
        assert [store._fd for store in opened] == [None]

    @pytest.mark.parametrize("backing", ["sim", "file"])
    def test_open_refuses_a_polygon_row_and_closes_the_file(
        self, blob, backing, tmp_path, monkeypatch
    ):
        def damage(columns):
            columns["objects"][-1, 1] = 1

        opened = self.stores_left_by_a_damaged_open(blob, damage, backing, tmp_path, monkeypatch)
        assert [store._fd for store in opened] == [None]


# ----------------------------------------------------------------------
# the crash matrix
# ----------------------------------------------------------------------
class TestCrashMatrix:
    @pytest.fixture(scope="class")
    def committed_base(self, tmp_path_factory):
        """A committed image (state A), the same database mutated in
        memory (state B), and both expected answer sets."""
        path = str(tmp_path_factory.mktemp("crash") / "base.db")
        db = build_db(CONFIGS["cluster-fixed"], n=60)
        db.finalize()
        answers_a = [a[0] for a in answers(db)]
        db.save(path)
        for i in range(10):
            x = 150.0 * (i + 1)
            db.insert_polyline(8000 + i, [(x, x), (x + 60, x + 60)])
        answers_b = [a[0] for a in answers(db)]
        assert answers_a != answers_b  # the inserts must be visible
        return path, db, answers_a, answers_b

    @staticmethod
    def faulty_resave(db, target, **faults) -> int:
        store = FaultyPageStore(target, **faults)
        try:
            db.save(target, store=store)
            return store.writes_completed
        finally:
            store.close()

    def total_writes(self, committed_base, tmp_path) -> int:
        path, db, _, _ = committed_base
        scratch = str(tmp_path / "dry.db")
        shutil.copyfile(path, scratch)
        return self.faulty_resave(db, scratch)

    @pytest.mark.parametrize("torn", [False, True])
    def test_crash_at_every_write_boundary(self, committed_base, tmp_path, torn):
        path, db, answers_a, answers_b = committed_base
        total = self.total_writes(committed_base, tmp_path)
        assert total > 3  # data runs + map chunks + catalog + superblock
        scratch = str(tmp_path / "crash.db")
        for n in range(total):
            shutil.copyfile(path, scratch)
            with pytest.raises(SimulatedCrash):
                self.faulty_resave(db, scratch, crash_after_writes=n, torn=torn)
            with FilePageStore(scratch) as probe:
                epoch = probe.epoch
            recovered = SpatialDatabase.open(scratch)
            got = [a[0] for a in answers(recovered)]
            # The epoch rule: recovery must land on whichever checkpoint
            # was durably committed.  The crash always precedes the
            # superblock fsync — except when the torn final write leaves
            # a logically complete superblock (its payload fits in the
            # surviving half), which legitimately commits the new epoch.
            if epoch == 1:
                assert got == answers_a, f"boundary {n} (torn={torn})"
            else:
                assert epoch == 2
                assert torn and n == total - 1
                assert got == answers_b, f"boundary {n} (torn={torn})"

    def test_interrupted_save_never_corrupts_the_old_epoch(
        self, committed_base, tmp_path
    ):
        # Crash mid-flush, then reopen *file-backed* and scrub: every
        # committed page must still verify — copy-on-write slots may
        # hold torn garbage but no committed slot was overwritten.
        path, db, answers_a, _ = committed_base
        scratch = str(tmp_path / "scrub.db")
        shutil.copyfile(path, scratch)
        with pytest.raises(SimulatedCrash):
            self.faulty_resave(db, scratch, crash_after_writes=2, torn=True)
        fdb = SpatialDatabase.open(scratch, backing="file")
        try:
            assert fdb.disk.scrub() == fdb.disk.mapped_pages
            assert [a[0] for a in answers(fdb)] == answers_a
        finally:
            fdb.close()

    def test_persistent_bit_flip_is_detected(self, committed_base, tmp_path):
        path, _, _, _ = committed_base
        scratch = str(tmp_path / "flip.db")
        shutil.copyfile(path, scratch)
        with FilePageStore(scratch) as probe:
            victim = min(probe._map.values())
            page_size = probe.page_size
        flip_byte(scratch, victim, page_size)
        fdb = SpatialDatabase.open(scratch, backing="file")
        try:
            with pytest.raises(PageCorruptionError):
                fdb.disk.scrub()
        finally:
            fdb.close()


# ----------------------------------------------------------------------
# what a save / reopen cycle costs, as counts (ROADMAP item A)
# ----------------------------------------------------------------------
def persist_counts() -> dict[str, float]:
    """Run the benchmark's smoke-size ``persist_cycle`` twin — A-1 at
    scale 0.005 (map seed 1994) saved, 10 A-2 objects inserted, saved
    again, reopened file-backed, 40 windows of area 1e-3 — and count the
    real I/O of each step and the loaded geometries whose vertex tuples
    exist.  Machine-independent; CI's ``Size report`` prints it."""
    import tempfile
    from unittest.mock import patch

    from repro.data.workload import window_workload

    spec = scaled(spec_for("A-1"), 0.005)
    objects = generate_map(spec, seed=1994)
    spare = generate_map(scaled(spec_for("A-2"), 0.005), seed=1994, id_offset=10**6)[:10]
    windows = window_workload(objects, 1e-3, n_queries=40, seed=1994)
    db = SpatialDatabase(avg_object_size=spec.avg_object_size)
    db.build(objects)
    calls = dict.fromkeys(("pwrites", "fsyncs", "preads", "verified_pages"), 0)

    def counted(key, original):
        def wrapper(*args):
            calls[key] += 1
            return original(*args)

        return wrapper

    def delta(before: dict) -> dict:
        return {key: calls[key] - before[key] for key in calls}

    def with_tuples(database) -> int:
        return sum(
            o.geometry._vertices is not None for o in database.storage.objects.values()
        )

    with (
        tempfile.TemporaryDirectory() as workdir,
        patch.object(FilePageStore, "_pwrite", counted("pwrites", FilePageStore._pwrite)),
        patch.object(FilePageStore, "_sync", counted("fsyncs", FilePageStore._sync)),
        patch.object(FilePageStore, "_pread", counted("preads", FilePageStore._pread)),
        patch.object(
            file_store, "decode_page", counted("verified_pages", file_store.decode_page)
        ),
    ):
        path = f"{workdir}/a1.db"
        mark = dict(calls)
        db.save(path)
        full = delta(mark)
        for obj in spare:
            db.insert(obj)
        mark = dict(calls)
        db.save(path)
        incremental = delta(mark)
        live = SpatialDatabase.open(path, backing="file")
        try:
            tuples_after_open = with_tuples(live)
            mark = dict(calls)
            answers = sum(len(live.window_query(*w.as_tuple()).objects) for w in windows)
            in_windows = delta(mark)
            tuples_after_windows = with_tuples(live)
            mark = dict(calls)
            catalog_bytes = sum(len(chunk) for chunk in live.disk.read_meta_pages())
            meta = delta(mark)
        finally:
            live.close()
    return {
        "objects": len(live.storage.objects),
        "answers": answers,
        "full_save_pwrites": full["pwrites"],
        "full_save_fsyncs": full["fsyncs"],
        "incremental_save_pwrites": incremental["pwrites"],
        "incremental_save_fsyncs": incremental["fsyncs"],
        "catalog_bytes": catalog_bytes,
        "preads_per_window": in_windows["preads"] / len(windows),
        "verified_pages_per_window": in_windows["verified_pages"] / len(windows),
        "meta_preads": meta["preads"],
        "meta_pages": meta["verified_pages"],
        "tuples_after_open": tuples_after_open,
        "tuples_after_windows": tuples_after_windows,
    }


class TestPersistCycleCounts:
    def test_real_io_and_materialised_geometry_per_step(self):
        """ROADMAP A's ``persist_cycle`` row.  Exact values: the map,
        the tree, the image and the queries are deterministic."""
        counts = persist_counts()
        assert (counts["objects"], counts["answers"]) == (667, 529)
        # A save is one pwrite per data run (1, then none: the inserts
        # land on pages the image holds), per page-map slot (3) and per
        # catalog slot (86, then 88), then the superblock; a new file
        # first commits an empty epoch 0 (one more pwrite, the third
        # fsync).
        assert (counts["full_save_pwrites"], counts["full_save_fsyncs"]) == (92, 3)
        assert (
            counts["incremental_save_pwrites"], counts["incremental_save_fsyncs"]
        ) == (92, 2)
        assert counts["catalog_bytes"] == 356_112
        # A window verifies its pages in place, one pread per slot run.
        assert counts["preads_per_window"] == 3.7
        assert counts["verified_pages_per_window"] == 22.45
        # The catalog's 88 slots are one ascending run: one pread (88,
        # one per slot, before runs were read whole).
        assert (counts["meta_preads"], counts["meta_pages"]) == (1, 88)
        # Reopened geometry is the vertex column: windows refine on the
        # matrix and never build a vertex tuple.
        assert counts["tuples_after_open"] == counts["tuples_after_windows"] == 0
