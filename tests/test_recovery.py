"""Crash-recovery tests for the persistent database: save/open round
trips across every organization (answers AND priced I/O must survive),
the crash-at-every-write-boundary matrix over the fault-injection
harness, and detection of persistent media corruption."""

from __future__ import annotations

import shutil

import pytest

from repro.database import SpatialDatabase
from repro.errors import PageCorruptionError, StorageError
from repro.iosched.scheduler import SyncScheduler
from repro.obs import MetricsRegistry
from repro.pagestore import FaultyPageStore, FilePageStore, SimulatedCrash, flip_byte
from repro.storage.serial import CATALOG_FORMAT, dump_state, load_state

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
        """Devices, scheduler, prefetcher and admission belong to
        whoever opens an image: a sharded overlap database comes back
        single-disk and sync, with its answers and its layout."""
        path = str(tmp_path / "spatial.db")
        db = SpatialDatabase(
            smax_bytes=SMAX,
            buddy_sizes=3,
            n_disks=4,
            placement="hash",
            scheduler="overlap",
            prefetch="cluster",
            admission="priority",
        )
        db.build(make_objects(80))
        db.save(path)
        reopened = SpatialDatabase.open(path)
        assert reopened.layout == db.layout
        assert reopened.n_disks == 1
        assert type(reopened.scheduler) is SyncScheduler
        assert reopened.prefetcher is None
        assert reopened.admission_policy == "none"
        assert [oids for oids, _ms in answers(reopened)] == [
            oids for oids, _ms in answers(db)
        ]
        # Its priced I/O is a single-disk database's with that layout.
        single = SpatialDatabase(smax_bytes=SMAX, buddy_sizes=3)
        single.build(make_objects(80))
        assert answers(reopened) == answers(single)

    def test_wrong_format_rejected(self):
        """A newer catalog and format 1 (the config block before it was
        the layout) alike are refused by the typed error, not misread."""
        db = build_db(CONFIGS["secondary"], n=20)
        db.finalize()
        state = dump_state(db)
        assert state["format"] == CATALOG_FORMAT == 2
        for other in (1, CATALOG_FORMAT + 1):
            state["format"] = other
            with pytest.raises(StorageError):
                load_state(state)

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
            assert metrics.value("recovery.epoch") == store.epoch == 1
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
