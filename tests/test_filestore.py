"""Tests for the durable file-backed page store: the checksummed page
codec (property-based: round trips, bit flips, torn writes), the
put/get/commit surface over a real file, coalesced flushing, priced
protocol reads, and the bounded-retry corruption handling."""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.model import DiskModel
from repro.errors import PageCorruptionError, StorageError
from repro.obs import MetricsRegistry
from repro.pagestore import (
    FaultyPageStore,
    FilePageStore,
    decode_page,
    encode_page,
    flip_byte,
)
from repro.pagestore.file import (
    FIRST_DATA_SLOT,
    FORMAT_VERSION,
    KIND_DATA,
    KIND_META,
    KIND_SUPER,
    payload_capacity,
)

PAGE = 256  # small pages keep the property tests fast
CAPACITY = payload_capacity(PAGE)


# ----------------------------------------------------------------------
# the page codec
# ----------------------------------------------------------------------
class TestCodec:
    @given(
        payload=st.binary(max_size=CAPACITY),
        kind=st.integers(min_value=0, max_value=3),
    )
    def test_round_trip(self, payload: bytes, kind: int):
        page = encode_page(payload, PAGE, kind)
        assert len(page) == PAGE
        assert decode_page(page, PAGE, kind) == payload
        assert decode_page(page, PAGE) == payload  # kind check optional

    @given(
        payload=st.binary(max_size=CAPACITY),
        bit=st.integers(min_value=0, max_value=PAGE * 8 - 1),
    )
    def test_any_single_bit_flip_is_detected(self, payload: bytes, bit: int):
        page = bytearray(encode_page(payload, PAGE))
        page[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(PageCorruptionError):
            decode_page(bytes(page), PAGE)

    @given(payload=st.binary(max_size=CAPACITY))
    def test_torn_write_detected_or_identical(self, payload: bytes):
        # A torn page (leading half persisted, tail zeroed) either fails
        # the checksum or is byte-identical to the intact page — the
        # payload fit in the surviving half and the lost tail was
        # padding.  There is no third outcome: a torn page can never
        # decode to *different* bytes.
        page = encode_page(payload, PAGE)
        torn = page[: PAGE // 2] + b"\x00" * (PAGE - PAGE // 2)
        if torn == page:
            assert decode_page(torn, PAGE) == payload
        else:
            with pytest.raises(PageCorruptionError):
                decode_page(torn, PAGE)

    @settings(max_examples=25)
    @given(payload=st.binary(min_size=CAPACITY // 2, max_size=CAPACITY))
    def test_truncated_buffer_is_detected(self, payload: bytes):
        page = encode_page(payload, PAGE)
        with pytest.raises(PageCorruptionError):
            decode_page(page[: PAGE - 1], PAGE)

    def test_oversize_payload_rejected(self):
        with pytest.raises(StorageError):
            encode_page(b"x" * (CAPACITY + 1), PAGE)

    def test_kind_mismatch_rejected(self):
        page = encode_page(b"payload", PAGE, KIND_DATA)
        with pytest.raises(PageCorruptionError):
            decode_page(page, PAGE, KIND_META)


# ----------------------------------------------------------------------
# the store over a real file
# ----------------------------------------------------------------------
class TestFilePageStore:
    def test_put_get_commit_reopen(self, tmp_path):
        path = str(tmp_path / "image.db")
        with FilePageStore(path, page_size=PAGE) as store:
            assert store.epoch == 0
            store.put(0, b"zero")
            store.put(1 << 24, b"far away")  # logical pages, not offsets
            assert store.commit(meta={"tag": "t"}) == 1
        with FilePageStore(path, page_size=PAGE) as store:
            assert store.epoch == 1
            assert store.meta == {"tag": "t"}
            assert store.get(0) == b"zero"
            assert store.get(1 << 24) == b"far away"
            assert store.contains(0)
            assert not store.contains(7)
            assert store.mapped_pages == 2

    def test_uncommitted_data_does_not_survive_reopen(self, tmp_path):
        path = str(tmp_path / "image.db")
        with FilePageStore(path, page_size=PAGE) as store:
            store.put(0, b"durable")
            store.commit()
            store.put(1, b"volatile")
            store.flush()  # flushed but never committed
        with FilePageStore(path, page_size=PAGE) as store:
            assert store.epoch == 1
            assert store.get(0) == b"durable"
            assert not store.contains(1)

    def test_meta_payload_chunks_round_trip(self, tmp_path):
        path = str(tmp_path / "image.db")
        chunks = [b"alpha" * 10, b"beta", b"x" * CAPACITY]
        with FilePageStore(path, page_size=PAGE) as store:
            store.commit(meta_payloads=chunks)
        with FilePageStore(path, page_size=PAGE) as store:
            assert store.read_meta_pages() == chunks

    def test_superblock_lists_slot_runs_not_slots(self, tmp_path):
        """Store format 2: 200 catalog pages are one ``[start, count]``
        run in the superblock (one JSON integer each overflowed a 256 B
        superblock at ~30 slots, a 4 KiB one at ~4,000 objects)."""
        path = str(tmp_path / "image.db")
        chunks = [b"%d" % i for i in range(200)]
        with FilePageStore(path, page_size=PAGE) as store:
            for page in range(300):
                store.put(page, b"p")
            store.commit(meta_payloads=chunks)
            state = store._probe_superblock(store.epoch % 2)
            assert state["format"] == FORMAT_VERSION == 2
            assert [len(state["map_slots"]), len(state["meta_slots"])] == [1, 1]
            assert state["meta_slots"][0][1] == 200
        with FilePageStore(path, page_size=PAGE) as store:
            assert store.read_meta_pages() == chunks
            assert store.mapped_pages == 300
            # The re-save takes the lowest free slots first, so the new
            # catalog is a few runs again; the old one is recycled.
            store.commit(meta_payloads=chunks[::-1])
            assert store.epoch == 2
        with FilePageStore(path, page_size=PAGE) as store:
            assert store.read_meta_pages() == chunks[::-1]

    def test_a_fragmented_image_can_still_overflow_the_superblock(self, tmp_path):
        path = str(tmp_path / "image.db")
        with FilePageStore(path, page_size=PAGE) as store:
            for page in range(80):
                store.put(page, b"v1")
            store.commit()
            for page in range(0, 80, 2):  # copy-on-write: every other
                store.put(page, b"v2")  # slot of the first run retires
            store.commit()
            with pytest.raises(StorageError, match="superblock overflow"):
                store.commit(meta_payloads=[b"m"] * 40)
        # The refused epoch was never published.
        with FilePageStore(path, page_size=PAGE) as store:
            assert store.epoch == 2
            assert store.get(0) == b"v2" and store.get(1) == b"v1"

    def test_a_refused_superblock_leaves_the_store_at_its_epoch(self, tmp_path):
        """ROADMAP D.3: the overflow is raised while the payload is
        built, before the slot is touched — the in-memory epoch must
        not have moved either, or the next save would publish epoch 4
        into the slot that holds the live epoch 2."""
        path = str(tmp_path / "image.db")
        with FilePageStore(path, page_size=PAGE) as store:
            for page in range(80):
                store.put(page, b"v1")
            store.commit()
            for page in range(0, 80, 2):
                store.put(page, b"v2")
            store.commit()
            with pytest.raises(StorageError, match="superblock overflow"):
                store.commit(meta_payloads=[b"m"] * 40)
            assert store.epoch == 2
            assert store._probe_superblock(0)["epoch"] == 2
            assert store._probe_superblock(1)["epoch"] == 1
            store.put(1, b"v3")
            assert store.commit() == 3
            assert store._probe_superblock(0)["epoch"] == 2  # still the fallback
            assert store._probe_superblock(1)["epoch"] == 3
        with FilePageStore(path, page_size=PAGE) as store:
            assert store.epoch == 3
            assert store.get(0) == b"v2" and store.get(1) == b"v3"
            assert store.read_meta_pages() == []

    def test_store_format_1_is_refused(self, tmp_path):
        path = str(tmp_path / "image.db")
        with FilePageStore(path, page_size=PAGE) as store:
            store.put(0, b"x")
            store.commit()
            state = store._probe_superblock(store.epoch % 2)
            state.update(format=1, map_slots=store._map_slots, meta_slots=[])
            payload = json.dumps(state, separators=(",", ":")).encode("ascii")
            store._write_slot(store.epoch % 2, payload, KIND_SUPER)
        with pytest.raises(StorageError, match="unsupported store format 1"):
            FilePageStore(path, page_size=PAGE)

    def test_contiguous_flush_coalesces_into_one_pwrite(self, tmp_path):
        path = str(tmp_path / "image.db")
        store = FaultyPageStore(path, page_size=PAGE)
        for page in range(100, 110):
            store.put(page, b"p%d" % page)
        before = store.writes_completed
        store.flush()
        # Ten fresh pages land in ten contiguous slots: ONE pwrite.
        assert store.writes_completed - before == 1
        store.close()

    def test_free_slots_are_recycled_across_commits(self, tmp_path):
        path = str(tmp_path / "image.db")
        store = FilePageStore(path, page_size=PAGE)
        for round_ in range(8):
            store.put(3, b"round %d" % round_)
            store.commit()
        # Copy-on-write burns one fresh slot per round, but retired
        # slots come back to the free list after the next commit — the
        # file stays bounded instead of growing by a slot per round.
        assert store.file_bytes <= PAGE * 8
        store.close()

    def test_priced_reads_match_the_plain_disk_model(self, tmp_path):
        path = str(tmp_path / "image.db")
        store = FilePageStore(path, page_size=PAGE)
        twin = DiskModel(store.model.params)
        store.put(0, b"a")
        store.put(1, b"b")
        store.commit()
        store.invalidate_head()
        twin.invalidate_head()
        assert store.read(0, 2) == pytest.approx(twin.read(0, 2))
        assert store.write(5, 1) == pytest.approx(twin.write(5, 1))
        assert store.stats().requests == twin.stats().requests
        store.close()

    def test_protocol_write_then_commit_preserves_content(self, tmp_path):
        path = str(tmp_path / "image.db")
        with FilePageStore(path, page_size=PAGE) as store:
            store.put(0, b"before")
            store.commit()
            store.write(0, 1)  # priced protocol write dirties the page
            store.commit()
            assert store.epoch == 2
        with FilePageStore(path, page_size=PAGE) as store:
            assert store.get(0) == b"before"  # content preserved

    def test_transient_read_corruption_heals_with_retries(self, tmp_path):
        path = str(tmp_path / "image.db")
        metrics = MetricsRegistry()
        with FilePageStore(path, page_size=PAGE) as store:
            store.put(0, b"fragile")
            store.commit()
        slot = FIRST_DATA_SLOT
        store = FaultyPageStore(
            path, page_size=PAGE, corrupt_read_slots=[slot], metrics=metrics
        )
        assert store.get(0) == b"fragile"
        assert metrics.counter("store.checksum_failures").value == 1
        assert metrics.counter("store.retries").value == 1
        store.close()

    def test_persistent_corruption_exhausts_retries(self, tmp_path):
        path = str(tmp_path / "image.db")
        metrics = MetricsRegistry()
        with FilePageStore(path, page_size=PAGE) as store:
            store.put(0, b"doomed")
            store.commit()
            slot = min(store._map.values())
        flip_byte(path, slot, PAGE)
        with FilePageStore(path, page_size=PAGE, metrics=metrics) as store:
            with pytest.raises(PageCorruptionError):
                store.get(0)
            # 1 initial attempt + read_retries=2 bounded retries.
            assert metrics.counter("store.checksum_failures").value == 3
            assert metrics.counter("store.retries").value == 2
            with pytest.raises(PageCorruptionError):
                store.scrub()

    def test_a_transient_flip_inside_a_catalog_run_heals(self, tmp_path):
        """The catalog's slots are read as one run; the one page that
        fails its check there is re-read alone (one retry)."""
        path = str(tmp_path / "image.db")
        chunks = [b"chunk %d" % i for i in range(5)]
        with FilePageStore(path, page_size=PAGE) as store:
            store.commit(meta={"kind": "test"}, meta_payloads=chunks)
            slots = store._meta_slots
        assert slots == list(range(slots[0], slots[0] + 5))
        metrics = MetricsRegistry()
        store = FaultyPageStore(
            path, page_size=PAGE, corrupt_read_slots=[slots[2]], metrics=metrics
        )
        preads = []
        read = store._pread
        store._pread = lambda offset, nbytes: preads.append(nbytes) or read(offset, nbytes)
        try:
            assert store.read_meta_pages() == chunks
        finally:
            store.close()
        assert preads == [5 * PAGE, PAGE]  # the run, then the retry
        assert metrics.counter("store.checksum_failures").value == 1
        assert metrics.counter("store.retries").value == 1

    def test_persistent_damage_inside_a_data_run_is_detected(self, tmp_path):
        path = str(tmp_path / "image.db")
        with FilePageStore(path, page_size=PAGE) as store:
            for page in range(8):
                store.put(page, b"page %d" % page)
            store.commit()
            victim = store._map[5]
        flip_byte(path, victim, PAGE)
        metrics = MetricsRegistry()
        with FilePageStore(path, page_size=PAGE, metrics=metrics) as store:
            store.read(0, 4)  # a run clear of the damage verifies
            with pytest.raises(PageCorruptionError, match=f"slot {victim}"):
                store.read(0, 8)
            # The run's check + read_retries=2 re-reads of that slot.
            assert metrics.counter("store.checksum_failures").value == 3
            assert metrics.counter("store.retries").value == 2

    def test_zero_retries_fail_fast(self, tmp_path):
        path = str(tmp_path / "image.db")
        with FilePageStore(path, page_size=PAGE) as store:
            store.put(0, b"x")
            store.commit()
        store = FaultyPageStore(
            path,
            page_size=PAGE,
            read_retries=0,
            corrupt_read_slots=[FIRST_DATA_SLOT],
        )
        with pytest.raises(PageCorruptionError):
            store.get(0)
        store.close()

    def test_no_valid_superblock_is_an_error(self, tmp_path):
        path = str(tmp_path / "garbage.db")
        with open(path, "wb") as f:
            f.write(os.urandom(4 * PAGE))
        with pytest.raises(PageCorruptionError):
            FilePageStore(path, page_size=PAGE)

    def test_kill_point_counts_attempts(self, tmp_path):
        path = str(tmp_path / "image.db")
        store = FaultyPageStore(path, page_size=PAGE, crash_after_writes=100)
        store.put(0, b"x")
        store.commit()
        assert store.writes_attempted == store.writes_completed
        store.close()
