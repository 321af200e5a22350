"""A durable, file-backed page store with checkpointed crash recovery.

Everything priced so far lived in Python objects; this module puts an
actual single-file page image underneath the same
:class:`~repro.pagestore.store.PageStore` protocol — the layout of the
classic single-``.dat``-file page managers: fixed-size pages addressed
by id, ``pread``/``pwrite`` at ``slot * page_size`` offsets, batched
contiguous-run flushes (reusing the buffer pool's
:func:`~repro.buffer.pool.coalesce_pages` schedule).

Two address spaces meet here.  *Logical* pages are the simulated disk's
page numbers (allocator regions are spaced ``1 << 24`` pages apart, so
they cannot index a file directly); *physical slots* are dense
``page_size``-byte records in the file.  A page map (logical -> slot)
is persisted at every checkpoint.

On-disk format (every slot, superblocks included, is one checksummed
page)::

    slot 0   superblock A      [crc32 | magic | kind | len | JSON]
    slot 1   superblock B       epoch, next_slot, page-map and catalog
    slot 2+  data / map / meta  ("meta") slots as [start, count] runs,
                                user meta

Durability protocol — shadow superblock + copy-on-write:

* :meth:`flush` never overwrites a slot referenced by the *committed*
  epoch: dirty pages go to fresh (or uncommitted, recycled) slots.
* :meth:`commit` writes data, then the page map and catalog pages,
  fsyncs, and only then writes the new superblock into the slot
  ``epoch % 2`` — alternating, so the previous superblock survives —
  and fsyncs again.
* Reopen picks the checksum-valid superblock with the highest epoch.
  A crash at *any* write boundary therefore recovers to the last
  committed epoch: a torn superblock fails its checksum and the other
  one wins.

Corruption is detected per page by CRC-32 (the checksum covers the
whole slot, padding included).  A run of consecutive slots is one
``pread``, each page checked in place on a ``memoryview``; a page that
fails is re-read alone a bounded number of times — a transient fault
heals, persistent damage surfaces as
:class:`~repro.errors.PageCorruptionError`.  The counters
``store.checksum_failures`` / ``store.retries`` /
``recovery.replayed_pages`` and the ``recovery.epoch`` gauge publish
this through the metrics registry.

The store is also a :class:`~repro.pagestore.store.CompositePageStore`
over one child, the pricing :class:`~repro.disk.model.DiskModel` (same
constants, same stats as a simulated disk), so it speaks the whole
:class:`~repro.pagestore.store.PageStore` protocol; priced reads of
*mapped* pages additionally perform — and verify — the real ``pread``,
which is what ``python -m repro.eval storage`` cross-validates against
wall-clock.  The simulated path stays the
default everywhere; nothing here is on the oracle-producing code path.
"""

from __future__ import annotations

import heapq
import json
import os
import struct
import zlib
from typing import Sequence

from repro.buffer.pool import coalesce_pages
from repro.disk.model import DiskModel
from repro.disk.params import DiskParameters
from repro.errors import ConfigurationError, PageCorruptionError, StorageError
from repro.obs.metrics import MetricsRegistry
from repro.pagestore.store import CompositePageStore

__all__ = [
    "FilePageStore",
    "PAGE_HEADER",
    "KIND_DATA",
    "KIND_MAP",
    "KIND_META",
    "KIND_SUPER",
    "encode_page",
    "decode_page",
    "payload_capacity",
]

#: Per-page header: CRC-32 of everything after it, a magic, the page
#: kind, and the payload length.  16 bytes keep payloads 8-aligned.
PAGE_HEADER = struct.Struct("<IHHQ")
PAGE_MAGIC = 0x5250  # "RP"

KIND_DATA = 0
KIND_SUPER = 1
KIND_MAP = 2
KIND_META = 3

SUPERBLOCK_MAGIC = "repro-pagestore"
#: 2: the superblock lists map / meta slots as ``[start, count]`` runs
#: (1: one JSON integer per slot, which overflowed at ~4,000 objects).
FORMAT_VERSION = 2

#: Slots 0 and 1 hold the two alternating superblocks.
FIRST_DATA_SLOT = 2

#: The most slots one verified ``pread`` covers (1 MiB of 4 KiB pages):
#: a scrub or a catalog read of a large image stays in bounded buffers.
READ_RUN_SLOTS = 256


def payload_capacity(page_size: int) -> int:
    """Payload bytes one checksummed page of ``page_size`` can carry."""
    return page_size - PAGE_HEADER.size


def encode_page(payload: bytes, page_size: int, kind: int = KIND_DATA) -> bytes:
    """One full on-disk page: header + payload, zero-padded, with the
    CRC-32 of everything after the checksum field."""
    capacity = payload_capacity(page_size)
    if len(payload) > capacity:
        raise StorageError(
            f"payload of {len(payload)} B exceeds the page capacity of "
            f"{capacity} B ({page_size} B pages)"
        )
    body = (
        PAGE_HEADER.pack(0, PAGE_MAGIC, kind, len(payload))[4:]
        + payload
        + b"\x00" * (capacity - len(payload))
    )
    return struct.pack("<I", zlib.crc32(body)) + body


def decode_page(
    buf: bytes | memoryview, page_size: int, kind: int | None = None
) -> bytes:
    """Verify and unwrap one on-disk page (``bytes`` or a ``memoryview``,
    checked in place); raises :class:`~repro.errors.PageCorruptionError`
    on a short read, a checksum mismatch, a foreign magic or an
    unexpected kind."""
    if len(buf) != page_size:
        raise PageCorruptionError(
            f"short page: got {len(buf)} of {page_size} B"
        )
    crc, magic, page_kind, length = PAGE_HEADER.unpack_from(buf)
    if zlib.crc32(buf[4:]) != crc:
        raise PageCorruptionError("page checksum mismatch")
    if magic != PAGE_MAGIC:
        raise PageCorruptionError(f"bad page magic 0x{magic:04x}")
    if length > payload_capacity(page_size):
        raise PageCorruptionError(f"impossible payload length {length}")
    if kind is not None and page_kind != kind:
        raise PageCorruptionError(
            f"expected page kind {kind}, found {page_kind}"
        )
    return bytes(buf[PAGE_HEADER.size:PAGE_HEADER.size + length])


#: Sentinel payload of a logical page that was written through the
#: priced protocol surface (no byte content supplied): the flush keeps
#: the mapped content if there is one, else materialises an empty page.
_PRESERVE = object()


class FilePageStore(CompositePageStore):
    """A single-file page image implementing the ``PageStore`` protocol.

    Parameters
    ----------
    path:
        The backing file.  Created (with an empty committed epoch 0)
        when missing or empty; otherwise the last committed epoch is
        recovered.
    page_size:
        Slot size in bytes; must match the stored image on reopen.
    params:
        Timing constants of the inner pricing :class:`DiskModel`.
    read_retries:
        Bounded retries of a checksum-failing ``pread`` before the
        corruption surfaces.
    metrics:
        Shared registry for the recovery/corruption counters.
    """

    def __init__(
        self,
        path: str,
        page_size: int | None = None,
        params: DiskParameters | None = None,
        read_retries: int = 2,
        metrics: MetricsRegistry | None = None,
    ):
        self.path = path
        super().__init__([DiskModel(params)])
        if page_size is None:
            page_size = self.model.params.page_size
        if page_size < 4 * PAGE_HEADER.size:
            raise ConfigurationError(
                f"page_size {page_size} is too small for the page header"
            )
        if read_retries < 0:
            raise ConfigurationError("read_retries must be >= 0")
        self.page_size = page_size
        self.read_retries = read_retries
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._checksum_failures = self.metrics.counter("store.checksum_failures")
        self._retries = self.metrics.counter("store.retries")
        self._replayed = self.metrics.counter("recovery.replayed_pages")
        self.metrics.gauge("recovery.epoch", lambda: self._epoch)

        self._fd: int | None = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        self._epoch = 0
        self._map: dict[int, int] = {}  # logical page -> slot
        self._dirty: dict[int, object] = {}  # logical page -> payload
        self._next_slot = FIRST_DATA_SLOT
        self._free_slots: list[int] = []  # heap of recyclable slots
        self._committed_slots: set[int] = set()
        self._map_slots: list[int] = []
        self._meta_slots: list[int] = []
        self._retired_slots: list[int] = []
        self.meta: dict = {}
        if os.fstat(self._fd).st_size < self.page_size:
            # A fresh (or never-committed) file: commit an empty epoch 0
            # so every later open finds a valid superblock.
            self._write_superblock(0)
            self._sync()
        else:
            self._recover()

    # ------------------------------------------------------------------
    # low-level I/O — the fault-injection seam
    # ------------------------------------------------------------------
    def _pread(self, offset: int, nbytes: int) -> bytes:
        assert self._fd is not None
        return os.pread(self._fd, nbytes, offset)

    def _pwrite(self, offset: int, data: bytes) -> None:
        assert self._fd is not None
        os.pwrite(self._fd, data, offset)

    def _sync(self) -> None:
        assert self._fd is not None
        os.fsync(self._fd)

    # ------------------------------------------------------------------
    # checksummed slot access
    # ------------------------------------------------------------------
    def _read_slot(self, slot: int, kind: int | None = None) -> bytes:
        """Read and verify one slot, retrying a bounded number of times
        before the corruption surfaces."""
        return self._read_run(slot, 1, kind)[0]

    def _read_run(self, start: int, count: int, kind: int | None) -> list[bytes]:
        """Read ``count`` consecutive slots with one ``pread`` per
        :data:`READ_RUN_SLOTS` and verify each page in place; a page
        that fails is re-read alone up to ``read_retries`` times (each a
        ``store.retries``) before the corruption surfaces.  Returns the
        payloads in slot order."""
        size = self.page_size
        payloads = []
        for first in range(start, start + count, READ_RUN_SLOTS):
            n = min(READ_RUN_SLOTS, start + count - first)
            buf = memoryview(self._pread(first * size, n * size))
            for i in range(n):
                try:
                    payloads.append(decode_page(buf[i * size:(i + 1) * size], size, kind))
                except PageCorruptionError as exc:
                    self._checksum_failures.inc()
                    payloads.append(self._reread_slot(first + i, kind, exc))
        return payloads

    def _reread_slot(
        self, slot: int, kind: int | None, failure: PageCorruptionError
    ) -> bytes:
        """The bounded retry of one slot whose first read failed."""
        for _ in range(self.read_retries):
            self._retries.inc()
            try:
                return decode_page(
                    self._pread(slot * self.page_size, self.page_size),
                    self.page_size,
                    kind,
                )
            except PageCorruptionError as exc:
                self._checksum_failures.inc()
                failure = exc
        raise PageCorruptionError(f"{self.path}, slot {slot}: {failure}")

    def _write_slot(self, slot: int, payload: bytes, kind: int) -> None:
        self._pwrite(
            slot * self.page_size, encode_page(payload, self.page_size, kind)
        )

    # ------------------------------------------------------------------
    # superblock + recovery
    # ------------------------------------------------------------------
    def _superblock_payload(self, epoch: int) -> bytes:
        payload = json.dumps(
            {
                "magic": SUPERBLOCK_MAGIC,
                "format": FORMAT_VERSION,
                "epoch": epoch,
                "page_size": self.page_size,
                "next_slot": self._next_slot,
                # ``_alloc_slot`` hands out ascending slots (free heap
                # first, then fresh ones), so these are a few runs.
                "map_slots": coalesce_pages(self._map_slots),
                "meta_slots": coalesce_pages(self._meta_slots),
                "meta": self.meta,
            },
            separators=(",", ":"),
        ).encode("ascii")
        if len(payload) > payload_capacity(self.page_size):
            raise StorageError(
                "superblock overflow: the page map or catalog is scattered "
                "over more slot runs than one page lists — raise page_size"
            )
        return payload

    def _write_superblock(self, epoch: int) -> None:
        # At ``epoch`` only once the slot holds it: an overflow leaves both.
        self._write_slot(epoch % 2, self._superblock_payload(epoch), KIND_SUPER)
        self._epoch = epoch

    def _probe_superblock(self, slot: int) -> dict | None:
        """Decode one superblock candidate; ``None`` when torn/foreign."""
        try:
            payload = decode_page(
                self._pread(slot * self.page_size, self.page_size),
                self.page_size,
                KIND_SUPER,
            )
            state = json.loads(payload)
        except (PageCorruptionError, ValueError):
            return None
        if state.get("magic") != SUPERBLOCK_MAGIC:
            return None
        return state

    def _recover(self) -> None:
        """Adopt the last committed epoch: the valid superblock with the
        highest epoch wins; its page map is re-read and verified."""
        candidates = [
            s for s in (self._probe_superblock(0), self._probe_superblock(1))
            if s is not None
        ]
        if not candidates:
            raise PageCorruptionError(
                f"{self.path}: no valid superblock — the file never "
                f"completed a checkpoint or both superblocks are corrupt"
            )
        state = max(candidates, key=lambda s: s["epoch"])
        if state.get("format") != FORMAT_VERSION:
            raise StorageError(
                f"{self.path}: unsupported store format {state.get('format')}"
            )
        if state["page_size"] != self.page_size:
            raise ConfigurationError(
                f"{self.path} uses {state['page_size']} B pages, "
                f"store opened with {self.page_size}"
            )
        self._epoch = state["epoch"]
        self._next_slot = state["next_slot"]
        self._map_slots, self._meta_slots = (
            [slot for start, count in runs for slot in range(start, start + count)]
            for runs in (state["map_slots"], state["meta_slots"])
        )
        self.meta = state.get("meta", {})
        self._map = {}
        for start, count in coalesce_pages(self._map_slots):
            for chunk in self._read_run(start, count, KIND_MAP):
                self._map.update(json.loads(chunk))
                self._replayed.inc()
        self._committed_slots = (
            {0, 1}
            | set(self._map.values())
            | set(self._map_slots)
            | set(self._meta_slots)
        )
        free = set(range(FIRST_DATA_SLOT, self._next_slot)) - self._committed_slots
        self._free_slots = sorted(free)
        heapq.heapify(self._free_slots)

    def scrub(self) -> int:
        """Verify the checksum of every mapped data slot (counted into
        ``recovery.replayed_pages``); returns the number of pages
        checked, raising on the first unrecoverable corruption."""
        checked = 0
        for start, count in coalesce_pages(sorted(self._map.values())):
            self._read_run(start, count, KIND_DATA)
            checked += count
            self._replayed.inc(count)
        return checked

    # ------------------------------------------------------------------
    # payload surface
    # ------------------------------------------------------------------
    def put(self, page: int, payload: bytes) -> None:
        """Buffer byte content for a logical page (written out by the
        next :meth:`flush` / :meth:`commit`)."""
        if len(payload) > payload_capacity(self.page_size):
            raise StorageError(
                f"page payload of {len(payload)} B exceeds the capacity "
                f"of {payload_capacity(self.page_size)} B"
            )
        self._dirty[page] = bytes(payload)

    def get(self, page: int) -> bytes:
        """The current payload of a logical page (dirty buffer first,
        then the committed image, checksum-verified)."""
        payload = self._dirty.get(page)
        if isinstance(payload, bytes):
            return payload
        slot = self._map.get(page)
        if slot is None:
            raise StorageError(f"logical page {page} is not in the store")
        return self._read_slot(slot, KIND_DATA)

    def contains(self, page: int) -> bool:
        """Whether the store holds content for a logical page."""
        return page in self._dirty or page in self._map

    @property
    def mapped_pages(self) -> int:
        """Logical pages with committed slots."""
        return len(self._map)

    @property
    def epoch(self) -> int:
        """The last committed checkpoint epoch."""
        return self._epoch

    @property
    def file_bytes(self) -> int:
        """Current size of the backing file."""
        return self._next_slot * self.page_size

    def _alloc_slot(self) -> int:
        if self._free_slots:
            return heapq.heappop(self._free_slots)
        slot = self._next_slot
        self._next_slot += 1
        return slot

    def flush(self) -> list[tuple[int, int]]:
        """Write every dirty page copy-on-write: fresh slots only (a
        slot of the committed epoch is never overwritten), one
        ``pwrite`` per contiguous slot run (the
        :func:`~repro.buffer.pool.coalesce_pages` schedule).  Returns
        the written slot runs.  Nothing is priced here: the simulated
        cost stays with the page writes that dirtied the store."""
        if not self._dirty:
            return []
        staged: list[tuple[int, bytes]] = []
        retired: list[int] = []
        for page in sorted(self._dirty):
            payload = self._dirty[page]
            if payload is _PRESERVE:
                old_slot = self._map.get(page)
                payload = (
                    self._read_slot(old_slot, KIND_DATA)
                    if old_slot is not None
                    else b""
                )
            slot = self._alloc_slot()
            old = self._map.get(page)
            if old is not None:
                if old in self._committed_slots:
                    retired.append(old)  # recyclable after the commit
                else:
                    heapq.heappush(self._free_slots, old)
            self._map[page] = slot
            staged.append((slot, encode_page(payload, self.page_size, KIND_DATA)))
        self._dirty.clear()
        self._retired_slots.extend(retired)
        staged.sort()
        encoded = dict(staged)
        runs = coalesce_pages([slot for slot, _ in staged])
        for run_start, run_pages in runs:
            self._pwrite(
                run_start * self.page_size,
                b"".join(encoded[run_start + i] for i in range(run_pages)),
            )
        return runs

    _retired_slots: list[int]

    def commit(
        self,
        meta: dict | None = None,
        meta_payloads: Sequence[bytes] | None = None,
    ) -> int:
        """Checkpoint: flush dirty pages, persist the page map (and the
        optional catalog payload chunks), fsync, then publish the new
        epoch through the alternate superblock.  Returns the epoch."""
        self._retired_slots = []
        self.flush()
        if meta is not None:
            self.meta = dict(meta)
        # Page map and catalog are copy-on-write like the data: the
        # previous epoch's slots are recycled only after the new
        # superblock is durable.
        self._retired_slots.extend(
            s for s in self._map_slots + self._meta_slots
            if s in self._committed_slots
        )
        self._map_slots = self._write_chunks(self._map_chunks(), KIND_MAP)
        self._meta_slots = self._write_chunks(
            [bytes(p) for p in meta_payloads] if meta_payloads is not None else [],
            KIND_META,
        )
        self._sync()
        self._write_superblock(self._epoch + 1)
        self._sync()
        self._committed_slots = (
            {0, 1}
            | set(self._map.values())
            | set(self._map_slots)
            | set(self._meta_slots)
        )
        for slot in self._retired_slots:
            if slot not in self._committed_slots:
                heapq.heappush(self._free_slots, slot)
        self._retired_slots = []
        return self._epoch

    def _map_chunks(self) -> list[bytes]:
        """The page map as JSON chunks, each fitting one page."""
        records = sorted(self._map.items())
        # "[page,slot]," is bounded by two 20-digit ints plus 4 chars.
        per_chunk = max(1, payload_capacity(self.page_size) // 48)
        return [
            json.dumps(
                [[p, s] for p, s in records[i:i + per_chunk]],
                separators=(",", ":"),
            ).encode("ascii")
            for i in range(0, len(records), per_chunk)
        ] if records else []

    def _write_chunks(self, payloads: Sequence[bytes], kind: int) -> list[int]:
        slots = [self._alloc_slot() for _ in payloads]
        for slot, payload in sorted(zip(slots, payloads)):
            self._write_slot(slot, payload, kind)
        return slots

    def read_meta_pages(self) -> list[bytes]:
        """The committed catalog payload chunks, checksum-verified: one
        ``pread`` per run of consecutive slots (a chunk's slots ascend
        in chunk order, see :meth:`_superblock_payload`)."""
        payloads: list[bytes] = []
        for start, count in coalesce_pages(self._meta_slots):
            payloads += self._read_run(start, count, KIND_META)
        return payloads

    # ------------------------------------------------------------------
    # PageStore protocol: pricing on the one child, with real, verified
    # preads of mapped pages on the read path
    # ------------------------------------------------------------------
    @property
    def model(self) -> DiskModel:
        """The pricing disk — the store's one child."""
        return self.children[0]

    @property
    def params(self) -> DiskParameters:
        return self.model.params

    def _verify_range(self, start: int, npages: int) -> None:
        """Really read (and checksum-verify) the mapped pages of one
        logical run, as contiguous slot runs."""
        slots = sorted(
            self._map[page]
            for page in range(start, start + npages)
            if page in self._map and page not in self._dirty
        )
        for run_start, run_pages in coalesce_pages(slots):
            self._read_run(run_start, run_pages, KIND_DATA)

    def _transfer(
        self, kind: str, runs: Sequence[tuple[int, int]], continuation: bool
    ) -> float:
        """Price the batch on the model, then make it real: a read
        ``pread``s and verifies the mapped pages, a write marks its
        pages for the next flush."""
        cost = self.model.price_runs(runs, continuation, kind)
        self._response_ms += cost
        for start, npages in runs:
            if kind == "read":
                self._verify_range(start, npages)
            else:
                # No byte content at this surface: keep what is mapped
                # (the slot moves copy-on-write at the next flush),
                # materialise an empty page otherwise.
                for page in range(start, start + npages):
                    self._dirty.setdefault(page, _PRESERVE)
        return cost

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "FilePageStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter shutdown order
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({self.path!r}, epoch={self._epoch}, "
            f"pages={len(self._map)}, slots={self._next_slot})"
        )
