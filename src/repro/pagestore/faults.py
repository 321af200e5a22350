"""Deterministic fault injection for the file-backed page store.

:class:`FaultyPageStore` subclasses :class:`~repro.pagestore.file.
FilePageStore` and intercepts the ``_pread``/``_pwrite`` seam — the
single choke point every byte of the store passes through, superblocks
included.  Three fault families cover the classic storage failure
modes:

* **Kill points** — ``crash_after_writes=N`` lets exactly ``N``
  ``pwrite`` calls complete, then raises :class:`SimulatedCrash` on
  the next one *before* any byte lands.  Sweeping ``N`` over every
  write of a workload is the crash-at-every-write-boundary recovery
  matrix.
* **Torn writes** — with ``torn=True`` the killed ``pwrite``
  additionally persists the *first half* of its buffer before
  raising, modelling a sector-granular partial write (the page's
  checksum no longer matches, so recovery must reject it).
* **Read corruption** — ``corrupt_read_slots`` flips one byte in the
  returned buffer the first time a ``pread`` covers a listed slot
  (transient: the fault clears afterwards, so the bounded retry in
  :meth:`~repro.pagestore.file.FilePageStore._read_run` heals it and
  the ``store.retries`` counter records the save).  For *persistent*
  media damage, :func:`flip_byte` mangles the file itself so retries
  exhaust and :class:`~repro.errors.PageCorruptionError` surfaces.

A :class:`SimulatedCrash` deliberately derives from
:class:`~repro.errors.ReproError` but **not** from the store's error
types: test code catches it explicitly, reopens the path with a fresh
(non-faulty) store, and asserts the recovered state equals the last
committed checkpoint.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import ReproError
from repro.pagestore.file import FilePageStore

__all__ = ["SimulatedCrash", "FaultyPageStore", "flip_byte"]


class SimulatedCrash(ReproError):
    """The injected kill point fired: the process 'died' mid-workload.

    Carries ``writes_completed`` so the recovery matrix can report which
    boundary it crashed at.
    """

    def __init__(self, writes_completed: int):
        super().__init__(
            f"simulated crash after {writes_completed} completed writes"
        )
        self.writes_completed = writes_completed


class FaultyPageStore(FilePageStore):
    """A :class:`FilePageStore` with deterministic fault injection.

    Parameters (in addition to the base class's)
    -------------------------------------------
    crash_after_writes:
        Let this many ``pwrite`` calls complete, then raise
        :class:`SimulatedCrash` on the next one.  ``None`` disables the
        kill point.
    torn:
        When the kill point fires, first persist the leading half of
        the doomed buffer (a torn write) instead of dropping it whole.
    corrupt_read_slots:
        Slots whose next ``pread`` returns a buffer with one byte
        flipped; each slot faults once (transient corruption).
    """

    def __init__(
        self,
        path: str,
        *,
        crash_after_writes: int | None = None,
        torn: bool = False,
        corrupt_read_slots: Iterable[int] = (),
        **kwargs,
    ):
        # Set the knobs before the base constructor runs: recovery in
        # ``__init__`` already goes through the seam.
        self.crash_after_writes = crash_after_writes
        self.torn = torn
        self._corrupt_read_slots = set(corrupt_read_slots)
        self.writes_attempted = 0
        self.writes_completed = 0
        super().__init__(path, **kwargs)

    def _pwrite(self, offset: int, data: bytes) -> None:
        self.writes_attempted += 1
        if (
            self.crash_after_writes is not None
            and self.writes_completed >= self.crash_after_writes
        ):
            if self.torn and data:
                super()._pwrite(offset, data[: max(1, len(data) // 2)])
            raise SimulatedCrash(self.writes_completed)
        super()._pwrite(offset, data)
        self.writes_completed += 1

    def _pread(self, offset: int, nbytes: int) -> bytes:
        buf = super()._pread(offset, nbytes)
        first = offset // self.page_size
        covered = range(first, first + (nbytes + self.page_size - 1) // self.page_size)
        for slot in covered:
            if slot in self._corrupt_read_slots:
                self._corrupt_read_slots.discard(slot)
                at = slot * self.page_size - offset + self.page_size // 2
                if 0 <= at < len(buf):
                    buf = buf[:at] + bytes([buf[at] ^ 0x40]) + buf[at + 1:]
        return buf


def flip_byte(path: str, slot: int, page_size: int, at: int | None = None) -> None:
    """Persistently flip one byte of a slot in the backing file —
    media corruption that survives retries, so a verified read of the
    slot must surface :class:`~repro.errors.PageCorruptionError`."""
    if at is None:
        at = page_size // 2
    offset = slot * page_size + at
    with open(path, "r+b") as f:
        f.seek(offset)
        byte = f.read(1)
        f.seek(offset)
        f.write(bytes([byte[0] ^ 0xFF]))
