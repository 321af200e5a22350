"""Pluggable page-replacement policies.

Every policy implements the same small surface — a fixed-capacity
cache of hashable keys with hit/miss/evict statistics and an optional
eviction callback — so the :class:`~repro.buffer.pool.BufferPool` can
swap policies freely.  A buffer is policy-only: it tracks which keys
(page numbers) are resident and picks victims; actual I/O pricing
stays with the pool, which knows whether a miss becomes part of a
larger vectored read.  The surface is documented by the
:class:`ReplacementPolicy` protocol; concrete policies:

* ``lru``   — least recently used: the spatial join's buffer of
  200-6400 pages (Section 6.1) and the cache of the upper tree levels
  during R*-tree construction;
* ``fifo``  — first in, first out: recency of *use* is ignored, pages
  leave in admission order;
* ``clock`` — the classic second-chance approximation of LRU: a
  reference bit per frame, a sweeping hand that clears bits and evicts
  the first unreferenced page;
* ``lru-k`` — LRU-K [O'Neil et al., SIGMOD 93]: the victim is the page
  with the oldest K-th most recent reference; pages referenced fewer
  than K times are preferred victims (their backward K-distance is
  infinite), which keeps single-touch scan pages from flushing the
  hot set.

Use :func:`make_buffer` to instantiate a policy by name.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from typing import Callable, Hashable, Iterable, Protocol, Sequence, runtime_checkable

from repro.errors import ConfigurationError

__all__ = [
    "ReplacementPolicy",
    "PolicyBuffer",
    "LRUBuffer",
    "FIFOBuffer",
    "ClockBuffer",
    "LRUKBuffer",
    "POLICIES",
    "hit_ratio",
    "make_buffer",
]


def hit_ratio(hits: int, misses: int) -> float:
    """Shared hit-rate rule: ``hits / (hits + misses)``, and 0.0 when
    nothing was accessed at all.  Every hit-rate property (pools,
    replacement buffers, workload phases and reports, join results)
    goes through this helper so the empty-denominator convention is
    one decision, not one per call site."""
    total = hits + misses
    return hits / total if total else 0.0


@runtime_checkable
class ReplacementPolicy(Protocol):
    """Structural protocol shared by all replacement buffers.

    A policy is a bounded cache of page keys.  It never performs I/O
    itself: the owning :class:`~repro.buffer.pool.BufferPool` installs
    an ``on_evict(key, dirty)`` callback for write-back and prices the
    transfers.  The callback hears of every dirty victim and of the
    clean ones in ``watched`` (empty unless the owner fills it).
    """

    policy: str
    capacity: int
    on_evict: Callable[[Hashable, bool], None] | None
    watched: set
    hits: int
    misses: int
    evictions: int

    def __contains__(self, key: Hashable) -> bool: ...
    def __len__(self) -> int: ...
    def access_all(self, keys: Sequence[Hashable]) -> list[Hashable]: ...
    def admit_all(self, keys: Iterable[Hashable], dirty: bool = False) -> None: ...
    def dirty_keys(self) -> list[Hashable]: ...
    def mark_clean(self, key: Hashable) -> None: ...
    def discard(self, key: Hashable) -> None: ...
    def flush(self) -> list[Hashable]: ...
    def clear(self) -> None: ...


class PolicyBuffer:
    """Shared machinery of the replacement buffers.

    The entry table maps ``key -> dirty``; its order is the eviction
    order (the oldest entry leaves first), which is all FIFO needs and
    LRU keeps by moving a hit to the young end.  Subclasses define the
    ordering hooks they need (``_note_admit``, ``_note_hit``, and
    ``_pop_victim`` where the victim is not the oldest entry).
    """

    policy = "abstract"

    def __init__(
        self,
        capacity: int,
        on_evict: Callable[[Hashable, bool], None] | None = None,
    ):
        if capacity < 1:
            raise ConfigurationError(f"buffer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.on_evict = on_evict
        #: Keys whose clean eviction ``on_evict`` must still hear of; a
        #: clean victim outside it leaves silently.  A pool puts its
        #: read-ahead set here.
        self.watched: set = set()
        self._entries: OrderedDict[Hashable, bool] = OrderedDict()  # key -> dirty
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- ordering hooks -------------------------------------------------
    # ``None`` where a policy has nothing to do: the access and
    # admission loops skip the call, and the victim is the oldest entry.
    #: ``(key)``: a new key became resident.
    _note_admit: Callable[[Hashable], None] | None = None
    #: ``(key)``: a resident key was referenced again.
    _note_hit: Callable[[Hashable], None] | None = None
    #: ``() -> (key, dirty)``: remove the next victim, forgetting it in
    #: the policy's own bookkeeping.
    _pop_victim: Callable[[], tuple[Hashable, bool]] | None = None

    def _note_drop(self, key: Hashable) -> None:
        """A key left residency through discard/clear (not eviction)."""

    # -- shared surface -------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def access_all(self, keys: Sequence[Hashable]) -> list[Hashable]:
        """Touch a run of keys in order — the one access loop — and
        return those that missed (none is admitted)."""
        entries, note_hit = self._entries, self._note_hit
        missing = []
        for key in keys:
            if key not in entries:
                missing.append(key)
            elif note_hit is not None:
                note_hit(key)
        self.hits += len(keys) - len(missing)
        self.misses += len(missing)
        return missing

    def admit_all(self, keys: Iterable[Hashable], dirty: bool = False) -> None:
        """Insert or refresh a run of keys in order, evicting victims
        when over capacity — the one admission loop, so eviction
        sequences do not depend on how a caller groups its pages.  The
        table never holds more than ``capacity`` keys between calls, so
        each new key evicts at most one victim."""
        entries, capacity, on_evict = self._entries, self.capacity, self.on_evict
        watched, pop_victim = self.watched, self._pop_victim
        note_hit, note_admit = self._note_hit, self._note_admit
        for key in keys:
            if key in entries:
                if dirty:
                    entries[key] = True
                if note_hit is not None:
                    note_hit(key)
                continue
            entries[key] = dirty
            if note_admit is not None:
                note_admit(key)
            if len(entries) > capacity:
                if pop_victim is None:
                    victim, was_dirty = entries.popitem(False)  # the oldest
                else:
                    victim, was_dirty = pop_victim()
                self.evictions += 1
                if on_evict is not None and (was_dirty or victim in watched):
                    on_evict(victim, was_dirty)

    def dirty_keys(self) -> list[Hashable]:
        return [k for k, dirty in self._entries.items() if dirty]

    def mark_clean(self, key: Hashable) -> None:
        if key in self._entries:
            self._entries[key] = False

    def discard(self, key: Hashable) -> None:
        self._entries.pop(key, None)
        self._note_drop(key)

    def flush(self) -> list[Hashable]:
        """Evict everything (calling the callback for the dirty and the
        watched entries); returns the keys that were dirty."""
        dirty, watched = self.dirty_keys(), self.watched
        if self.on_evict is not None:
            for key, was_dirty in list(self._entries.items()):
                if was_dirty or key in watched:
                    self.on_evict(key, was_dirty)
        self.evictions += len(self._entries)
        self.clear()
        return dirty

    def clear(self) -> None:
        """Drop all entries without invoking the eviction callback."""
        for key in list(self._entries):
            self._note_drop(key)
        self._entries.clear()


class LRUBuffer(PolicyBuffer):
    """Least recently used: a hit moves the page to the young end, the
    victim is the oldest."""

    policy = "lru"

    def __init__(self, capacity, on_evict=None):
        super().__init__(capacity, on_evict)
        # The hook is the table's own method: a hit costs no frame of ours.
        self._note_hit = self._entries.move_to_end


class FIFOBuffer(PolicyBuffer):
    """First-in-first-out: eviction order is admission order, hits do
    not refresh a page's position."""

    policy = "fifo"


class ClockBuffer(PolicyBuffer):
    """Second-chance (CLOCK) replacement.

    Each resident page carries a reference bit, set when the page is
    loaded and on every hit.  The eviction hand sweeps the frames in
    ring order: referenced pages lose their bit and are passed over
    once, the first unreferenced page is the victim.  Loading with the
    bit set means a freshly admitted page always survives the sweep
    that its own admission triggers (it sits behind the hand), as in
    classic clock-sweep buffer managers.
    """

    policy = "clock"

    def __init__(self, capacity, on_evict=None):
        super().__init__(capacity, on_evict)
        self._referenced: dict[Hashable, bool] = {}

    def _note_admit(self, key: Hashable) -> None:
        self._referenced[key] = True

    def _note_hit(self, key: Hashable) -> None:
        self._referenced[key] = True

    def _note_drop(self, key: Hashable) -> None:
        self._referenced.pop(key, None)

    def _pop_victim(self) -> tuple[Hashable, bool]:
        entries, referenced = self._entries, self._referenced
        while True:
            key = next(iter(entries))
            if referenced.get(key, False):
                # Second chance: clear the bit, move behind the hand.
                referenced[key] = False
                entries.move_to_end(key)
            else:
                referenced.pop(key, None)
                return key, entries.pop(key)


class LRUKBuffer(PolicyBuffer):
    """LRU-K replacement (K = 2 by default).

    A logical clock ticks on every admit/hit; each page remembers its
    last K reference times.  The victim maximises the backward
    K-distance: pages with fewer than K references count as infinitely
    distant (ties broken by least recent last reference), so pages seen
    only once are replaced before twice-referenced ones.  Victim
    selection uses a lazily invalidated min-heap of ``(kth, last)``
    ranks, so evictions stay O(log n) instead of scanning every frame
    (Figure 14-sized pools hold thousands).
    """

    policy = "lru-k"

    def __init__(self, capacity, on_evict=None, k: int = 2):
        super().__init__(capacity, on_evict)
        if k < 1:
            raise ConfigurationError(f"LRU-K needs k >= 1, got {k}")
        self.k = k
        self._tick = 0
        self._history: dict[Hashable, tuple[int, ...]] = {}
        # Min-heap of (kth, last, key); entries go stale when a key is
        # re-referenced or dropped and are skipped on pop.
        self._heap: list[tuple[int, int, Hashable]] = []

    def _rank(self, key: Hashable) -> tuple[int, int]:
        refs = self._history.get(key, ())
        # K-th most recent reference (or "never": rank below all
        # fully-referenced pages), then last reference as tiebreak.
        kth = refs[-self.k] if len(refs) >= self.k else -1
        last = refs[-1] if refs else -1
        return (kth, last)

    def _record(self, key: Hashable) -> None:
        self._tick += 1
        self._history[key] = (self._history.get(key, ()) + (self._tick,))[-self.k:]
        kth, last = self._rank(key)
        heapq.heappush(self._heap, (kth, last, key))
        if len(self._heap) > 8 * self.capacity + 64:
            # Compact away stale entries so the heap stays O(capacity).
            self._heap = [(*self._rank(k), k) for k in self._entries]
            heapq.heapify(self._heap)

    def _note_admit(self, key: Hashable) -> None:
        self._record(key)

    def _note_hit(self, key: Hashable) -> None:
        self._record(key)

    def _note_drop(self, key: Hashable) -> None:
        self._history.pop(key, None)

    def _pop_victim(self) -> tuple[Hashable, bool]:
        while self._heap:
            kth, last, key = heapq.heappop(self._heap)
            if key in self._entries and self._rank(key) == (kth, last):
                break
        else:
            # The heap only runs dry if bookkeeping broke; fall back to
            # a full scan rather than corrupting the entry table.
            key = min(self._entries, key=self._rank)  # pragma: no cover
        dirty = self._entries.pop(key)
        # Retain the reference history of evicted pages (the
        # algorithm's "retained information": a re-admitted page keeps
        # its K-distance), pruning the stalest non-resident histories
        # so memory stays proportional to the pool.
        if len(self._history) > 16 * self.capacity + 256:
            stale = sorted(
                (k for k in self._history if k not in self._entries),
                key=lambda k: self._history[k][-1],
            )
            for k in stale[: len(stale) // 2]:
                del self._history[k]
        return key, dirty


POLICIES: dict[str, Callable[..., ReplacementPolicy]] = {
    "lru": LRUBuffer,
    "fifo": FIFOBuffer,
    "clock": ClockBuffer,
    "lru-k": LRUKBuffer,
}
"""Registry of replacement-policy names accepted everywhere a
``policy=`` argument appears (joins, pools, workloads)."""


def make_buffer(
    policy: str,
    capacity: int,
    on_evict: Callable[[Hashable, bool], None] | None = None,
) -> ReplacementPolicy:
    """Instantiate a replacement buffer by policy name."""
    factory = POLICIES.get(policy)
    if factory is None:
        raise ConfigurationError(
            f"unknown replacement policy '{policy}'; valid: {tuple(POLICIES)}"
        )
    return factory(capacity, on_evict=on_evict)
