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
    "policy_name",
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
    transfers.
    """

    capacity: int
    on_evict: Callable[[Hashable, bool], None] | None
    hits: int
    misses: int
    evictions: int

    def __contains__(self, key: Hashable) -> bool: ...
    def __len__(self) -> int: ...
    def access(self, key: Hashable) -> bool: ...
    def access_all(self, keys: Sequence[Hashable]) -> list[Hashable]: ...
    def admit(self, key: Hashable, dirty: bool = False) -> None: ...
    def admit_all(self, keys: Iterable[Hashable], dirty: bool = False) -> None: ...
    def mark_dirty(self, key: Hashable) -> None: ...
    def dirty_keys(self) -> list[Hashable]: ...
    def mark_clean(self, key: Hashable) -> None: ...
    def discard(self, key: Hashable) -> None: ...
    def flush(self) -> list[Hashable]: ...
    def clear(self) -> None: ...
    def reset_stats(self) -> None: ...

    @property
    def hit_rate(self) -> float: ...


class PolicyBuffer:
    """Shared machinery of the replacement buffers.

    Subclasses override the three ordering hooks: :meth:`_note_admit`,
    :meth:`_note_hit` and :meth:`_select_victim`.  The entry table maps
    ``key -> dirty`` in admission order.
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
        self._entries: OrderedDict[Hashable, bool] = OrderedDict()  # key -> dirty
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- ordering hooks -------------------------------------------------
    def _note_admit(self, key: Hashable) -> None:
        """A new key became resident."""

    def _note_hit(self, key: Hashable) -> None:
        """A resident key was re-referenced."""

    def _select_victim(self) -> Hashable:
        """Choose (and forget, in the subclass's own bookkeeping) the
        next eviction victim among the resident keys; by default the
        oldest in table order."""
        return next(iter(self._entries))

    def _note_drop(self, key: Hashable) -> None:
        """A key left residency through discard/clear (not eviction)."""

    def _note_evict(self, key: Hashable) -> None:
        """A key was evicted by the policy (default: same as a drop)."""
        self._note_drop(key)

    # -- shared surface -------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def access(self, key: Hashable) -> bool:
        """Touch ``key``; returns True on a hit.  A miss does *not*
        admit the key (the caller decides what a miss loads)."""
        return not self.access_all((key,))

    def access_all(self, keys: Sequence[Hashable]) -> list[Hashable]:
        """Touch a run of keys in order — the one access loop — and
        return those that missed (none is admitted)."""
        entries, note_hit = self._entries, self._note_hit
        missing = []
        for key in keys:
            if key in entries:
                note_hit(key)
            else:
                missing.append(key)
        self.hits += len(keys) - len(missing)
        self.misses += len(missing)
        return missing

    def admit(self, key: Hashable, dirty: bool = False) -> None:
        """Insert or refresh ``key``, evicting victims when over
        capacity."""
        self.admit_all((key,), dirty)

    def admit_all(self, keys: Iterable[Hashable], dirty: bool = False) -> None:
        """Insert or refresh a run of keys in order — the one admission
        loop (:meth:`admit` is its one-key case), so eviction sequences
        do not depend on how a caller groups its pages."""
        entries, capacity, on_evict = self._entries, self.capacity, self.on_evict
        note_hit, note_admit = self._note_hit, self._note_admit
        select_victim, note_evict = self._select_victim, self._note_evict
        for key in keys:
            if key in entries:
                entries[key] = entries[key] or dirty
                note_hit(key)
                continue
            entries[key] = dirty
            note_admit(key)
            while len(entries) > capacity:
                victim = select_victim()
                was_dirty = entries.pop(victim)
                note_evict(victim)
                self.evictions += 1
                if on_evict is not None:
                    on_evict(victim, was_dirty)

    def mark_dirty(self, key: Hashable) -> None:
        if key in self._entries:
            self._entries[key] = True
            self._note_hit(key)

    def dirty_keys(self) -> list[Hashable]:
        return [k for k, dirty in self._entries.items() if dirty]

    def mark_clean(self, key: Hashable) -> None:
        if key in self._entries:
            self._entries[key] = False

    def discard(self, key: Hashable) -> None:
        self._entries.pop(key, None)
        self._note_drop(key)

    def flush(self) -> list[Hashable]:
        """Evict everything (calling the callback for every entry);
        returns the keys that were dirty."""
        dirty = self.dirty_keys()
        if self.on_evict is not None:
            for key, was_dirty in list(self._entries.items()):
                self.on_evict(key, was_dirty)
        self.evictions += len(self._entries)
        self.clear()
        return dirty

    def clear(self) -> None:
        """Drop all entries without invoking the eviction callback."""
        for key in list(self._entries):
            self._note_drop(key)
        self._entries.clear()

    @property
    def hit_rate(self) -> float:
        return hit_ratio(self.hits, self.misses)

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0


class LRUBuffer(PolicyBuffer):
    """Least recently used: a hit moves the page to the young end, the
    victim is the oldest."""

    policy = "lru"

    def _note_hit(self, key: Hashable) -> None:
        self._entries.move_to_end(key)


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

    def _select_victim(self) -> Hashable:
        while True:
            key = next(iter(self._entries))
            if self._referenced.get(key, False):
                # Second chance: clear the bit, move behind the hand.
                self._referenced[key] = False
                self._entries.move_to_end(key)
            else:
                return key


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

    def _note_evict(self, key: Hashable) -> None:
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

    def _select_victim(self) -> Hashable:
        while self._heap:
            kth, last, key = heapq.heappop(self._heap)
            if key in self._entries and self._rank(key) == (kth, last):
                return key
        # The heap only runs dry if bookkeeping broke; fall back to a
        # full scan rather than corrupting the entry table.
        return min(self._entries, key=self._rank)  # pragma: no cover


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


def policy_name(buffer: object) -> str:
    """The registry name of a buffer instance (best effort)."""
    name = getattr(buffer, "policy", None)
    if isinstance(name, str):
        return name
    return type(buffer).__name__
