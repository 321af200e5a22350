"""The historical O(n)-scan virtual clock: the equivalence oracle of
``tests/test_virtual_clock.py``.  It shipped in ``repro.iosched`` until
nothing but that suite used it."""

from __future__ import annotations

from repro.iosched.scheduler import VirtualClock


class IntervalListClock(VirtualClock):
    """The historical O(n)-scan virtual clock.

    Byte-for-byte the pre-PR-8 :class:`VirtualClock` reservation logic:
    per-disk merged sorted ``(start, end)`` interval lists with a
    linear scan-and-insert per reservation.  Kept as the equivalence
    oracle for the bisect-indexed :class:`VirtualClock` (the two must
    produce identical placements on any dispatch sequence).  It inherits
    the client timelines, ``dispatch`` and ``makespan`` and overrides
    every member that touches the busy intervals, so the oracle never
    runs the code it checks.
    """

    __slots__ = ("_busy",)

    def __init__(self):
        super().__init__()
        # Per disk: merged, sorted (start, end) busy intervals.
        self._busy: list[list[tuple[float, float]]] = []

    @property
    def disk_free(self) -> list[float]:
        """Per disk, the end of its last busy interval (0.0 while idle).
        Earlier idle gaps may still exist in front of it."""
        return [busy[-1][1] if busy else 0.0 for busy in self._busy]

    def _ensure(self, n_disks: int) -> None:
        if len(self._busy) < n_disks:
            self._busy.extend(
                [] for _ in range(n_disks - len(self._busy))
            )

    def reserve(self, disk: int, at: float, work: float) -> float:
        """Reserve ``work`` ms on one disk at the earliest start >=
        ``at`` that fits a gap; returns the begin time."""
        if disk >= len(self._busy):
            self._ensure(disk + 1)
        intervals = self._busy[disk]
        begin = at
        position = len(intervals)
        for i, (start, end) in enumerate(intervals):
            if end <= begin:
                continue
            if begin + work <= start:
                position = i
                break
            begin = end
        lo, hi = begin, begin + work
        # Merge with exactly-touching neighbours to keep the list compact.
        if position > 0 and intervals[position - 1][1] == lo:
            lo = intervals[position - 1][0]
            position -= 1
            del intervals[position]
        if position < len(intervals) and intervals[position][0] == hi:
            hi = intervals[position][1]
            del intervals[position]
        intervals.insert(position, (lo, hi))
        return begin

    # Historical name of the reservation primitive.
    _place = reserve

    def _clear(self) -> None:
        self._busy.clear()
