"""Span tracing on the simulation's virtual clocks.

The tracer records nested spans — session -> operation -> AccessPlan ->
IORequest -> per-device service — stamped in *virtual milliseconds*, the
same unit every layer of the pipeline prices I/O in.  Two clock modes
cover the two schedulers:

``serial``
    The default.  The tracer keeps its own cumulative cursor
    (:attr:`Tracer.now_ms`) advanced by every priced device transfer, so
    a :class:`~repro.iosched.scheduler.SyncScheduler` run lays out as a
    single sequential timeline whose total width equals the run's device
    milliseconds.

``virtual``
    Switched on by the :class:`~repro.iosched.scheduler.OverlapScheduler`
    (or by :meth:`Tracer.use_virtual_clock`).  Span begin/end times come
    from the scheduler's :class:`~repro.iosched.scheduler.VirtualClock`:
    client-side spans carry issue/completion stamps, and device service
    spans are buffered per request (:meth:`Tracer.begin_pending`) and
    re-stamped onto the exact per-disk busy interval the clock placed the
    work in (:meth:`Tracer.place_pending`).

Tracing is **disabled by default** and the hot path must stay clean:
instrumented sites read the module attribute :data:`ACTIVE` and skip all
work when it is ``None`` — one global load plus an identity test, no
function call.  Pricing is never affected by tracing in either state.

Parentage is tracked through a stack of open spans: execution is
single-threaded even when virtual timelines overlap, so the span open at
the time a child begins *is* its causal parent.  Detached roots (client
sessions, background prefetch plans, flush) pass ``parent=None``
explicitly; ending a span out of stack order is tolerated (it is simply
removed from the stack), which keeps open spans intact across mid-run
stats resets.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

__all__ = [
    "ACTIVE",
    "Instant",
    "Span",
    "Tracer",
    "current_tracer",
    "install_tracer",
    "register_store_devices",
    "tracing",
    "uninstall_tracer",
]

_UNSET = object()


class Span:
    """One half-open interval ``[start_ms, end_ms]`` on a named track."""

    __slots__ = ("name", "cat", "track", "start_ms", "end_ms", "parent", "args")

    def __init__(
        self,
        name: str,
        cat: str,
        track: str,
        start_ms: float,
        parent: "Span | None" = None,
        args: dict[str, Any] | None = None,
    ) -> None:
        self.name = name
        self.cat = cat
        self.track = track
        self.start_ms = start_ms
        self.end_ms: float | None = None
        self.parent = parent
        self.args = args

    @property
    def duration_ms(self) -> float:
        if self.end_ms is None:
            return 0.0
        return self.end_ms - self.start_ms

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = "open" if self.end_ms is None else f"{self.end_ms:.3f}"
        return (
            f"Span({self.name!r}, cat={self.cat!r}, track={self.track!r}, "
            f"[{self.start_ms:.3f}, {end}])"
        )


class Instant:
    """A zero-width marker event (admission admit, prefetch dispatch...)."""

    __slots__ = ("name", "cat", "track", "ts_ms", "args")

    def __init__(
        self,
        name: str,
        cat: str,
        track: str,
        ts_ms: float,
        args: dict[str, Any] | None = None,
    ) -> None:
        self.name = name
        self.cat = cat
        self.track = track
        self.ts_ms = ts_ms
        self.args = args


class Tracer:
    """Collects spans and instants for one traced run."""

    __slots__ = (
        "label",
        "spans",
        "instants",
        "now_ms",
        "virtual",
        "virtual_now",
        "_stack",
        "_track",
        "_device_tracks",
        "_device_cursor",
        "_pending",
    )

    def __init__(self, label: str = "trace") -> None:
        self.label = label
        self.spans: list[Span] = []
        self.instants: list[Instant] = []
        #: cumulative serial-mode cursor: total priced device ms so far.
        self.now_ms = 0.0
        #: ``True`` once an overlap scheduler stamps virtual-clock times.
        self.virtual = False
        #: coarse "current virtual time" anchor used for events that are
        #: not individually stamped (fallback device spans, instants).
        self.virtual_now = 0.0
        self._stack: list[Span] = []
        self._track = "main"
        self._device_tracks: dict[int, str] = {}
        self._device_cursor: dict[str, float] = {}
        self._pending: list[tuple[Any, str, float, int]] | None = None

    # ------------------------------------------------------------------
    # clock & track context
    # ------------------------------------------------------------------
    def use_virtual_clock(self, on: bool) -> None:
        """Switch between serial cumulative time and virtual-clock stamps."""
        self.virtual = bool(on)

    def set_track(self, track: str) -> None:
        """Set the default track for subsequent client-side events."""
        self._track = track

    @property
    def current_track(self) -> str:
        return self._track

    def _now(self) -> float:
        return self.virtual_now if self.virtual else self.now_ms

    # ------------------------------------------------------------------
    # client-side spans
    # ------------------------------------------------------------------
    def begin(
        self,
        name: str,
        cat: str = "span",
        track: str | None = None,
        ts: float | None = None,
        parent: "Span | None | object" = _UNSET,
        args: dict[str, Any] | None = None,
    ) -> Span:
        if parent is _UNSET:
            parent = self._stack[-1] if self._stack else None
        span = Span(
            name,
            cat,
            self._track if track is None else track,
            self._now() if ts is None else ts,
            parent=parent,  # type: ignore[arg-type]
            args=args,
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span, ts: float | None = None) -> Span:
        end = self._now() if ts is None else ts
        # Zero-work requests can complete "before" their begin stamp was
        # rounded; clamp so durations stay non-negative.
        span.end_ms = max(end, span.start_ms)
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:
            self._stack.remove(span)
        return span

    @contextmanager
    def span(
        self,
        name: str,
        cat: str = "span",
        track: str | None = None,
        args: dict[str, Any] | None = None,
    ) -> Iterator[Span]:
        opened = self.begin(name, cat=cat, track=track, args=args)
        try:
            yield opened
        finally:
            self.end(opened)

    def instant(
        self,
        name: str,
        cat: str = "instant",
        track: str | None = None,
        ts: float | None = None,
        args: dict[str, Any] | None = None,
    ) -> Instant:
        mark = Instant(
            name,
            cat,
            self._track if track is None else track,
            self._now() if ts is None else ts,
            args=args,
        )
        self.instants.append(mark)
        return mark

    # ------------------------------------------------------------------
    # device service spans (called from DiskModel pricing)
    # ------------------------------------------------------------------
    def name_device(self, device: Any, track: str) -> None:
        """Assign a stable track name (``disk0``, ``tier.fast``...) to a device."""
        self._device_tracks[id(device)] = track

    def device_track(self, device: Any) -> str:
        track = self._device_tracks.get(id(device))
        if track is None:
            track = f"disk{len(self._device_tracks)}"
            self._device_tracks[id(device)] = track
        return track

    @property
    def device_tracks(self) -> tuple[str, ...]:
        return tuple(self._device_tracks.values())

    def device(self, device: Any, kind: str, start: int, npages: int, cost_ms: float) -> None:
        """Record one priced device transfer.

        Called by :meth:`repro.disk.model.DiskModel._transfer` (and
        ``charge``) whenever a tracer is installed.  In serial mode this
        also advances the tracer's cumulative clock — the serial timeline
        *is* the sum of priced work.  Inside an overlap request the
        record is buffered and later re-stamped by
        :meth:`place_pending` onto the virtual clock's busy interval.
        """
        if self._pending is not None:
            self._pending.append((device, kind, cost_ms, npages))
            return
        track = self.device_track(device)
        if not self.virtual:
            begin = self.now_ms
            self.now_ms = begin + cost_ms
        else:
            # Unbatched work under overlap (inserts, deletes, flush
            # residue): lay it out sequentially per device, never before
            # the current virtual time.
            begin = max(self.virtual_now, self._device_cursor.get(track, 0.0))
            self._device_cursor[track] = begin + cost_ms
        span = Span(kind, "device", track, begin, parent=self._stack[-1] if self._stack else None,
                    args={"start": start, "npages": npages})
        span.end_ms = begin + cost_ms
        self.spans.append(span)

    def begin_pending(self) -> None:
        """Start buffering device records for one overlap request."""
        self._pending = []

    def place_pending(self, begins: dict[Any, float]) -> None:
        """Stamp buffered device records onto the clock's placement.

        ``begins`` maps device objects to the begin time of the busy
        interval the :class:`VirtualClock` placed that device's work in;
        records for one device are laid out back-to-back from there, so
        the last record's end coincides with the interval's end.
        """
        pending, self._pending = self._pending, None
        if not pending:
            return
        cursor: dict[int, float] = {}
        for device, kind, cost_ms, npages in pending:
            track = self.device_track(device)
            key = id(device)
            begin = cursor.get(key)
            if begin is None:
                begin = begins.get(device)
                if begin is None:
                    begin = max(self.virtual_now, self._device_cursor.get(track, 0.0))
            span = Span(kind, "device", track, begin, parent=self._stack[-1] if self._stack else None,
                        args={"npages": npages})
            span.end_ms = begin + cost_ms
            self.spans.append(span)
            cursor[key] = span.end_ms
            fallback = self._device_cursor.get(track, 0.0)
            if span.end_ms > fallback:
                self._device_cursor[track] = span.end_ms

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def open_spans(self) -> list[Span]:
        return [span for span in self.spans if span.end_ms is None]

    def device_spans(self) -> list[Span]:
        return [span for span in self.spans if span.cat == "device"]

    def device_totals(self) -> dict[str, float]:
        """Total span milliseconds per device track."""
        totals: dict[str, float] = {}
        for span in self.spans:
            if span.cat != "device" or span.end_ms is None:
                continue
            totals[span.track] = totals.get(span.track, 0.0) + span.duration_ms
        return totals

    def max_ts(self) -> float:
        last = 0.0
        for span in self.spans:
            end = span.end_ms if span.end_ms is not None else span.start_ms
            if end > last:
                last = end
        for mark in self.instants:
            if mark.ts_ms > last:
                last = mark.ts_ms
        return last


# ----------------------------------------------------------------------
# module-level sink: ``None`` means tracing is a no-op everywhere
# ----------------------------------------------------------------------
ACTIVE: Tracer | None = None


def current_tracer() -> Tracer | None:
    return ACTIVE


def install_tracer(tracer: Tracer | None = None) -> Tracer:
    global ACTIVE
    ACTIVE = tracer if tracer is not None else Tracer()
    return ACTIVE


def uninstall_tracer() -> Tracer | None:
    global ACTIVE
    previous, ACTIVE = ACTIVE, None
    return previous


@contextmanager
def tracing(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Install ``tracer`` (or a fresh one) for the duration of the block."""
    global ACTIVE
    previous = ACTIVE
    active = tracer if tracer is not None else Tracer()
    ACTIVE = active
    try:
        yield active
    finally:
        ACTIVE = previous


def register_store_devices(tracer: Tracer, store: Any) -> None:
    """Give a page store's devices stable track names: the store's own
    ``device_labels()`` behind one prefix — ``disk`` for numbered arms
    (``disk0`` alone, ``disk0..n-1`` sharded), ``tier.`` for named
    tiers (``tier.fast`` / ``tier.capacity``, ``tier.fast-0`` … over
    sharded tiers)."""
    for disk, label in zip(store.disks, store.device_labels()):
        prefix = "disk" if label.isdigit() else "tier."
        tracer.name_device(disk, prefix + label)
