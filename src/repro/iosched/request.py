"""Declarative I/O requests and access plans.

Historically every read path issued imperative ``pool.read(...)`` call
chains: the pricing, the request order and the continuation discounts
were all baked into control flow, so nothing between the consumer and
the device could reorder, overlap or prefetch.  An :class:`AccessPlan`
inverts that: a consumer *declares* the page requests an operation
needs (in issue order, with their continuation semantics) and hands the
plan to :meth:`repro.buffer.pool.BufferPool.submit`, which routes it
through the pool's :class:`~repro.iosched.scheduler.IOScheduler`.

The default :class:`~repro.iosched.scheduler.SyncScheduler` executes
the steps through exactly the pool primitives the imperative code used,
in the same order — pricing is bit-identical.  The
:class:`~repro.iosched.scheduler.OverlapScheduler` additionally times
every step on a virtual clock, overlapping requests across disks and
across concurrent client sessions.

Continuation semantics come in three flavours per request:

* ``continuation=False`` — a fresh request (pays the positioning seek);
* ``continuation=True`` — a follow-up inside a cluster unit the head is
  already positioned on (Section 5.4.3);
* ``chain=<id>`` — *auto*: the request is fresh while no earlier
  request of the same chain has actually transferred, and a
  continuation afterwards.  This reproduces the warm-pool rule of the
  query techniques, where an access absorbed entirely by resident
  pages (cost 0) must not hand the continuation discount to its
  successors.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - import would be circular at runtime
    from repro.disk.extent import Extent

__all__ = ["IORequest", "AccessPlan", "OPS", "WRITE_OPS"]

#: Operation kinds an :class:`IORequest` can carry.  Each maps onto one
#: buffer-pool primitive (see ``SyncScheduler._issue``).
OPS = (
    "read",
    "fetch",
    "get",
    "load_pages",
    "charge",
    "write",
    "flush_pages",
)

#: The write-kind subset of :data:`OPS` — requests that move pages *to*
#: the store.  They never trigger read-ahead and are excluded from the
#: prefetcher's transfer anchors.
WRITE_OPS = frozenset(("write", "flush_pages"))


class IORequest:
    """One declarative page request inside an :class:`AccessPlan`.

    Attributes
    ----------
    op:
        ``read`` (coalescing vectored read), ``fetch`` (unconditional
        whole-run transfer), ``get`` (single-page read, hits free),
        ``load_pages`` (residency load without hit/miss accounting —
        the prefetcher's transfer) or ``charge`` (analytic cost).
    start, npages:
        The page run (``read``/``fetch``/``get``).
    pages:
        Sorted distinct page numbers (``load_pages``).
    continuation:
        The request's positioning assertion; ignored when ``chain`` is
        set.
    chain:
        Auto-continuation group (see the module docstring).
    admit:
        ``fetch`` only: whether transferred pages become resident.
    seeks, rotations:
        ``charge`` only: analytic cost components (``npages`` carries
        the page count).
    """

    __slots__ = (
        "op",
        "start",
        "npages",
        "pages",
        "continuation",
        "chain",
        "admit",
        "seeks",
        "rotations",
    )

    def __init__(
        self,
        op: str,
        start: int = 0,
        npages: int = 0,
        pages: tuple[int, ...] | None = None,
        continuation: bool = False,
        chain: int | None = None,
        admit: bool = True,
        seeks: int = 0,
        rotations: int = 0,
    ):
        self.op = op
        self.start = start
        self.npages = npages
        self.pages = pages
        self.continuation = continuation
        self.chain = chain
        self.admit = admit
        self.seeks = seeks
        self.rotations = rotations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.op == "load_pages":
            body = f"pages={self.pages}"
        elif self.op == "charge":
            body = f"seeks={self.seeks}, rotations={self.rotations}, pages={self.npages}"
        else:
            body = f"start={self.start}, npages={self.npages}"
        return f"IORequest({self.op}, {body})"


class AccessPlan:
    """An ordered batch of declarative I/O requests.

    Parameters
    ----------
    label:
        Human-readable origin of the plan (shows up in debugging and
        lets prefetch policies specialise per access path).
    extent:
        Optional physical extent the plan reads from (cluster units set
        the unit's extent) — cluster-unit-aware prefetchers read the
        rest of it ahead.
    blocking:
        Whether the issuing client waits for the plan's completion.
        Prefetch plans are non-blocking: under the overlap scheduler
        they occupy device time without advancing the client's clock.
    prefetch:
        Marks a plan issued *by* a prefetcher, so the pool does not
        recursively prefetch after it.

    After execution, :attr:`executed` holds ``(start, npages, cost_ms)``
    for every transferring step — the coalescing scheduler's runs that
    feed the prefetch policies.

    A plan merged from several (a query's node and unit reads) keeps
    in :attr:`cuts` where the separate plans would have ended and what
    they were called.  Pricing ignores them; the overlap scheduler
    closes its per-plan sums there, a trace shows a span per segment.
    """

    __slots__ = ("label", "requests", "cuts", "extent", "blocking", "prefetch",
                 "executed", "_chains")

    def __init__(
        self,
        label: str = "plan",
        extent: "Extent | None" = None,
        blocking: bool = True,
        prefetch: bool = False,
    ):
        self.label = label
        self.requests: list[IORequest] = []
        self.cuts: list[tuple[int, str]] = []
        self.extent = extent
        self.blocking = blocking
        self.prefetch = prefetch
        self.executed: list[tuple[int, int, float]] = []
        self._chains = 0

    # ------------------------------------------------------------------
    # builder surface
    # ------------------------------------------------------------------
    def new_chain(self) -> int:
        """Allocate an auto-continuation chain id (one per cluster-unit
        access: the first request that transfers pays the seek)."""
        self._chains += 1
        return self._chains

    def cut(self, label: str | None = None) -> None:
        """Mark the end of what would be a plan of its own (``label``,
        by default this plan's), unless nothing was added since."""
        if self.requests:
            self.cuts.append((len(self.requests), label or self.label))

    def segments(self) -> Iterator[tuple[str, list[IORequest]]]:
        """The plan as the ``(label, requests)`` of the plans it stands
        for — itself, where nothing was cut."""
        first = 0
        for last, label in (*self.cuts, (len(self.requests), self.label)):
            if last > first or not last:  # (an empty plan is one empty segment)
                yield label, self.requests[first:last]
                first = last

    def read(
        self,
        start: int,
        npages: int = 1,
        continuation: bool = False,
        chain: int | None = None,
    ) -> "AccessPlan":
        """Coalescing vectored read of consecutive pages."""
        self.requests.append(IORequest("read", start, npages, None, continuation, chain))
        return self

    def read_extent(self, extent: "Extent", continuation: bool = False) -> "AccessPlan":
        return self.read(extent.start, extent.npages, continuation)

    def fetch(
        self,
        start: int,
        npages: int = 1,
        continuation: bool = False,
        admit: bool = True,
    ) -> "AccessPlan":
        """Unconditional whole-run transfer (ignores residency)."""
        self.requests.append(
            IORequest("fetch", start, npages, continuation=continuation, admit=admit)
        )
        return self

    def fetch_extent(self, extent: "Extent", continuation: bool = False) -> "AccessPlan":
        return self.fetch(extent.start, extent.npages, continuation)

    def get(self, page: int, continuation: bool = False) -> "AccessPlan":
        """Single-page read; a pool hit is free."""
        self.requests.append(IORequest("get", page, 1, None, continuation))
        return self

    def load_pages(self, pages: Sequence[int]) -> "AccessPlan":
        """Make pages resident without hit/miss accounting (prefetch)."""
        self.requests.append(IORequest("load_pages", pages=tuple(pages)))
        return self

    def charge(self, seeks: int = 0, rotations: int = 0, pages: int = 0) -> "AccessPlan":
        """Analytic cost (no page addresses, no head movement)."""
        self.requests.append(
            IORequest("charge", npages=pages, seeks=seeks, rotations=rotations)
        )
        return self

    def write(
        self,
        start: int,
        npages: int = 1,
        continuation: bool = False,
        chain: int | None = None,
    ) -> "AccessPlan":
        """Buffered write of consecutive pages: dirty frames when the
        pool buffers, a priced device write on a pass-through pool."""
        self.requests.append(
            IORequest("write", start, npages, None, continuation, chain)
        )
        return self

    def write_extent(self, extent: "Extent", continuation: bool = False) -> "AccessPlan":
        return self.write(extent.start, extent.npages, continuation)

    def flush_pages(self, pages: Sequence[int]) -> "AccessPlan":
        """Write a page sequence back to the store, bypassing the
        frames (the write-back of already-buffered dirty pages).  The
        sequence keeps the caller's eviction order; maximal
        ascending-adjacent streaks become single batched runs, each
        priced as a fresh request — exactly the historical per-victim
        ``disk.write(page, 1)`` pricing."""
        self.requests.append(IORequest("flush_pages", pages=tuple(pages)))
        return self

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.requests)

    def __bool__(self) -> bool:
        return bool(self.requests)

    def __iter__(self) -> Iterator[IORequest]:
        return iter(self.requests)

    def last_run(self) -> tuple[int, int] | None:
        """The last executed run that actually transferred (the
        sequential prefetcher's anchor), as ``(start, npages)``."""
        for start, npages, cost in reversed(self.executed):
            if cost > 0:
                return start, npages
        return None

    @property
    def writes(self) -> bool:
        """Whether the plan carries any write-kind request.  Write
        plans never trigger read-ahead."""
        return any(request.op in WRITE_OPS for request in self.requests)

    @property
    def transferred(self) -> bool:
        """Whether any executed step actually moved pages (cost > 0).
        A plan absorbed entirely by resident frames records zero-cost
        spans in :attr:`executed` — it read nothing, so it must not
        trigger read-ahead."""
        return any(cost > 0 for _, _, cost in self.executed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AccessPlan({self.label!r}, {len(self.requests)} requests)"
