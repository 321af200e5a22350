"""Node page I/O accounting.

Every R*-tree node corresponds to one disk page (Section 4.1).  The
:class:`NodePager` assigns page numbers from a dedicated region and
routes node reads/writes through a :class:`~repro.buffer.pool.BufferPool`,
which prices the traffic against the :class:`~repro.disk.DiskModel`.

Two modes matter for the experiments:

* **construction** — a pager over a caching pool (the authors' systems
  cache the upper tree levels; dirty pages are written back on eviction
  and at the final flush);
* **query measurement** — a pager over a pass-through pool with
  ``directory_resident=True``: the small directory is assumed to be
  memory-resident and only data-page (and object) accesses are priced,
  matching the paper's I/O-cost reporting.

The pool may be shared with other consumers (the organizations hand
their own pool to the query pager), so tree pages and object pages can
genuinely compete for the same frames.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.buffer.pool import BufferPool
from repro.disk.allocator import Region
from repro.disk.extent import Extent
from repro.disk.model import DiskModel
from repro.iosched.request import AccessPlan
from repro.rtree.node import Node

if TYPE_CHECKING:  # pragma: no cover - import would be circular at runtime
    from repro.pagestore.store import PageStore

__all__ = ["NodePager"]


class NodePager:
    """Prices R*-tree node I/O through a buffer pool.

    Parameters
    ----------
    disk:
        The shared backing store (a single
        :class:`~repro.disk.model.DiskModel` or any
        :class:`~repro.pagestore.store.PageStore`).
    region:
        The address-space region that owns the tree's pages.
    buffer_capacity:
        Size of the pager's own write-back buffer in pages; ``None``
        disables buffering (every access is priced).  Ignored when a
        shared ``pool`` is given.
    directory_resident:
        When true, accesses to nodes of level >= 1 are free — the
        query-measurement assumption described above.
    pool:
        An externally owned :class:`~repro.buffer.pool.BufferPool` to
        route through instead of building a private one.  The attribute
        may be swapped at runtime (the workload engine does) to point
        the pager at a different shared pool.
    """

    __slots__ = ("disk", "region", "pool", "directory_resident")

    def __init__(
        self,
        disk: "DiskModel | PageStore",
        region: Region,
        buffer_capacity: int | None = None,
        directory_resident: bool = False,
        pool: BufferPool | None = None,
    ):
        self.disk = disk
        self.region = region
        self.directory_resident = directory_resident
        if pool is not None:
            self.pool = pool
        else:
            self.pool = BufferPool(disk, capacity=buffer_capacity or 0)

    # ------------------------------------------------------------------
    def register(self, node: Node) -> None:
        """Assign a fresh page to a new node."""
        node.page = self.region.allocate(1).start

    def retire(self, node: Node) -> None:
        """Release the page of a deleted node."""
        if node.page is None:
            return
        self.pool.discard(node.page)
        self.region.free(Extent(node.page, 1))
        node.page = None

    # ------------------------------------------------------------------
    def _priced(self, node: Node) -> bool:
        """Not without a page, nor in the memory-resident directory."""
        return node.page is not None and not (
            self.directory_resident and node.level >= 1
        )

    def read(self, node: Node) -> None:
        """Price reading the node's page (pool hits are free).  The
        access is declared as a single-request plan and submitted to
        the pool's scheduler, so node I/O shares the virtual clock's
        service queues with object and unit transfers."""
        if self._priced(node):
            self.pool.submit(AccessPlan("node.read").get(node.page))

    def plan_reads(self, nodes: list[Node], plan: AccessPlan) -> None:
        """Append the priced ``get`` requests :meth:`read` would issue
        for ``nodes`` (in order) onto one shared ``plan`` — the query
        path merges a query's node reads and object retrieval wherever
        plan boundaries do not affect pricing
        (``SpatialOrganization._batchable``).  Skips what :meth:`read`
        skips and cuts the plan where each read's own would have ended."""
        for node in nodes:
            if self._priced(node):
                plan.get(node.page)
                plan.cut("node.read")

    def write(self, node: Node) -> None:
        """Price writing the node's page (caching pools defer to
        eviction / flush).  Like :meth:`read`, the access is declared
        as a single-request write plan, so node writes share the
        scheduler's service queues and admission pacing."""
        if self._priced(node):
            self.pool.submit(AccessPlan("node.write").write(node.page))

    def flush(self) -> None:
        """Write back every dirty buffered page."""
        self.pool.flush()

    def reset_buffer(self) -> None:
        """Drop all buffered pages *without* write-back (start a cold
        measurement phase)."""
        self.pool.invalidate()
