"""Background reorganization: incremental re-clustering as a paced load.

Online deletes and relocations degrade the cluster organization: a
removed object leaves dead space in its cluster unit (compaction is
lazy), so over time units carry more tail than live bytes and every
window query drags the dead pages along.  The paper's construction is
offline; this module closes the loop for the online write path by
re-clustering *incrementally*, as an ordinary background workload:

* :class:`Reorganizer` scans the live cluster units, ranks them by dead
  space (``tail_bytes - live_bytes``), and each :meth:`Reorganizer.step`
  relocates the worst offenders into freshly-allocated, right-sized and
  re-placed units — the organization's own unit move
  (``ClusterOrganization._move_unit``: a read and a write
  :class:`~repro.iosched.request.AccessPlan` per unit), so every moved
  page shows up in the disk model, on the scheduler's clock, in the
  metrics registry (``reorg.moved_pages``, ``reorg.runs``) and in any
  active trace.
* Relocation re-runs declustering placement
  (``pool.place_extent(..., center=...)``), so on a sharded store the
  rebalance follows the data's *current* spatial distribution, not the
  one it had at load time.
* :func:`reorg_traffic` wraps a reorganizer into ``ana-reorg-`` traffic
  sessions (one ``("reorg", ...)`` operation per round), so
  :meth:`~repro.workload.engine.WorkloadEngine.run_traffic` paces the
  reorganization through the same admission control as any analytics
  client — a token bucket bounds how hard it may hit the foreground.

The degradation signal and the repair are deliberately the cluster
organization's own machinery (``units()``, ``repack()``, the unit
allocator): the reorganizer adds policy, not a second storage layer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.database import SpatialDatabase
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.organization import ClusterOrganization
    from repro.core.unit import ClusterUnit
    from repro.workload.traffic import TrafficSession

__all__ = ["Reorganizer", "reorg_traffic"]


class Reorganizer:
    """Incremental re-clustering of degraded cluster units.

    ``budget_pages`` bounds the pages a single :meth:`step` may move
    (the pacing knob — small budgets interleave gently with foreground
    traffic, large ones converge faster); ``min_dead_fraction`` is the
    degradation threshold below which a unit is left alone (repacking a
    nearly-clean unit costs more I/O than the dead space it reclaims).
    """

    def __init__(
        self,
        database,
        *,
        budget_pages: int = 64,
        min_dead_fraction: float = 0.25,
    ):
        org = database.storage if isinstance(database, SpatialDatabase) else database
        if not org.reorganizable:
            raise ConfigurationError(
                "reorganization needs a cluster organization, "
                f"not the {org.name} organization"
            )
        if budget_pages < 1:
            raise ConfigurationError(
                f"budget_pages must be >= 1, got {budget_pages}"
            )
        if not (0.0 <= min_dead_fraction <= 1.0):
            raise ConfigurationError(
                "min_dead_fraction must be in [0, 1], "
                f"got {min_dead_fraction}"
            )
        self.org: "ClusterOrganization" = org
        self.budget_pages = budget_pages
        self.min_dead_fraction = min_dead_fraction
        self.moved_pages = 0
        self.runs = 0
        self._moved = org.pool.metrics.counter("reorg.moved_pages")
        self._runs = org.pool.metrics.counter("reorg.runs")

    # ------------------------------------------------------------------
    # degradation signal
    # ------------------------------------------------------------------
    @staticmethod
    def dead_bytes(unit: "ClusterUnit") -> int:
        """Reclaimable bytes: tail space no longer backed by a live
        object (compaction is lazy, so deletes only grow this)."""
        return max(0, unit.tail_bytes - unit.live_bytes)

    def candidates(self) -> list["ClusterUnit"]:
        """Degraded units, worst first (most dead bytes; extent start
        breaks ties so the order is deterministic)."""
        ranked: list[tuple[int, int, "ClusterUnit"]] = []
        for unit in self.org.units():
            if not unit.live:
                continue
            dead = self.dead_bytes(unit)
            if dead <= 0 or dead < self.min_dead_fraction * unit.tail_bytes:
                continue
            ranked.append((dead, unit.extent.start, unit))
        ranked.sort(key=lambda item: (-item[0], item[1]))
        return [unit for _, _, unit in ranked]

    def quality(self) -> float:
        """Clustering quality in [0, 1]: the live fraction of the pages
        a full scan of every unit would pay for (1.0 = no dead space)."""
        units = [u for u in self.org.units() if u.live]
        pages = sum(self.org._priced_pages(u) for u in units)
        if pages == 0:
            return 1.0
        live = sum(u.live_bytes for u in units)
        return live / (pages * self.org.page_size)

    # ------------------------------------------------------------------
    # repair
    # ------------------------------------------------------------------
    def step(self, budget_pages: int | None = None) -> int:
        """One reorganization round: relocate degraded units, worst
        first, until the page budget is spent; returns the pages moved
        (0 when nothing is degraded enough — the idle round is free)."""
        budget = self.budget_pages if budget_pages is None else budget_pages
        moved = 0
        for unit in self.candidates():
            if moved >= budget:
                break
            # A fresh right-sized, re-placed extent: the shape of the
            # buddy grow, targeting dead space instead of capacity.
            moved += self.org._move_unit(unit, "reorg.move", unit.live_bytes)
        self.runs += 1
        self.moved_pages += moved
        self._runs.inc()
        if moved:
            self._moved.inc(moved)
        return moved


def reorg_traffic(
    reorganizer: Reorganizer,
    *,
    rounds: int,
    period_ms: float,
    start_ms: float = 0.0,
    budget_pages: int | None = None,
) -> list["TrafficSession"]:
    """Reorganization rounds as traffic sessions.

    Each round is one single-operation ``ana-reorg-NNNNNN`` session
    arriving every ``period_ms`` of virtual time — the ``ana-`` prefix
    classifies it as analytics under the default admission classifier,
    so a ``PriorityAdmission`` token bucket paces the reorganizer
    exactly like any other bulk client.  Merge the result into a
    foreground session list and hand both to ``run_traffic``.
    """
    from repro.workload.traffic import TrafficSession

    if rounds < 0:
        raise ConfigurationError(f"rounds must be >= 0, got {rounds}")
    if period_ms <= 0.0:
        raise ConfigurationError(f"period_ms must be > 0, got {period_ms}")
    sessions: list[TrafficSession] = []
    for i in range(rounds):
        op = (
            ("reorg", reorganizer)
            if budget_pages is None
            else ("reorg", reorganizer, budget_pages)
        )
        sessions.append(
            TrafficSession(
                name=f"ana-reorg-{i:06d}",
                klass="analytics",
                arrival_ms=start_ms + i * period_ms,
                operations=[op],
            )
        )
    return sessions
