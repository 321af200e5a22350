"""Multi-step spatial join processing ([BKSS94], Section 6.3).

A complete intersection join runs in three steps:

1. **MBR join** — the R*-tree filter (:class:`~repro.join.mbr_join.MBRJoin`)
   computes all pairs of intersecting MBRs;
2. **object transfer** — the exact geometries of the candidate pairs
   are made memory-resident (:class:`~repro.join.object_access.ObjectTransfer`);
3. **exact geometry test** — each candidate pair is tested with the
   decomposed representation at ~0.75 ms of CPU per test.

The driver interleaves steps 1 and 2 (groups are transferred as the
traversal produces them, so tree and object pages genuinely compete for
the shared buffer) and splits the I/O cost per step, which is exactly
the Figure 17 breakdown.  Step 3 prices no I/O, so it runs once, after
the traversal, over the candidate pairs of the whole join: one batch of
pairs, one vector kernel call.  Nothing is copied per object: a
pair is a row of each side's geometry column, gathered where it lies.
Like the MBR join one level up ([BKS93b]), the call restricts its
search space to the intersection of each pair's boxes: a segment
outside the other polyline's MBR is never tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.buffer.policy import hit_ratio
from repro.buffer.pool import BufferPool
from repro.disk.model import DiskStats
from repro.errors import ConfigurationError
from repro.geometry.decomposed import ExactTestCounter
from repro.geometry.intersect import mbr_intersect_mask, polylines_intersect_rows
from repro.join.mbr_join import MBRJoin
from repro.join.object_access import ObjectTransfer
from repro.storage.base import SpatialOrganization

__all__ = ["JoinResult", "spatial_join"]


def _refine(
    org_r: SpatialOrganization,
    org_s: SpatialOrganization,
    pairs: np.ndarray,
) -> np.ndarray:
    """Exact geometry test of the join's candidate pairs, a ``(k, 2)``
    array of object ids: which of them intersect, one verdict per pair.
    A pair is a row of each side's
    :class:`~repro.geometry.column.GeometryColumn`, found by id in the
    column, so no object is looked up.  Pairs whose *tight* geometry
    MBRs are disjoint drop out first (entry rectangles may be expanded,
    Section 6.1; every exact predicate starts from the bounding boxes):
    one closed mask over the two rows' boxes.  The pairs left, of the
    whole join, take one
    :func:`~repro.geometry.intersect.polylines_intersect_rows` call,
    which tests only segments inside the other polyline's box.
    """
    column_r, column_s = org_r.column, org_s.column
    rows_r, rows_s = column_r.rows_of(pairs[:, 0]), column_s.rows_of(pairs[:, 1])
    tight = mbr_intersect_mask(column_r.boxes[rows_r], column_s.boxes[rows_s])
    verdicts = np.zeros(len(pairs), dtype=bool)
    if tight.any():
        verdicts[tight] = polylines_intersect_rows(
            column_r, rows_r[tight], column_s, rows_s[tight]
        )
    return verdicts


@dataclass(slots=True)
class JoinResult:
    """Outcome and cost breakdown of one spatial join."""

    candidate_pairs: int = 0
    result_pairs: int | None = None  # only when exact evaluation is on
    mbr_io: DiskStats = field(default_factory=DiskStats)
    transfer_io: DiskStats = field(default_factory=DiskStats)
    exact_tests: int = 0
    exact_ms: float = 0.0
    node_accesses: int = 0
    buffer_hit_rate: float = 0.0

    @property
    def io_ms(self) -> float:
        """Total join I/O (MBR join + object transfer)."""
        return self.mbr_io.total_ms + self.transfer_io.total_ms

    @property
    def io_s(self) -> float:
        return self.io_ms / 1000.0

    @property
    def total_ms(self) -> float:
        """Complete join cost: I/O plus the exact-test CPU model."""
        return self.io_ms + self.exact_ms


def spatial_join(
    org_r: SpatialOrganization,
    org_s: SpatialOrganization,
    buffer_pages: int = 1600,
    technique: str = "complete",
    evaluate_exact: bool = False,
    policy: str = "lru",
    pool: BufferPool | None = None,
) -> JoinResult:
    """Run the intersection join between two organizations.

    Both organizations must share one :class:`~repro.disk.DiskModel`
    (they describe two relations of the same database).

    Parameters
    ----------
    buffer_pages:
        Buffer-pool size shared by tree and object pages (the x-axis of
        Figures 14/16: 200 … 6400 pages).
    technique:
        Cluster-unit transfer technique (Figure 16): ``complete``,
        ``read``, ``vector`` or ``optimum``.
    evaluate_exact:
        When true, the exact geometry predicate is actually executed and
        ``result_pairs`` reports the true join cardinality.  The 0.75 ms
        CPU model cost is accounted either way.
    policy:
        Replacement policy of the join's buffer pool (``lru`` — the
        paper's setting — ``fifo``, ``clock`` or ``lru-k``).
    pool:
        An externally owned shared pool (e.g. the workload engine's);
        overrides ``buffer_pages``/``policy``.  The join's own pool is
        a sibling of ``org_r``'s: same store, scheduler, prefetcher and
        allocator (the relations of an attached join share all four).
    """
    if org_r.disk is not org_s.disk:
        raise ConfigurationError(
            "joined organizations must share one disk model"
        )
    disk = org_r.disk
    if pool is None:
        pool = org_r.pool.sibling(buffer_pages, policy)
    join = MBRJoin(org_r.tree, org_s.tree, pool)
    transfer_r = ObjectTransfer(org_r, pool, technique=technique)
    transfer_s = ObjectTransfer(org_s, pool, technique=technique)
    counter = ExactTestCounter()

    result = JoinResult()
    start = disk.stats()
    hits_before, misses_before = pool.hits, pool.misses

    candidates = [np.empty((0, 2), dtype=np.int64)]
    for leaf_r, leaf_s, pairs in join.run():
        before = disk.stats()
        transfer_r.fetch_group(leaf_r, pairs[:, 0].tolist())
        transfer_s.fetch_group(leaf_s, pairs[:, 1].tolist())
        result.transfer_io = result.transfer_io + (disk.stats() - before)
        counter.record(len(pairs))
        candidates.append(pairs)
    if evaluate_exact:
        verdicts = _refine(org_r, org_s, np.concatenate(candidates))
        result.result_pairs = int(np.count_nonzero(verdicts))

    total = disk.stats() - start
    result.candidate_pairs = join.candidate_pairs
    result.mbr_io = total - result.transfer_io
    result.exact_tests = counter.tests
    result.exact_ms = counter.cost_ms
    result.node_accesses = join.node_accesses
    result.buffer_hit_rate = hit_ratio(
        pool.hits - hits_before, pool.misses - misses_before
    )
    return result
