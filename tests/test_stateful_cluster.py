"""Stateful property-based test: the cluster organization against a
plain in-memory reference model under random insert/delete/query
interleavings, with physical invariants checked along the way."""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.core.organization import ClusterOrganization
from repro.core.policy import ClusterPolicy
from repro.geometry.feature import SpatialObject
from repro.geometry.polyline import Polyline
from repro.geometry.rect import Rect

SPACE = 1000.0


class ClusterMachine(RuleBasedStateMachine):
    """Random operations against a small cluster organization."""

    @initialize()
    def setup(self) -> None:
        self.org = ClusterOrganization(
            policy=ClusterPolicy(8 * 4096),
            construction_buffer_pages=16,
        )
        self.reference: dict[int, SpatialObject] = {}
        self.next_oid = 0

    # ------------------------------------------------------------------
    @rule(
        x=st.floats(0, SPACE - 20, allow_nan=False),
        y=st.floats(0, SPACE - 20, allow_nan=False),
        size=st.integers(100, 6000),
    )
    def insert(self, x: float, y: float, size: int) -> None:
        obj = SpatialObject(
            self.next_oid,
            Polyline([(x, y), (x + 10, y + 5), (x + 20, y)]),
            size_bytes=max(size, 80),
        )
        self.next_oid += 1
        self.org.insert(obj)
        self.reference[obj.oid] = obj

    @rule(pick=st.randoms(use_true_random=False))
    def delete_one(self, pick) -> None:
        if not self.reference:
            return
        oid = pick.choice(sorted(self.reference))
        self.org.delete(oid)
        del self.reference[oid]

    @rule(
        x=st.floats(0, SPACE - 100, allow_nan=False),
        y=st.floats(0, SPACE - 100, allow_nan=False),
        side=st.floats(10, 400, allow_nan=False),
    )
    def window_query(self, x: float, y: float, side: float) -> None:
        window = Rect(x, y, x + side, y + side)
        got = {o.oid for o in self.org.window_query(window).objects}
        want = {
            o.oid
            for o in self.reference.values()
            if o.mbr.intersects(window) and o.intersects_rect(window)
        }
        assert got == want

    # ------------------------------------------------------------------
    @invariant()
    def physical_bookkeeping_consistent(self) -> None:
        org = getattr(self, "org", None)
        if org is None:
            return
        seen: set[int] = set()
        for leaf in org.tree.leaves():
            unit = leaf.tag
            entry_oids = {
                e.oid for e in leaf.entries
                if e.oid is not None and org.extent_of(e.oid) is None
            }
            if unit is None:
                assert not entry_oids
                continue
            assert set(unit.live) == entry_oids
            assert unit.live_bytes <= unit.capacity_bytes
            assert seen.isdisjoint(unit.live)
            seen.update(unit.live)
            for oid in unit.live:
                assert org._unit_of.get(oid) is unit

    @invariant()
    def counts_match(self) -> None:
        org = getattr(self, "org", None)
        if org is None:
            return
        assert len(org) == len(self.reference)
        assert org.tree.size == len(self.reference)


TestClusterStateful = ClusterMachine.TestCase
TestClusterStateful.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
