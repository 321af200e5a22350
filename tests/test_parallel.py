"""Tests for the multi-disk declustering extension (Section 7 outlook)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.geometry.rect import Rect
from repro.parallel.decluster import (
    DECLUSTERING_POLICIES,
    ParallelClusterReader,
)

from tests.conftest import build_org, make_objects


@pytest.fixture(scope="module")
def org():
    return build_org("cluster", make_objects(400, seed=71))


class TestAssignment:
    def test_validation(self, org):
        with pytest.raises(ConfigurationError):
            ParallelClusterReader(org, 0)
        with pytest.raises(ConfigurationError):
            ParallelClusterReader(org, 2, policy="random-walk")

    def test_policies_known(self):
        assert set(DECLUSTERING_POLICIES) == {"round_robin", "spatial"}

    def test_every_unit_assigned(self, org):
        reader = ParallelClusterReader(org, 4)
        units = org.units()
        assert len(reader.assignment) == len(units)
        for unit in units:
            assert 0 <= reader.disk_of(unit) < 4

    def test_balanced_assignment(self, org):
        reader = ParallelClusterReader(org, 4)
        counts = [0, 0, 0, 0]
        for disk in reader.assignment.values():
            counts[disk] += 1
        assert max(counts) - min(counts) <= 1

    def test_spatial_policy_separates_neighbours(self, org):
        reader = ParallelClusterReader(org, 4, policy="spatial")
        pairs = []
        for leaf in org.tree.leaves():
            if leaf.tag is not None and leaf.entries:
                pairs.append((leaf.mbr().center()[0], reader.disk_of(leaf.tag)))
        pairs.sort()
        # Consecutive units in x-order land on different disks.
        for (_, d1), (_, d2) in zip(pairs, pairs[1:]):
            assert d1 != d2


class TestQueryCost:
    def test_single_disk_equals_serial(self, org):
        reader = ParallelClusterReader(org, 1)
        cost = reader.window_query_cost(Rect(0, 0, 10_000, 10_000))
        assert cost.response_ms == pytest.approx(cost.total_ms)
        assert cost.parallelism == pytest.approx(1.0)
        assert cost.units_read == len(org.units())

    def test_parallelism_bounded_by_disks(self, org):
        reader = ParallelClusterReader(org, 4)
        cost = reader.window_query_cost(Rect(0, 0, 10_000, 10_000))
        assert 1.0 <= cost.parallelism <= 4.0

    def test_more_disks_never_slower(self, org):
        window = Rect(1000, 1000, 6000, 6000)
        r1 = ParallelClusterReader(org, 1, policy="spatial")
        r4 = ParallelClusterReader(org, 4, policy="spatial")
        assert (
            r4.window_query_cost(window).response_ms
            <= r1.window_query_cost(window).response_ms
        )

    def test_spatial_beats_round_robin_on_large_windows(self, org):
        from repro.data.workload import window_workload

        windows = [Rect(i * 500.0, 0, i * 500.0 + 4000, 10_000) for i in range(10)]
        spatial = ParallelClusterReader(org, 4, policy="spatial")
        rr = ParallelClusterReader(org, 4, policy="round_robin")
        assert spatial.workload_response_ms(windows) <= (
            rr.workload_response_ms(windows) * 1.05
        )

    def test_total_work_independent_of_disks(self, org):
        window = Rect(0, 0, 10_000, 10_000)
        totals = {
            n: ParallelClusterReader(org, n).window_query_cost(window).total_ms
            for n in (1, 2, 8)
        }
        # Same units read completely; per-unit pricing identical (fresh
        # seeks on each disk).
        assert totals[1] == pytest.approx(totals[2])
        assert totals[1] == pytest.approx(totals[8])

    def test_empty_window(self, org):
        reader = ParallelClusterReader(org, 4)
        cost = reader.window_query_cost(Rect(-50, -50, -40, -40))
        assert cost.units_read == 0
        assert cost.response_ms == 0.0

    @pytest.mark.parametrize("scalar", [False, True])
    def test_organization_left_untouched(self, org, scalar):
        """The reader prices on its private store only: the
        organization's own disk sees no request and its head stays put
        (the filter must not run through the organization's pager)."""
        from repro.core import kernels

        windows = [Rect(i * 500.0, 0, i * 500.0 + 4000, 10_000) for i in range(10)]
        reader = ParallelClusterReader(org, 4)
        before, head = org.disk.stats(), org.disk.head
        with kernels.scalar_kernels(scalar):
            assert reader.workload_response_ms(windows) > 0
        assert org.disk.stats() == before
        assert org.disk.head == head
