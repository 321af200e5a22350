"""Tests for cluster units, the Smax policy and the read techniques."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.constants import PAGE_CAPACITY, PAGE_SIZE
from repro.core.policy import ClusterPolicy, smax_bytes_for
from repro.core.techniques import (
    geometric_threshold,
    plan_complete,
    plan_optimum,
    plan_per_object,
    plan_slm,
    slm_schedule,
)
from repro.core.unit import ClusterUnit
from repro.disk.extent import Extent
from repro.disk.model import DiskModel
from repro.disk.params import DiskParameters
from repro.errors import ConfigurationError, StorageError
from tests.conftest import run_plan

GAP = DiskParameters().slm_gap_pages


def unit(npages: int = 20) -> ClusterUnit:
    return ClusterUnit(Extent(1000, npages), PAGE_SIZE)


class TestClusterUnit:
    def test_append_places_at_tail(self):
        u = unit()
        u.append(1, 1000)
        u.append(2, 2000)
        assert u.live[1] == (0, 1000)
        assert u.live[2] == (1000, 2000)
        assert u.tail_bytes == 3000
        assert u.live_bytes == 3000

    def test_append_completed_pages(self):
        u = unit()
        start, completed = u.append(1, 3 * PAGE_SIZE)
        assert (start, completed) == (0, 3)
        start, completed = u.append(2, 100)
        assert completed == 0  # still inside the tail page

    def test_duplicate_append_rejected(self):
        u = unit()
        u.append(1, 100)
        with pytest.raises(StorageError):
            u.append(1, 100)

    def test_zero_size_rejected(self):
        with pytest.raises(StorageError):
            unit().append(1, 0)

    def test_fits(self):
        u = unit(2)
        assert u.fits(2 * PAGE_SIZE)
        u.append(1, PAGE_SIZE)
        assert u.fits(PAGE_SIZE)
        assert not u.fits(PAGE_SIZE + 1)

    def test_remove_leaves_dead_space(self):
        u = unit()
        u.append(1, 1000)
        u.append(2, 1000)
        u.remove(1)
        assert u.live_bytes == 1000
        assert u.tail_bytes == 2000  # dead space until repack
        assert u.would_fit_after_repack(u.capacity_bytes - 1000)

    def test_remove_last_resets_tail(self):
        u = unit()
        u.append(1, 1000)
        u.remove(1)
        assert u.tail_bytes == 0
        assert u.used_pages == 0

    def test_remove_unknown_rejected(self):
        with pytest.raises(StorageError):
            unit().remove(42)

    def test_repack_compacts(self):
        u = unit()
        u.append(1, 1000)
        u.append(2, 1000)
        u.append(3, 1000)
        u.remove(2)
        u.repack()
        assert u.tail_bytes == 2000
        assert u.live[3] == (1000, 1000)

    def test_page_span(self):
        u = unit()
        u.append(1, PAGE_SIZE // 2)
        u.append(2, PAGE_SIZE)  # crosses the page boundary
        assert u.page_span(1) == (0, 1)
        assert u.page_span(2) == (0, 2)

    def test_page_span_unknown_rejected(self):
        with pytest.raises(StorageError):
            unit().page_span(9)

    def test_requested_pages_sorted_distinct(self):
        u = unit()
        u.append(1, PAGE_SIZE)
        u.append(2, PAGE_SIZE)
        u.append(3, PAGE_SIZE)
        assert u.requested_pages([3, 1]) == [0, 2]

    def test_used_pages(self):
        u = unit()
        assert u.used_pages == 0
        u.append(1, 1)
        assert u.used_pages == 1
        u.append(2, PAGE_SIZE)
        assert u.used_pages == 2

    @given(st.lists(st.integers(1, 5000), min_size=1, max_size=40))
    def test_offsets_never_overlap(self, sizes):
        u = ClusterUnit(Extent(0, 1 << 16), PAGE_SIZE)
        for i, size in enumerate(sizes):
            u.append(i, size)
        spans = sorted((off, off + size) for off, size in u.live.values())
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 <= b0


class TestPolicy:
    def test_smax_rule_matches_table1(self):
        # 1.5 * 89 * 625 B = 83.4 KB -> rounded down to whole pages = 81920 B (80 KB)
        assert smax_bytes_for(625) == 80 * 1024

    def test_smax_for_series_c(self):
        # 1.5 * 89 * 2490 = 332 KB; Table 1 rounds to 320 KB (within a page rule)
        assert smax_bytes_for(2490) % PAGE_SIZE == 0
        assert abs(smax_bytes_for(2490) - 320 * 1024) / (320 * 1024) < 0.05

    def test_invalid_avg_size(self):
        with pytest.raises(ConfigurationError):
            smax_bytes_for(0)

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            ClusterPolicy(smax_bytes=1000)  # not page aligned
        with pytest.raises(ConfigurationError):
            ClusterPolicy(smax_bytes=8 * PAGE_SIZE, buddy_sizes=0)

    def test_policy_pages(self):
        assert ClusterPolicy(20 * PAGE_SIZE).smax_pages == 20

    def test_for_objects(self):
        policy = ClusterPolicy.for_objects(625, buddy_sizes=3)
        assert policy.smax_bytes == 80 * 1024
        assert policy.buddy_sizes == 3


class TestSLMSchedule:
    def test_contiguous_is_one_run(self):
        assert slm_schedule([0, 1, 2, 3], gap_pages=6) == [(0, 4)]

    def test_small_gap_read_through(self):
        # gap of 2 non-requested pages < 6 -> read through
        assert slm_schedule([0, 3], gap_pages=6) == [(0, 4)]

    def test_large_gap_interrupts(self):
        # gap of 6 pages >= 6 -> two requests
        assert slm_schedule([0, 7], gap_pages=6) == [(0, 1), (7, 1)]

    def test_boundary_gap(self):
        # gap of exactly 5 < 6: read through; of exactly 6: interrupt
        assert slm_schedule([0, 6], gap_pages=6) == [(0, 7)]
        assert slm_schedule([0, 7], gap_pages=6) == [(0, 1), (7, 1)]

    def test_paper_figure9_example(self):
        # Figure 9: pages y n y y n n n y y n y y with l = 3:
        # the 3-page gap interrupts, the shorter gaps are read through.
        requested = [0, 2, 3, 7, 8, 10, 11]
        assert slm_schedule(requested, gap_pages=3) == [(0, 4), (7, 5)]

    def test_empty(self):
        assert slm_schedule([], gap_pages=6) == []

    def test_unsorted_rejected(self):
        with pytest.raises(ConfigurationError):
            slm_schedule([3, 1], gap_pages=6)

    def test_bad_gap_rejected(self):
        with pytest.raises(ConfigurationError):
            slm_schedule([0], gap_pages=0)

    @given(
        st.sets(st.integers(0, 100), min_size=1, max_size=40),
        st.integers(1, 10),
    )
    def test_runs_cover_exactly_and_respect_gaps(self, pages, gap):
        requested = sorted(pages)
        runs = slm_schedule(requested, gap)
        covered = set()
        for start, npages in runs:
            covered.update(range(start, start + npages))
        assert covered >= set(requested)
        # runs never include a gap of `gap` or more non-requested pages
        req = set(requested)
        for start, npages in runs:
            run_pages = range(start, start + npages)
            gap_run = 0
            for p in run_pages:
                gap_run = gap_run + 1 if p not in req else 0
                assert gap_run < gap
        # consecutive runs are separated by at least `gap` missing pages
        for (s1, n1), (s2, _n2) in zip(runs, runs[1:]):
            assert s2 - (s1 + n1) >= gap


class TestThreshold:
    def test_threshold_formula(self):
        params = DiskParameters()
        t = geometric_threshold(
            unit_pages=20, avg_entries_per_page=58, avg_pages_per_object=1.0,
            params=params,
        )
        t_compl = 9 + 6 + 20
        t_page = 9 + 58 * (6 + 1)
        assert t == pytest.approx(t_compl / t_page)

    def test_threshold_grows_with_unit_size(self):
        params = DiskParameters()
        t_small = geometric_threshold(10, 50, 1.0, params)
        t_large = geometric_threshold(80, 50, 1.0, params)
        assert t_large > t_small


class TestReadFunctions:
    def filled_unit(self):
        u = unit(20)
        for i in range(10):
            u.append(i, PAGE_SIZE)  # one page each
        return u

    def test_read_complete_one_request(self):
        disk = DiskModel()
        u = self.filled_unit()
        runs = run_plan(plan_complete, disk, u)
        assert runs == [(0, 10)]
        assert disk.total_ms == 9 + 6 + 10

    def test_read_complete_empty_unit(self):
        disk = DiskModel()
        assert run_plan(plan_complete, disk, unit()) == []
        assert disk.total_ms == 0

    def test_read_per_object_matches_tpage_model(self):
        disk = DiskModel()
        u = self.filled_unit()
        run_plan(plan_per_object, disk, u, [0, 5, 9])
        # ts + tl + tt for the first + (tl + tt) per further object
        assert disk.total_ms == (9 + 6 + 1) + 2 * (6 + 1)

    def test_read_slm_coalesces(self):
        disk = DiskModel()
        u = self.filled_unit()
        runs = run_plan(plan_slm, disk, u, [0, 1, 2], GAP)
        assert runs == [(0, 3)]
        assert disk.total_ms == 9 + 6 + 3

    def test_read_slm_interrupts_on_long_gap(self):
        disk = DiskModel()
        u = self.filled_unit()
        runs = run_plan(plan_slm, disk, u, [0, 9], GAP)  # gap of 8 >= 6
        assert runs == [(0, 1), (9, 1)]
        # second request: rotational delay only (same cluster unit)
        assert disk.total_ms == (9 + 6 + 1) + (6 + 1)

    def test_read_optimum_lower_bound(self):
        disk = DiskModel()
        u = self.filled_unit()
        run_plan(plan_optimum, disk, u, [0, 4, 9])
        assert disk.total_ms == 9 + 6 + 3

    def test_optimum_never_beaten(self):
        u = self.filled_unit()
        oids = [0, 3, 4, 8]
        costs = {}
        for fn, args in (
            (plan_complete, ()),
            (plan_per_object, (oids,)),
            (plan_slm, (oids, GAP)),
            (plan_optimum, (oids,)),
        ):
            disk = DiskModel()
            run_plan(fn, disk, u, *args)
            costs[fn.__name__] = disk.total_ms
        assert costs["plan_optimum"] == min(costs.values())

    def test_read_optimum_empty(self):
        disk = DiskModel()
        assert run_plan(plan_optimum, disk, unit(), []) == []
        assert disk.total_ms == 0
