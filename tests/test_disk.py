"""Tests for the disk substrate: parameters, cost model, extents."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.disk.extent import Extent
from repro.disk.model import DiskModel, DiskStats
from repro.disk.params import DiskParameters
from repro.errors import ConfigurationError, DiskError


class TestDiskParameters:
    def test_paper_defaults(self):
        p = DiskParameters()
        assert (p.seek_ms, p.latency_ms, p.transfer_ms) == (9.0, 6.0, 1.0)
        assert p.page_size == 4096

    def test_cost_formulas(self):
        p = DiskParameters()
        assert p.random_access_ms(4) == 9 + 6 + 4
        assert p.continuation_ms(4) == 6 + 4
        assert p.sequential_ms(4) == 4

    def test_ordering_enforced(self):
        # The paper assumes ts >= tl >= tt.
        with pytest.raises(ConfigurationError):
            DiskParameters(seek_ms=1.0, latency_ms=6.0, transfer_ms=1.0)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            DiskParameters(seek_ms=-1.0, latency_ms=-2.0, transfer_ms=-3.0)

    def test_slm_gap_paper_value(self):
        # l = tl/tt - 1/2 = 5.5 -> interrupt at gaps of 6+ pages.
        assert DiskParameters().slm_gap_pages == 6

    def test_slm_gap_other_disk(self):
        p = DiskParameters(seek_ms=10, latency_ms=4, transfer_ms=2)
        # l = 4/2 - 0.5 = 1.5 -> 2 pages
        assert p.slm_gap_pages == 2


class TestExtent:
    def test_basic(self):
        e = Extent(10, 4)
        assert e.end == 14
        assert list(e.pages()) == [10, 11, 12, 13]

    def test_invalid(self):
        with pytest.raises(DiskError):
            Extent(-1, 2)
        with pytest.raises(DiskError):
            Extent(0, 0)


class TestDiskModel:
    def test_fresh_read_cost(self):
        disk = DiskModel()
        cost = disk.read(100, 4)
        assert cost == 9 + 6 + 4
        stats = disk.stats()
        assert stats.seeks == 1 and stats.rotations == 1
        assert stats.pages_transferred == 4

    def test_sequential_detection(self):
        disk = DiskModel()
        disk.read(100, 4)
        cost = disk.read(104, 2)  # continues where head sits
        assert cost == 2.0  # transfer only

    def test_continuation_cost(self):
        disk = DiskModel()
        disk.read(100, 1)
        cost = disk.read(200, 3, continuation=True)
        assert cost == 6 + 3

    def test_head_moves(self):
        disk = DiskModel()
        disk.read(100, 4)
        assert disk._head == 104
        disk.write(50, 1)
        assert disk._head == 51

    def test_invalidate_head(self):
        disk = DiskModel()
        disk.read(100, 4)
        disk.invalidate_head()
        assert disk.read(104, 1) == 16.0  # fresh again

    def test_write_same_pricing(self):
        disk = DiskModel()
        assert disk.write(0, 1) == 16.0

    def test_zero_pages_rejected(self):
        with pytest.raises(DiskError):
            DiskModel().read(0, 0)

    def test_negative_page_rejected(self):
        with pytest.raises(DiskError):
            DiskModel().read(-5, 1)

    def test_trace_records_requests(self):
        from repro.obs.trace import tracing

        disk = DiskModel()
        with tracing() as tracer:
            disk.read(0, 2)
            disk.write(10, 1)
        records = [(s.name, s.args, s.end_ms - s.start_ms) for s in tracer.spans if s.cat == "device"]
        assert records == [
            ("read", {"start": 0, "npages": 2}, 17.0),
            ("write", {"start": 10, "npages": 1}, 16.0),
        ]

    def test_extent_helpers(self):
        disk = DiskModel()
        disk.read_extent(Extent(5, 3))
        disk.write_extent(Extent(8, 2))
        assert disk.stats().pages_transferred == 5

    def test_component_sum(self):
        disk = DiskModel()
        disk.read(0, 3)
        disk.read(100, 2, continuation=True)
        s = disk.stats()
        assert s.total_ms == pytest.approx(s.seek_ms + s.latency_ms + s.transfer_ms)
        assert s.seek_ms == 9.0
        assert s.latency_ms == 12.0
        assert s.transfer_ms == 5.0


class TestHeadPositionEdgeCases:
    def test_sequential_detection_after_invalidate(self):
        """invalidate_head() must break sequential detection exactly
        once: the next request is fresh, the one after it is sequential
        again."""
        disk = DiskModel()
        disk.read(100, 4)
        disk.invalidate_head()
        assert disk._head is None
        assert disk.read(104, 1) == 9 + 6 + 1  # fresh despite adjacency
        assert disk._head == 105
        assert disk.read(105, 1) == 1.0  # sequential resumes

    def test_continuation_after_invalidate_still_pays_latency(self):
        disk = DiskModel()
        disk.read(100, 1)
        disk.invalidate_head()
        assert disk.read(101, 2, continuation=True) == 6 + 2

    def test_charge_all_zero_components(self):
        """charge() with nothing to charge is free and records no
        request (the Figure 16 driver calls it unconditionally)."""
        disk = DiskModel()
        disk.read(0, 1)
        before = disk.stats()
        assert disk.charge(seeks=0, rotations=0, pages=0) == 0.0
        delta = disk.stats() - before
        assert delta.requests == 0
        assert delta.total_ms == 0.0
        assert disk._head == 1  # head untouched

    def test_charge_single_component_counts_one_request(self):
        disk = DiskModel()
        assert disk.charge(pages=3) == 3.0
        assert disk.stats().requests == 1

    def test_extent_read_crossing_prior_head_position(self):
        """An extent overlapping the head position but not *starting*
        on it is a fresh request — adjacency is detected only at the
        request's first page."""
        disk = DiskModel()
        disk.read(100, 4)  # head now at 104
        cost = disk.read_extent(Extent(102, 4))  # crosses 104
        assert cost == 9 + 6 + 4
        assert disk._head == 106

    def test_extent_read_starting_on_head_is_sequential(self):
        disk = DiskModel()
        disk.read_extent(Extent(100, 4))
        assert disk.read_extent(Extent(104, 3)) == 3.0

    def test_backward_extent_read_is_fresh(self):
        disk = DiskModel()
        disk.read(100, 4)
        assert disk.read_extent(Extent(96, 4)) == 9 + 6 + 4

    def test_write_continues_read_head(self):
        """Reads and writes share the simulated head (the write-back of
        a just-read page starts a fresh request only if non-adjacent)."""
        disk = DiskModel()
        disk.read(50, 2)
        assert disk.write(52, 1) == 1.0  # sequential after the read


class TestDiskStats:
    def test_subtraction(self):
        disk = DiskModel()
        disk.read(0, 1)
        before = disk.stats()
        disk.read(100, 2)
        delta = disk.stats() - before
        assert delta.requests == 1
        assert delta.pages_transferred == 2

    def test_addition(self):
        a = DiskStats(requests=1, seek_ms=9.0)
        b = DiskStats(requests=2, seek_ms=18.0)
        c = a + b
        assert c.requests == 3 and c.seek_ms == 27.0

    def test_total_seconds(self):
        s = DiskStats(seek_ms=500.0, latency_ms=300.0, transfer_ms=200.0)
        assert s.total_s == pytest.approx(1.0)

    def test_copy_is_independent(self):
        s = DiskStats(requests=1)
        c = s.copy()
        c.requests = 5
        assert s.requests == 1

    @given(st.lists(st.tuples(st.integers(0, 1000), st.integers(1, 16)), max_size=30))
    def test_stats_monotone(self, requests):
        disk = DiskModel()
        last = 0.0
        for start, npages in requests:
            disk.read(start, npages)
            assert disk.total_ms >= last
            last = disk.total_ms
