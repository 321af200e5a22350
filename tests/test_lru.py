"""Tests for the LRU buffer manager."""

from __future__ import annotations

from collections import OrderedDict

import pytest
from hypothesis import given, strategies as st

from repro.buffer import LRUBuffer
from repro.errors import ConfigurationError


class TestBasics:
    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            LRUBuffer(0)

    def test_miss_does_not_admit(self):
        buf = LRUBuffer(2)
        assert not buf.access("a")
        assert "a" not in buf
        assert buf.misses == 1

    def test_admit_then_hit(self):
        buf = LRUBuffer(2)
        buf.admit("a")
        assert buf.access("a")
        assert buf.hits == 1

    def test_eviction_order(self):
        evicted = []
        buf = LRUBuffer(2, on_evict=lambda k, d: evicted.append(k))
        buf.admit("a")
        buf.admit("b")
        buf.admit("c")
        assert evicted == ["a"]
        assert "b" in buf and "c" in buf

    def test_access_refreshes_recency(self):
        buf = LRUBuffer(2)
        buf.admit("a")
        buf.admit("b")
        buf.access("a")
        buf.admit("c")  # evicts b, not a
        assert "a" in buf and "b" not in buf

    def test_admit_refreshes_recency(self):
        buf = LRUBuffer(2)
        buf.admit("a")
        buf.admit("b")
        buf.admit("a")
        buf.admit("c")
        assert "a" in buf and "b" not in buf


class TestDirty:
    def test_dirty_flag_reported_on_evict(self):
        out = []
        buf = LRUBuffer(1, on_evict=lambda k, d: out.append((k, d)))
        buf.admit("a", dirty=True)
        buf.admit("b")
        assert out == [("a", True)]

    def test_dirty_sticky_across_admits(self):
        out = []
        buf = LRUBuffer(1, on_evict=lambda k, d: out.append((k, d)))
        buf.admit("a", dirty=True)
        buf.admit("a", dirty=False)  # must not lose the dirty bit
        buf.admit("b")
        assert out == [("a", True)]

    def test_mark_dirty(self):
        buf = LRUBuffer(2)
        buf.admit("a")
        buf.mark_dirty("a")
        assert buf.flush() == ["a"]

    def test_mark_dirty_absent_noop(self):
        buf = LRUBuffer(2)
        buf.mark_dirty("nope")
        assert len(buf) == 0

    def test_flush_calls_callback_and_clears(self):
        out = []
        buf = LRUBuffer(4, on_evict=lambda k, d: out.append((k, d)))
        buf.admit("a", dirty=True)
        buf.admit("b")
        buf.flush()
        assert ("a", True) in out and ("b", False) in out
        assert len(buf) == 0

    def test_discard_skips_callback(self):
        out = []
        buf = LRUBuffer(2, on_evict=lambda k, d: out.append(k))
        buf.admit("a", dirty=True)
        buf.discard("a")
        assert out == []
        assert "a" not in buf


class TestStats:
    def test_hit_rate(self):
        buf = LRUBuffer(2)
        buf.admit("a")
        buf.access("a")
        buf.access("b")
        assert buf.hit_rate == pytest.approx(0.5)

    def test_hit_rate_empty(self):
        assert LRUBuffer(2).hit_rate == 0.0

    def test_reset_stats(self):
        buf = LRUBuffer(2)
        buf.access("a")
        buf.reset_stats()
        assert buf.misses == 0

    def test_admit_all(self):
        buf = LRUBuffer(10)
        buf.admit_all(range(5))
        assert len(buf) == 5


class TestAgainstReferenceModel:
    @given(
        st.lists(
            st.tuples(st.sampled_from(["access", "admit"]), st.integers(0, 8)),
            max_size=200,
        ),
        st.integers(1, 5),
    )
    def test_matches_ordered_dict_model(self, ops, capacity):
        """The buffer behaves exactly like a textbook OrderedDict LRU."""
        buf = LRUBuffer(capacity)
        model: OrderedDict[int, None] = OrderedDict()
        for op, key in ops:
            if op == "access":
                hit = buf.access(key)
                assert hit == (key in model)
                if key in model:
                    model.move_to_end(key)
            else:
                buf.admit(key)
                model[key] = None
                model.move_to_end(key)
                while len(model) > capacity:
                    model.popitem(last=False)
            assert len(buf) == len(model)
            for k in model:
                assert k in buf
