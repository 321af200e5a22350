"""Tests for the LRU buffer manager, and the contract every replacement
policy keeps."""

from __future__ import annotations

from collections import OrderedDict

import pytest
from hypothesis import given, strategies as st

from repro.buffer import LRUBuffer
from repro.buffer.policy import POLICIES, ReplacementPolicy, hit_ratio, make_buffer
from repro.errors import ConfigurationError


class TestBasics:
    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            LRUBuffer(0)

    def test_miss_does_not_admit(self):
        buf = LRUBuffer(2)
        assert buf.access_all(["a"])
        assert "a" not in buf
        assert buf.misses == 1

    def test_admit_then_hit(self):
        buf = LRUBuffer(2)
        buf.admit_all(["a"])
        assert not buf.access_all(["a"])
        assert buf.hits == 1

    def test_eviction_order(self):
        evicted = []
        buf = LRUBuffer(2, on_evict=lambda k, d: evicted.append(k))
        buf.watched.update("abc")
        buf.admit_all(["a", "b", "c"])
        assert evicted == ["a"]
        assert "b" in buf and "c" in buf

    def test_a_clean_victim_not_watched_leaves_silently(self):
        evicted = []
        buf = LRUBuffer(2, on_evict=lambda k, d: evicted.append(k))
        buf.watched.add("b")
        buf.admit_all(["a", "b", "c", "d"])
        assert evicted == ["b"]
        assert buf.evictions == 2
        assert "a" not in buf and "b" not in buf

    def test_access_refreshes_recency(self):
        buf = LRUBuffer(2)
        buf.admit_all(["a", "b"])
        buf.access_all(["a"])
        buf.admit_all(["c"])  # evicts b, not a
        assert "a" in buf and "b" not in buf

    def test_admit_refreshes_recency(self):
        buf = LRUBuffer(2)
        buf.admit_all(["a", "b", "a", "c"])
        assert "a" in buf and "b" not in buf


class TestDirty:
    def test_dirty_flag_reported_on_evict(self):
        out = []
        buf = LRUBuffer(1, on_evict=lambda k, d: out.append((k, d)))
        buf.admit_all(["a"], dirty=True)
        buf.admit_all(["b"])
        assert out == [("a", True)]

    def test_dirty_sticky_across_admits(self):
        out = []
        buf = LRUBuffer(1, on_evict=lambda k, d: out.append((k, d)))
        buf.admit_all(["a"], dirty=True)
        buf.admit_all(["a"], dirty=False)  # must not lose the dirty bit
        buf.admit_all(["b"])
        assert out == [("a", True)]

    def test_flush_calls_callback_and_clears(self):
        out = []
        buf = LRUBuffer(4, on_evict=lambda k, d: out.append((k, d)))
        buf.watched.add("b")
        buf.admit_all(["a"], dirty=True)
        buf.admit_all(["b", "c"])
        buf.flush()
        assert sorted(out) == [("a", True), ("b", False)]
        assert buf.evictions == 3
        assert len(buf) == 0

    def test_discard_skips_callback(self):
        out = []
        buf = LRUBuffer(2, on_evict=lambda k, d: out.append(k))
        buf.admit_all(["a"], dirty=True)
        buf.discard("a")
        assert out == []
        assert "a" not in buf


class TestStats:
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
                hit = not buf.access_all([key])
                assert hit == (key in model)
                if key in model:
                    model.move_to_end(key)
            else:
                buf.admit_all([key])
                model[key] = None
                model.move_to_end(key)
                while len(model) > capacity:
                    model.popitem(last=False)
            assert len(buf) == len(model)
            for k in model:
                assert k in buf


class TestHitRatio:
    def test_hits_over_accesses(self):
        assert hit_ratio(3, 1) == pytest.approx(0.75)

    def test_nothing_accessed_is_zero(self):
        assert hit_ratio(0, 0) == 0.0


@pytest.mark.parametrize("name", sorted(POLICIES))
class TestEveryPolicy:
    def test_is_the_named_policy(self, name):
        buf = make_buffer(name, 3)
        assert isinstance(buf, ReplacementPolicy)
        assert buf.policy == name
        assert buf.capacity == 3 and len(buf) == 0

    def test_hits_and_misses_count_every_access(self, name):
        buf = make_buffer(name, 4)
        buf.admit_all(["a", "b"])
        assert buf.access_all(["a", "b", "c", "a"]) == ["c"]
        assert (buf.hits, buf.misses) == (3, 1)
        assert hit_ratio(buf.hits, buf.misses) == pytest.approx(0.75)
        assert "c" not in buf

    def test_mark_clean_keeps_the_page_but_not_its_dirty_bit(self, name):
        out = []
        buf = make_buffer(name, 4, on_evict=lambda k, d: out.append((k, d)))
        buf.watched.update("ab")
        buf.admit_all(["a", "b"], dirty=True)
        buf.mark_clean("a")
        buf.mark_clean("absent")
        assert "a" in buf and "absent" not in buf
        assert buf.dirty_keys() == ["b"]
        assert buf.flush() == ["b"]
        assert sorted(out) == [("a", False), ("b", True)]

    def test_flush_evicts_everything_and_empties(self, name):
        out = []
        buf = make_buffer(name, 4, on_evict=lambda k, d: out.append(k))
        buf.watched.update("abc")
        buf.admit_all(["a", "b", "c"])
        buf.flush()
        assert sorted(out) == ["a", "b", "c"]
        assert len(buf) == 0 and buf.evictions == 3
        assert buf.access_all(["a"]) == ["a"]

    def test_discard_and_clear_skip_the_callback(self, name):
        out = []
        buf = make_buffer(name, 4, on_evict=lambda k, d: out.append(k))
        buf.admit_all(["a", "b", "c"], dirty=True)
        buf.discard("a")
        buf.discard("absent")
        assert "a" not in buf and len(buf) == 2
        buf.clear()
        assert len(buf) == 0 and out == [] and buf.evictions == 0
        buf.admit_all(["d"])  # bookkeeping survives the drops
        assert "d" in buf

    @given(
        st.lists(
            st.tuples(st.sampled_from(["access", "admit"]), st.integers(0, 8)),
            max_size=120,
        ),
        st.integers(1, 5),
    )
    def test_capacity_holds_and_every_eviction_is_reported(self, name, ops, capacity):
        out = []
        buf = make_buffer(name, capacity, on_evict=lambda k, d: out.append(k))
        buf.watched.update(range(9))
        admitted = set()
        for op, key in ops:
            if op == "access":
                buf.access_all([key])
            else:
                buf.admit_all([key])
                admitted.add(key)
            assert len(buf) <= capacity
        assert buf.evictions == len(out)
        assert buf.hits + buf.misses == sum(op == "access" for op, _ in ops)
        resident = {key for key in admitted if key in buf}
        assert admitted == resident | set(out)
