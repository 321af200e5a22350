"""One contract for every page store: the leaf, the three composites,
and a composite of composites.

Whatever sits behind the buffer pool is a tree whose leaves are
``DiskModel``s, so every store answers the same questions the same way
— which disks, what they are called, how much device and response time
an interval cost — and every composite guards its interval markers the
same way (shape-checked, reset-epoch tagged)."""

from __future__ import annotations

import pytest

from repro.disk.extent import Extent
from repro.disk.model import DiskModel, DiskStats
from repro.errors import ConfigurationError
from repro.pagestore import (
    FAST_TIER_PARAMS,
    CompositePageStore,
    FilePageStore,
    PageStore,
    ShardedPageStore,
    TieredPageStore,
)

STORES = {
    "disk": lambda tmp_path: DiskModel(),
    "sharded-1": lambda tmp_path: ShardedPageStore(1),
    "sharded-4-spatial": lambda tmp_path: ShardedPageStore(4, "spatial"),
    "tiered-static": lambda tmp_path: TieredPageStore(8, "static"),
    "tiered-promote-over-sharded": lambda tmp_path: TieredPageStore(
        8,
        "promote-on-hit",
        fast_store=ShardedPageStore(2, params=FAST_TIER_PARAMS),
        capacity_store=ShardedPageStore(2),
    ),
    "file": lambda tmp_path: FilePageStore(str(tmp_path / "pages.db")),
}
COMPOSITES = [name for name in STORES if name != "disk"]


@pytest.fixture
def store(request, tmp_path):
    built = STORES[request.param](tmp_path)
    yield built
    if isinstance(built, FilePageStore):
        built.close()


def children_of(store) -> int:
    return len(store.children) if isinstance(store, CompositePageStore) else 1


def mixed_traffic(store) -> None:
    store.read(0, 8)
    store.read_runs([(100, 2), (300, 4), (40, 1)])
    store.write(16, 4)
    store.write_runs([(500, 2), (502, 1)], continuation=True)
    store.read(0, 8)  # a re-read: the cache tiers start migrating
    store.charge(seeks=1, rotations=1, pages=2)


@pytest.mark.parametrize("store", STORES, indirect=True)
class TestEveryStore:
    def test_is_a_page_store_over_disk_leaves(self, store):
        assert isinstance(store, PageStore)
        assert store.disks and all(isinstance(d, DiskModel) for d in store.disks)
        labels = store.device_labels()
        assert len(labels) == len(store.disks) == len(set(labels))
        assert all(isinstance(label, str) and label for label in labels)

    def test_placement_hints_are_accepted_everywhere(self, store):
        extent = Extent(64, 4)
        assert store.place_extent(extent, center=(10.0, 20.0)) is None
        assert store.place_extent(extent, disk=0) is None
        assert store.forget_extent(extent) is None
        store.read_extent(extent)
        assert store.stats().pages_transferred == 4

    def test_device_time_is_the_sum_and_response_the_max(self, store):
        mark = store.snapshot()
        mixed_traffic(store)
        assert store.total_ms > 0.0
        assert sum(d.total_ms for d in store.disks) == store.total_ms
        assert store.stats().total_ms == store.total_ms
        assert store.stats_since(mark) == store.stats()
        cost = store.cost_since(mark)
        assert len(cost.per_disk_ms) == children_of(store)
        assert cost.total_ms == sum(cost.per_disk_ms) == store.total_ms
        assert cost.response_ms == max(cost.per_disk_ms)
        with store.measure() as measured:
            store.read(700, 3)
        assert measured.total_ms == store.cost_since(mark).total_ms - cost.total_ms


@pytest.mark.parametrize("store", COMPOSITES, indirect=True)
class TestEveryComposite:
    @pytest.mark.parametrize("how", ["reset", "reset_stats"])
    def test_a_mark_from_before_a_reset_measures_from_zero(self, store, how):
        store.read(0, 8)
        store.read(100, 8)
        heads = [disk.head for disk in store.disks]
        stale = store.snapshot()
        getattr(store, how)()
        assert store.total_ms == store.response_ms == 0.0
        assert all(disk.stats() == DiskStats() for disk in store.disks)
        assert [disk.head for disk in store.disks] == (
            [None] * len(heads) if how == "reset" else heads
        )
        assert store.stats_since(stale) == DiskStats()
        cost = store.cost_since(stale)
        assert cost.total_ms == cost.response_ms == 0.0
        store.read(200, 4)
        assert store.stats_since(stale).pages_transferred == 4
        cost = store.cost_since(stale)
        assert cost.total_ms > 0.0
        assert all(ms >= 0.0 for ms in cost.per_disk_ms)
        # A marker taken after the reset measures normally again.
        fresh = store.snapshot()
        store.read(300, 2)
        assert store.stats_since(fresh).pages_transferred == 2

    def test_a_mark_of_the_wrong_shape_is_rejected(self, store):
        n = children_of(store)
        for foreign in (
            None,
            DiskStats(),
            DiskModel().snapshot(),
            ShardedPageStore(n + 1).snapshot(),
            [DiskStats()] * (n - 1) + ["not stats"],
        ):
            with pytest.raises(ConfigurationError):
                store.stats_since(foreign)
            with pytest.raises(ConfigurationError):
                store.cost_since(foreign)
        # A bare list[DiskStats] of the right shape (what snapshot()
        # returned before the epoch marker) still measures.
        store.read(0, 1)
        assert store.stats_since([DiskStats() for _ in range(n)]).requests == 1
