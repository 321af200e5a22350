"""One contract for every page store: the leaf, the three composites,
and a composite of composites.

Whatever sits behind the buffer pool is a tree whose leaves are
``DiskModel``s, so every store answers the same questions the same way
— which disks, what they are called, how much device and response time
an interval cost — and every composite guards its interval markers the
same way (shape-checked)."""

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


@pytest.fixture
def twins(request, tmp_path):
    """Two fresh stores of one kind, each over its own backing file."""
    built = []
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        built.append(STORES[request.param](tmp_path / side))
    yield built
    for twin in built:
        if isinstance(twin, FilePageStore):
            twin.close()


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

    def test_a_fresh_mark_measures_nothing(self, store):
        mixed_traffic(store)
        mark = store.snapshot()
        assert store.stats_since(mark) == DiskStats()
        cost = store.cost_since(mark)
        assert cost.total_ms == cost.response_ms == 0.0
        assert cost.per_disk_ms == [0.0] * children_of(store)

    def test_two_marks_split_an_interval(self, store):
        first = store.snapshot()
        mixed_traffic(store)
        head = store.stats_since(first)
        second = store.snapshot()
        store.read(700, 3)
        store.write(900, 2)
        whole, tail = store.stats_since(first), store.stats_since(second)
        assert tail.requests >= 2 and tail.pages_transferred >= 5
        assert whole.requests == head.requests + tail.requests
        assert whole.pages_transferred == head.pages_transferred + tail.pages_transferred
        assert store.cost_since(first).total_ms == pytest.approx(
            head.total_ms + store.cost_since(second).total_ms
        )

    def test_touched_names_the_disks_priced(self, store):
        """Whatever the depth, every leaf reports into the root's
        ``touched``, under its index among the root's ``disks``."""
        before = [disk.stats() for disk in store.disks]
        store.touched.clear()
        mixed_traffic(store)
        moved = {i for i, disk in enumerate(store.disks) if disk.stats() != before[i]}
        assert moved and store.touched == moved

    def test_a_request_answers_its_response_within_its_device_time(self, store):
        for issue in (
            lambda: store.read(0, 8),
            lambda: store.write(40, 4),
            lambda: store.read_runs([(100, 2), (300, 4)]),
            lambda: store.write_runs([(500, 2), (502, 1)]),
        ):
            mark = store.snapshot()
            response = issue()
            device_ms = store.cost_since(mark).total_ms
            assert 0.0 < response <= device_ms + 1e-9


@pytest.mark.parametrize("twins", STORES, indirect=True)
class TestTwoFreshStores:
    def test_identical_traffic_prices_identically(self, twins):
        responses = []
        for twin in twins:
            mark = twin.snapshot()
            mixed_traffic(twin)
            responses.append((twin.read(0, 8), twin.stats_since(mark)))
        assert responses[0] == responses[1]
        assert [d.stats() for d in twins[0].disks] == [d.stats() for d in twins[1].disks]

    def test_extent_calls_price_as_their_page_calls(self, twins):
        by_extent, by_pages = twins
        costs = [
            by_extent.read_extent(Extent(10, 6)),
            by_extent.write_extent(Extent(200, 3)),
            by_extent.read_extent(Extent(16, 2), continuation=True),
        ]
        assert costs == [
            by_pages.read(10, 6),
            by_pages.write(200, 3),
            by_pages.read(16, 2, continuation=True),
        ]
        assert by_extent.stats() == by_pages.stats()


@pytest.mark.parametrize("store", COMPOSITES, indirect=True)
class TestEveryComposite:
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
        # A bare list[DiskStats] of the right shape is a marker.
        store.read(0, 1)
        assert store.stats_since([DiskStats() for _ in range(n)]).requests == 1


class TestOneStoreTreePerDisk:
    """A disk reports the devices it priced to one store, so a second
    store over the same disk is refused rather than left blind."""

    def test_a_store_over_a_store_takes_its_disks_over(self):
        inner = ShardedPageStore(2)
        outer = TieredPageStore(8, fast_store=inner)
        outer.touched.clear()
        outer.read(0, 1)
        assert outer.touched == {0} and not inner.touched

    def test_two_stores_cannot_share_a_disk(self):
        disk = DiskModel()
        with pytest.raises(ConfigurationError, match="share a disk"):
            TieredPageStore(8, fast_store=disk, capacity_store=disk)
        inner = ShardedPageStore(2)
        TieredPageStore(8, fast_store=inner)
        with pytest.raises(ConfigurationError, match="share a disk"):
            TieredPageStore(8, fast_store=inner)
