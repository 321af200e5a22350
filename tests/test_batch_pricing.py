"""The vectorized run pricer against pricing one request at a time.

:meth:`DiskModel.price_runs` prices a whole run list with numpy while
preserving the sequential head-position semantics of one
:meth:`DiskModel.read` / :meth:`DiskModel.write` per run — costs,
statistics and the final head position must be **bit-identical** (same
floats, not approximately equal), because the committed oracles depend
on the per-request arithmetic.  The sharded store's per-disk grouping
and the buffer pool's vectorized coalescing ride on the same guarantee.
"""

from __future__ import annotations

import random

import pytest

from repro.buffer.pool import BufferPool, coalesce_pages
from repro.disk.model import BATCH_MIN_RUNS, DiskModel, DiskParameters
from repro.errors import ConfigurationError, DiskError
from repro.iosched.request import AccessPlan
from repro.pagestore.store import ShardedPageStore


def random_params(rng):
    return DiskParameters(
        seek_ms=rng.choice((9.0, 7.3, 12.8)),
        latency_ms=rng.choice((6.0, 4.17, 5.5)),
        transfer_ms=rng.choice((1.0, 0.83, 2.2)),
    )


def per_request(disk, runs, continuation=False, kind="read"):
    """The oracle, ``price_runs``' own definition: one ``read`` /
    ``write`` per run, the first carrying the caller's ``continuation``
    flag, every later one a continuation."""
    price = disk.read if kind == "read" else disk.write
    cost = 0.0
    for i, (start, npages) in enumerate(runs):
        cost += price(start, npages, continuation if i == 0 else True)
    return cost


def random_runs(rng, n):
    runs = []
    page = rng.randrange(0, 50)
    for _ in range(n):
        if rng.random() < 0.3:
            # Sometimes exactly sequential with the previous run.
            start = page
        else:
            start = rng.randrange(0, 4000)
        count = rng.randrange(1, 9)
        runs.append((start, count))
        page = start + count
    return runs


class TestPriceRunsEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_bit_identical_to_scalar_loop(self, seed):
        rng = random.Random(seed)
        params = random_params(rng)
        for continuation in (False, True):
            for n in (1, 2, BATCH_MIN_RUNS - 1, BATCH_MIN_RUNS, 40):
                runs = random_runs(rng, n)
                batch_disk = DiskModel(params)
                oracle_disk = DiskModel(params)
                if rng.random() < 0.5:
                    # Pre-position the head so the fresh-first branch
                    # sees both head states.
                    warm = [(100, 2)]
                    batch_disk.read_runs(warm)
                    per_request(oracle_disk, warm)
                cost = batch_disk.price_runs(runs, continuation)
                oracle = per_request(oracle_disk, runs, continuation)
                assert cost == oracle
                assert batch_disk.stats() == oracle_disk.stats()
                assert batch_disk._head == oracle_disk._head

    def test_write_runs_priced_identically(self):
        rng = random.Random(99)
        runs = random_runs(rng, 20)
        batch_disk, oracle_disk = DiskModel(), DiskModel()
        cost = batch_disk.price_runs(runs, False, "write")
        oracle = per_request(oracle_disk, runs, False, "write")
        assert cost == oracle
        assert batch_disk.stats() == oracle_disk.stats()

    def test_read_runs_delegates_to_batch_pricer(self):
        runs = [(i * 10, 3) for i in range(BATCH_MIN_RUNS + 2)]
        a, b = DiskModel(), DiskModel()
        assert a.read_runs(runs) == b.price_runs(runs)
        assert a.stats() == b.stats()

    def test_invalid_run_surfaces_after_partial_batch(self):
        """A bad run mid-list must fail at that run with the earlier
        runs already priced — exactly what pricing run by run does."""
        runs = [(10, 2)] * BATCH_MIN_RUNS + [(5, 0)]
        batch_disk, oracle_disk = DiskModel(), DiskModel()
        with pytest.raises(DiskError):
            batch_disk.price_runs(runs)
        with pytest.raises(DiskError):
            per_request(oracle_disk, runs)
        assert batch_disk.stats() == oracle_disk.stats()

    def test_empty_and_negative_runs(self):
        disk = DiskModel()
        assert disk.price_runs([]) == 0.0
        with pytest.raises(DiskError):
            disk.price_runs([(-1, 2)] * BATCH_MIN_RUNS)


class TestShardedGrouping:
    @pytest.mark.parametrize("n_disks", [2, 4])
    def test_grouped_pricing_matches_interleaved_loop(self, n_disks):
        rng = random.Random(7)
        runs = random_runs(rng, 30)
        grouped = ShardedPageStore(n_disks=n_disks)
        oracle = ShardedPageStore(n_disks=n_disks)
        cost = grouped.read_runs(runs)
        # The historical per-fragment interleaved loop.
        expect = 0.0
        per_disk: dict[int, float] = {}
        chains: set[int] = set()
        for start, n_pages in runs:
            for disk, frag_start, frag_pages in oracle._fragments(
                start, n_pages
            ):
                continuation = disk in chains
                chains.add(disk)
                ms = oracle.disks[disk]._transfer(
                    frag_start, frag_pages, continuation, "read"
                )
                per_disk[disk] = per_disk.get(disk, 0.0) + ms
        expect = max(per_disk.values(), default=0.0)
        assert cost == expect
        assert [d.stats() for d in grouped.disks] == [
            d.stats() for d in oracle.disks
        ]
        assert [d._head for d in grouped.disks] == [
            d._head for d in oracle.disks
        ]


class TestCoalesceAndPassthrough:
    @pytest.mark.parametrize("n", [3, 64, 500])
    def test_coalesce_matches_scalar(self, n):
        rng = random.Random(n)
        pages = sorted(rng.sample(range(0, n * 4), n))
        runs = coalesce_pages(pages)
        # Reconstruct and compare against a straightforward scan.
        expect = []
        for page in pages:
            if expect and expect[-1][0] + expect[-1][1] == page:
                expect[-1] = (expect[-1][0], expect[-1][1] + 1)
            else:
                expect.append((page, 1))
        assert runs == expect
        assert all(
            isinstance(start, int) and isinstance(count, int)
            for start, count in runs
        )

    def test_coalesce_rejects_unsorted_large_batch(self):
        pages = list(range(100))
        pages[50], pages[51] = pages[51], pages[50]
        with pytest.raises(ConfigurationError):
            coalesce_pages(pages)
        with pytest.raises(ConfigurationError):
            coalesce_pages(list(range(10)) + [9] + list(range(100, 189)))

    def test_passthrough_read_pages_prices_like_caching_cold(self):
        pages = list(range(0, 120, 2))
        cold = BufferPool(DiskModel(), capacity=len(pages))
        passthrough = BufferPool(DiskModel(), capacity=0)
        assert passthrough.read_pages(pages) == cold.read_pages(pages)
        assert passthrough.misses == len(pages)
        assert len(passthrough) == 0

    def test_plan_submit_equivalent_across_batch_boundary(self):
        """One plan touching many runs prices identically whether the
        runs land on the scalar or the vectorized pricer."""
        few = AccessPlan("t")
        many = AccessPlan("t")
        for i in range(BATCH_MIN_RUNS * 2):
            many.read(i * 7, 2)
        few.read(0, 2)
        pool_many, pool_few = (
            BufferPool(DiskModel(), capacity=8),
            BufferPool(DiskModel(), capacity=8),
        )
        cost_many = pool_many.submit(many)
        cost_few = pool_few.submit(few)
        assert cost_many > cost_few > 0.0
