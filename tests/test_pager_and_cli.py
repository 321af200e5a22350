"""Coverage for the node pager, the analytic charge API and the
evaluation CLI."""

from __future__ import annotations

import pytest

from repro.disk.allocator import PageAllocator
from repro.disk.model import DiskModel
from repro.errors import DiskError
from repro.eval.__main__ import main
from repro.eval.figures import FIGURES
from repro.geometry.rect import Rect
from repro.rtree.node import Node
from repro.rtree.pager import NodePager


def make_pager(buffer=None, directory_resident=False):
    disk = DiskModel()
    region = PageAllocator().region("tree")
    return NodePager(disk, region, buffer_capacity=buffer,
                     directory_resident=directory_resident), disk


def leaf_node(pager, node_id=0):
    node = Node(node_id, 0)
    pager.register(node)
    return node


class TestNodePager:
    def test_register_assigns_page(self):
        pager, _ = make_pager()
        node = leaf_node(pager)
        assert node.page is not None

    def test_unregistered_node_free(self):
        pager, disk = make_pager()
        node = Node(0, 0)  # never registered
        pager.read(node)
        pager.write(node)
        assert disk.total_ms == 0.0

    def test_unbuffered_read_write_priced(self):
        pager, disk = make_pager()
        node = leaf_node(pager)
        pager.read(node)
        pager.write(node)
        assert disk.stats().requests == 2

    def test_buffered_read_hit_free(self):
        pager, disk = make_pager(buffer=4)
        node = leaf_node(pager)
        pager.read(node)
        before = disk.stats()
        pager.read(node)
        assert (disk.stats() - before).requests == 0

    def test_dirty_eviction_writes_back(self):
        pager, disk = make_pager(buffer=1)
        a, b = leaf_node(pager, 0), leaf_node(pager, 1)
        pager.write(a)  # dirty in buffer
        before = disk.stats()
        pager.write(b)  # evicts a -> write-back
        assert (disk.stats() - before).requests == 1

    def test_flush_writes_dirty(self):
        pager, disk = make_pager(buffer=8)
        node = leaf_node(pager)
        pager.write(node)
        before = disk.stats()
        pager.flush()
        assert (disk.stats() - before).requests == 1

    def test_reset_buffer_discards_without_writeback(self):
        pager, disk = make_pager(buffer=8)
        node = leaf_node(pager)
        pager.write(node)
        before = disk.stats()
        pager.reset_buffer()
        assert (disk.stats() - before).requests == 0
        # next read is a miss again
        pager.read(node)
        assert (disk.stats() - before).requests == 1

    def test_directory_resident_skips_upper_levels(self):
        pager, disk = make_pager(directory_resident=True)
        directory = Node(0, 1)
        pager.register(directory)
        pager.read(directory)
        pager.write(directory)
        assert disk.total_ms == 0.0

    def test_retire_frees_page_and_buffer(self):
        pager, disk = make_pager(buffer=8)
        node = leaf_node(pager)
        pager.read(node)
        allocated = pager.region.allocated_pages
        pager.retire(node)
        assert node.page is None
        assert pager.region.allocated_pages == allocated - 1
        pager.retire(node)  # idempotent


class TestDiskCharge:
    def test_charge_components(self):
        disk = DiskModel()
        cost = disk.charge(seeks=2, rotations=1, pages=5)
        assert cost == 2 * 9 + 1 * 6 + 5 * 1
        stats = disk.stats()
        assert stats.seeks == 2
        assert stats.pages_transferred == 5

    def test_charge_zero_is_free(self):
        disk = DiskModel()
        assert disk.charge() == 0.0
        assert disk.stats().requests == 0

    def test_charge_rejects_negative(self):
        with pytest.raises(DiskError):
            DiskModel().charge(seeks=-1)

    def test_charge_does_not_move_head(self):
        disk = DiskModel()
        disk.read(10, 1)
        head = disk.head
        disk.charge(pages=3)
        assert disk.head == head


class TestEvalCLI:
    def test_experiments_registry_complete(self):
        assert set(FIGURES) == {
            "table1", "fig5", "fig6", "fig7", "fig8", "fig10",
            "fig11", "fig12", "fig14", "fig16", "fig17",
        }

    def test_run_one_experiment(self, capsys):
        rc = main(["--scale", "0.008", "--only", "table1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "A-1" in out

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["--only", "fig99"])

    def test_invalid_scale_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["--scale", "7", "--only", "table1"])

    def test_pagestore_subcommand(self, capsys):
        rc = main([
            "pagestore",
            "--scale", "0.003",
            "--queries", "4",
            "--disks", "1,2",
            "--placements", "spatial",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "declustered window-query execution" in out
        assert "(single disk)" in out and "spatial" in out
        assert "parallelism" in out

    def test_pagestore_rejects_unknown_placement(self):
        with pytest.raises(SystemExit):
            main(["pagestore", "--placements", "bogus"])

    def test_pagestore_rejects_malformed_disks(self):
        with pytest.raises(SystemExit):
            main(["pagestore", "--disks", "two"])

    def test_workload_profile_flag(self, capsys):
        code = main(
            [
                "workload",
                "--scale", "0.005",
                "--queries", "4",
                "--policies", "lru",
                "--no-join",
                "--profile",
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "cProfile top 15 by cumulative time" in captured
        assert "cumtime" in captured


class TestQueryResultMetrics:
    def test_ms_per_4kb(self):
        from repro.disk.model import DiskStats
        from repro.storage.base import QueryResult

        res = QueryResult(
            bytes_retrieved=8192,
            io=DiskStats(seek_ms=10.0, latency_ms=6.0, transfer_ms=4.0),
        )
        assert res.io_ms_per_4kb == pytest.approx(10.0)

    def test_ms_per_4kb_empty(self):
        from repro.storage.base import QueryResult

        assert QueryResult().io_ms_per_4kb == float("inf")


class TestWorkloadAggregateMetrics:
    def test_answers_per_query_zero_queries(self):
        from repro.eval.metrics import WorkloadAggregate

        assert WorkloadAggregate().answers_per_query == 0.0
        assert WorkloadAggregate().ms_per_4kb == float("inf")
