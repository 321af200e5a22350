"""Tests for the synthetic TIGER-like generator, series specs, workloads
and join-selectivity calibration."""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np
import pytest

from repro.data.calibrate import calibrate_expansion, pairs_per_object
from repro.data.series import TABLE1, SeriesSpec, scaled, spec_for
from repro.data.tiger import MapGenerator, generate_map
from repro.data.workload import (
    PAPER_WINDOW_AREAS,
    point_workload,
    window_workload,
)
from repro.errors import ConfigurationError


def small_spec(key: str = "A-1", n: int = 1200) -> SeriesSpec:
    return scaled(spec_for(key), n / spec_for(key).n_objects)


class TestSeries:
    def test_table1_complete(self):
        assert set(TABLE1) == {"A-1", "B-1", "C-1", "A-2", "B-2", "C-2"}

    def test_table1_paper_values(self):
        c1 = spec_for("C-1")
        assert c1.n_objects == 131_461
        assert c1.avg_object_size == 2490
        assert c1.smax_kb == 320

    def test_spec_for_unknown(self):
        with pytest.raises(ConfigurationError):
            spec_for("Z-9")

    def test_scaled(self):
        s = scaled(spec_for("A-1"), 0.1)
        assert s.n_objects == 13_146
        assert s.avg_object_size == 625  # sizes don't scale

    def test_scaled_validation(self):
        with pytest.raises(ConfigurationError):
            scaled(spec_for("A-1"), 0.0)

    def test_smax_bytes(self):
        assert spec_for("A-1").smax_bytes == 80 * 1024


class TestGenerator:
    def test_deterministic(self):
        spec = small_spec()
        a = generate_map(spec, seed=7)
        b = generate_map(spec, seed=7)
        assert len(a) == len(b) == spec.n_objects
        for x, y in zip(a[:50], b[:50]):
            assert x.geometry.vertices == y.geometry.vertices
            assert x.size_bytes == y.size_bytes

    def test_seeds_differ(self):
        spec = small_spec()
        a = generate_map(spec, seed=7)
        b = generate_map(spec, seed=8)
        assert any(
            x.geometry.vertices != y.geometry.vertices
            for x, y in zip(a[:20], b[:20])
        )

    def test_average_size_matches_spec(self):
        for key in ("A-1", "C-2"):
            spec = small_spec(key, 2000)
            objs = generate_map(spec, seed=3)
            avg = sum(o.size_bytes for o in objs) / len(objs)
            assert avg == pytest.approx(spec.avg_object_size, rel=0.1)

    def test_objects_inside_data_space(self):
        objs = generate_map(small_spec(), seed=5, data_space=50_000.0)
        for o in objs:
            assert 0 <= o.mbr.xmin and o.mbr.xmax <= 50_000.0
            assert 0 <= o.mbr.ymin and o.mbr.ymax <= 50_000.0

    def test_id_offset(self):
        objs = generate_map(small_spec(), seed=5, id_offset=1000)
        assert objs[0].oid == 1000
        assert len({o.oid for o in objs}) == len(objs)

    def test_mbr_expansion(self):
        spec = small_spec()
        plain = generate_map(spec, seed=5)
        fat = generate_map(spec, seed=5, mbr_expansion=2.0)
        for p, f in zip(plain[:50], fat[:50]):
            assert f.mbr.contains(p.mbr)
            assert f.mbr.width == pytest.approx(max(p.mbr.width * 2, 0), abs=1e-6)

    def test_expansion_validation(self):
        with pytest.raises(ConfigurationError):
            MapGenerator(small_spec(), mbr_expansion=0.5)

    def test_map2_has_different_shapes(self):
        objs1 = generate_map(small_spec("A-1"), seed=5)
        objs2 = generate_map(small_spec("A-2"), seed=5)
        # Streets are mostly straight; map 2 mixes rings and meanders, so
        # its chains are on average less straight (smaller extent/length).
        def straightness(objs):
            vals = []
            for o in objs[:300]:
                length = sum(
                    math.dist(a, b) for a, b in zip(o.geometry.vertices, o.geometry.vertices[1:])
                )
                if length > 0:
                    diag = (o.mbr.width**2 + o.mbr.height**2) ** 0.5
                    vals.append(diag / length)
            return float(np.mean(vals))

        assert straightness(objs1) > straightness(objs2)

    def test_sizes_are_bimodal_with_page_overflow_for_c(self):
        objs = generate_map(small_spec("C-1", 2000), seed=9)
        frac_over = sum(1 for o in objs if o.size_bytes > 4096) / len(objs)
        assert 0.1 < frac_over < 0.5

    def test_clustering_present(self):
        """Urban clustering: the densest 1% of cells holds far more than
        1% of the objects."""
        objs = generate_map(small_spec("A-1", 3000), seed=11)
        cells = {}
        for o in objs:
            cx, cy = o.mbr.center()
            key = (int(cx // 50_000), int(cy // 50_000))
            cells[key] = cells.get(key, 0) + 1
        counts = sorted(cells.values(), reverse=True)
        top = sum(counts[: max(1, len(counts) // 100)])
        assert top > 0.05 * len(objs)


class TestWorkloads:
    def test_paper_window_areas(self):
        assert PAPER_WINDOW_AREAS == (1e-5, 1e-4, 1e-3, 1e-2, 1e-1)

    def test_window_count_and_size(self):
        objs = generate_map(small_spec(), seed=5)
        windows = window_workload(objs, 1e-3, n_queries=100)
        assert len(windows) == 100
        side = 1e6 * (1e-3**0.5)
        for w in windows:
            assert w.width == pytest.approx(side)
            assert w.height == pytest.approx(side)
            assert 0 <= w.xmin and w.xmax <= 1e6

    def test_centers_inside_object_mbrs(self):
        objs = generate_map(small_spec(), seed=5)
        windows = window_workload(objs, 1e-5, n_queries=50)
        for w in windows:
            cx, cy = w.center()
            assert any(o.mbr.contains_point(cx, cy) for o in objs), (
                "window center must lie in some stored object's MBR"
            )

    def test_workload_deterministic(self):
        objs = generate_map(small_spec(), seed=5)
        a = window_workload(objs, 1e-3, n_queries=10, seed=3)
        b = window_workload(objs, 1e-3, n_queries=10, seed=3)
        assert a == b

    def test_point_workload_is_centers(self):
        objs = generate_map(small_spec(), seed=5)
        windows = window_workload(objs, 1e-3, n_queries=10)
        points = point_workload(windows)
        assert points == [w.center() for w in windows]

    def test_validation(self):
        objs = generate_map(small_spec(), seed=5)
        with pytest.raises(ConfigurationError):
            window_workload(objs, 0.0)
        with pytest.raises(ConfigurationError):
            window_workload([], 1e-3)


class TestCalibration:
    def test_pairs_per_object_matches_brute_force(self):
        objs_a = generate_map(small_spec("A-1", 400), seed=5)
        objs_b = generate_map(small_spec("A-2", 400), seed=5)
        got = pairs_per_object(objs_a, objs_b)
        want = sum(
            1 for a in objs_a for b in objs_b if a.mbr.intersects(b.mbr)
        ) / len(objs_a)
        assert got == pytest.approx(want)

    def test_expansion_increases_pairs(self):
        objs_a = generate_map(small_spec("A-1", 400), seed=5)
        objs_b = generate_map(small_spec("A-2", 400), seed=5)
        assert pairs_per_object(objs_a, objs_b, 3.0) > pairs_per_object(
            objs_a, objs_b, 1.0
        )

    def test_calibrate_hits_target(self):
        objs_a = generate_map(small_spec("A-1", 600), seed=5)
        objs_b = generate_map(small_spec("A-2", 600), seed=5)
        target = 6.0
        factor = calibrate_expansion(objs_a, objs_b, target, tolerance=0.1)
        achieved = pairs_per_object(objs_a, objs_b, factor)
        assert achieved == pytest.approx(target, rel=0.25)

    def test_calibrate_returns_one_if_already_above(self):
        objs_a = generate_map(small_spec("A-1", 400), seed=5)
        objs_b = generate_map(small_spec("A-2", 400), seed=5)
        assert calibrate_expansion(objs_a, objs_b, 1e-6) == 1.0

    def test_calibrate_validation(self):
        with pytest.raises(ConfigurationError):
            calibrate_expansion([], [], 0.0)


def map_digest(objects, keys: bool = False) -> str:
    """``perf/workloads.py::dataset_digest``'s formula: sha256 over each
    object's ``<qq`` oid and byte size and its vertex bytes, the first
    16 hex digits.  ``keys`` adds each object's spatial key (its
    ``mbr_override`` when there is one) as four ``<d``."""
    h = hashlib.sha256()
    for obj in objects:
        h.update(struct.pack("<qq", obj.oid, obj.size_bytes))
        h.update(obj.geometry.coords().tobytes())
        if keys:
            h.update(struct.pack("<4d", *obj.mbr.as_tuple()))
    return h.hexdigest()[:16]


def _map(key: str, scale: float, **kwargs):
    return generate_map(scaled(spec_for(key), scale), seed=1994, **kwargs)


class TestMapsArePinned:
    """Every generated map, bit for bit: a change to the generator that
    moves one vertex, size or key moves a digest.  The values were
    recorded on the tuple-built generator the matrix-born one replaced."""

    def test_the_benchmark_datasets(self):
        """The four digests ``perf/run.py`` prints (``perf/baseline.json``):
        ``traffic_open`` / ``query_cold``, ``update_mixed``,
        ``join_exact`` and ``persist_cycle``."""
        assert map_digest(_map("A-1", 0.05)) == "19f7c3d4adf84876"
        assert map_digest(_map("A-1", 0.02)) == "9571962dd6efd048"
        joined = _map("A-1", 0.03) + _map("A-2", 0.03, id_offset=1_000_000)
        assert map_digest(joined) == "56a2cfe9b6b99eb3"
        assert map_digest(_map("A-1", 0.01)) == "869d1317967377c3"

    def test_the_spare_maps(self):
        """The A-2 maps ``update_mixed`` and ``persist_cycle`` draw their
        inserts from."""
        spare = _map("A-2", 0.02, id_offset=1_000_000)
        assert map_digest(spare, keys=True) == "605d34111255b7d9"
        spare = _map("A-2", 0.01, id_offset=1_000_000)
        assert map_digest(spare, keys=True) == "7f4b1f5e6dcaa2a5"

    @pytest.mark.parametrize(
        "key, plain, expanded",
        [
            pytest.param("A-1", "6d3aeffd1540b5c1", "681bd7fe349c074c", id="A-1"),
            pytest.param("A-2", "4f222e7eba395795", "84f648a912eba9bd", id="A-2"),
            pytest.param("B-1", "ee8c944da2c22130", "4032135f19afbe20", id="B-1"),
            pytest.param("B-2", "8e13907c88b24fc7", "e9809d73192f729a", id="B-2"),
            pytest.param("C-1", "1c7618d291842adf", "d24fe3f5a68b942d", id="C-1"),
            pytest.param("C-2", "e910dfaaad71e404", "a8f2f336f5eef872", id="C-2"),
        ],
    )
    def test_every_series(self, key, plain, expanded):
        """All six series at a small scale, with tight keys and with
        ``mbr_expansion`` (Section 6.1's fat join versions)."""
        assert map_digest(_map(key, 0.003), keys=True) == plain
        assert map_digest(_map(key, 0.003, mbr_expansion=1.7), keys=True) == expanded
