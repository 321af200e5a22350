"""Synthetic TIGER-like map generation.

The paper's maps come from US Bureau of the Census TIGER/Line files of
Californian counties ([Bur89]); those exact extracts are not available,
so this module generates their statistical twin (see the ``data`` row
of README.md's architecture map):

* **map 1 — streets**: short, mostly straight polylines, heavily
  clustered into "urban areas" (Gaussian mixture) over a sparse rural
  background, with a loose preference for grid orientations;
* **map 2 — boundaries, rivers, railway tracks**: a mixture of long
  meandering polylines (rivers), long straight chains (railways) and
  ring-shaped border polylines (administrative boundaries).

Object byte sizes follow a lognormal distribution whose mean matches
the series' Table 1 value; vertex counts derive from the byte-size
model of :mod:`repro.geometry.sizes`.  Everything is driven by a
deterministic :class:`numpy.random.Generator`, so a (spec, seed) pair
always produces the identical map.  Each polyline is born as its
``(n, 2)`` float64 vertex matrix (:meth:`Polyline.from_matrix`): no
vertex becomes a Python tuple between the generator and the geometry
column.
"""

from __future__ import annotations

import math

import numpy as np

from repro.constants import DEFAULT_DATA_SPACE
from repro.data.series import SeriesSpec
from repro.errors import ConfigurationError
from repro.geometry.feature import SpatialObject
from repro.geometry.polyline import Polyline
from repro.geometry.sizes import OBJECT_HEADER_BYTES, VERTEX_BYTES

__all__ = ["MapGenerator", "generate_map"]

_URBAN_FRACTION = 0.8  # fraction of map-1 objects inside urban clusters
_N_CLUSTERS = 40

# Object byte sizes are bimodal, as in real TIGER extracts: many simple
# chains plus a heavy population of detail-rich objects.  The complex
# fraction carries twice the series mean, so for series C (mean 2490 B)
# a substantial share of objects exceeds the 4 KB page — the overflow
# population behind the primary organization's Figure 12 behaviour.
_COMPLEX_FRACTION = 0.40
_COMPLEX_MEAN_FACTOR = 2.0
_COMPLEX_SIGMA = 0.30
_SIMPLE_SIGMA = 0.50

_GRID = (0.0, math.pi / 2)  # a block street's two headings

_MAX_VERTICES = 48
"""Geometric detail cap.  The *byte* size of an object (which drives all
storage and I/O accounting) is an independent attribute — TIGER records
carry names, codes and topology beyond their vertex lists — so chains
above this vertex count keep their full byte size but are generated with
capped geometric detail.  This bounds memory and exact-test CPU without
touching any reported metric."""


class MapGenerator:
    """Generates one synthetic map for a Table 1 series spec.

    Parameters
    ----------
    spec:
        The series/map descriptor (count, average object size).
    seed:
        Seed of the deterministic RNG; the map id is mixed in, so map 1
        and map 2 of one seed differ but stay reproducible.
    data_space:
        Side length of the square data space.
    mbr_expansion:
        Optional factor applied to every object's MBR (``mbr_override``)
        — how Section 6.1 derives join versions with different MBR
        extensions.
    """

    def __init__(
        self,
        spec: SeriesSpec,
        seed: int = 1994,
        data_space: float = DEFAULT_DATA_SPACE,
        mbr_expansion: float | None = None,
    ):
        if mbr_expansion is not None and mbr_expansion < 1.0:
            raise ConfigurationError(
                f"mbr_expansion must be >= 1, got {mbr_expansion}"
            )
        self.spec = spec
        self.data_space = data_space
        self.mbr_expansion = mbr_expansion
        self.rng = np.random.default_rng((seed, spec.map_id))
        # Each map draws its own cluster centers: streets concentrate in
        # cities while rivers/boundaries/rails follow their own geography,
        # which decorrelates the two maps' local densities (matching the
        # paper's fairly selective join, ~0.65 partners per MBR).
        self._region_rng = np.random.default_rng((seed, spec.map_id, 0xE61))

    # ------------------------------------------------------------------
    def generate(self, id_offset: int = 0) -> list[SpatialObject]:
        """Produce the full object list, ids starting at ``id_offset``."""
        sizes = self._draw_sizes()
        anchors, spacings = self._draw_anchors()
        n_vertices = np.clip(
            (sizes - OBJECT_HEADER_BYTES) // VERTEX_BYTES, 2, _MAX_VERTICES
        ).astype(np.int64)
        objects: list[SpatialObject] = []
        for i, (anchor, spacing, n, size) in enumerate(
            zip(anchors.tolist(), spacings.tolist(), n_vertices.tolist(),
                sizes.astype(np.int64).tolist())
        ):
            geometry = Polyline.from_matrix(self._draw_polyline(anchor, spacing, n))
            override = None
            if self.mbr_expansion is not None:
                override = geometry.mbr.expanded(self.mbr_expansion)
            objects.append(
                SpatialObject(
                    id_offset + i, geometry, size_bytes=size, mbr_override=override
                )
            )
        return objects

    # ------------------------------------------------------------------
    # statistical components
    # ------------------------------------------------------------------
    def _draw_sizes(self) -> np.ndarray:
        """Bimodal lognormal byte sizes whose mixture mean matches the
        series' Table 1 value, floored at the two-vertex minimum."""
        n = self.spec.n_objects
        mean = float(self.spec.avg_object_size)
        f = _COMPLEX_FRACTION
        complex_mean = _COMPLEX_MEAN_FACTOR * mean
        simple_mean = (1.0 - f * _COMPLEX_MEAN_FACTOR) / (1.0 - f) * mean

        def lognormal(count: int, m: float, sigma: float) -> np.ndarray:
            mu = math.log(m) - sigma * sigma / 2.0
            return self.rng.lognormal(mu, sigma, count)

        n_complex = int(f * n)
        sizes = np.concatenate(
            [
                lognormal(n_complex, complex_mean, _COMPLEX_SIGMA),
                lognormal(n - n_complex, simple_mean, _SIMPLE_SIGMA),
            ]
        )
        self.rng.shuffle(sizes)
        floor = OBJECT_HEADER_BYTES + 2 * VERTEX_BYTES
        return np.maximum(sizes, floor)

    def _draw_anchors(self) -> tuple[np.ndarray, np.ndarray]:
        """Object anchor points plus their *local spacing*.

        Anchors mix Gaussian urban clusters with a uniform rural
        background.  The local spacing — the expected nearest-neighbour
        distance around the anchor — drives the object diameter, so
        city streets are short while rural objects stretch.  Because
        diameters scale with spacing, MBR-intersection statistics (join
        selectivity, answers per window area) are preserved when the
        cardinality is scaled down; byte sizes (series A/B/C) only
        change the vertex density along the chain, never its extent.
        """
        n = self.spec.n_objects
        space = self.data_space
        urban_fraction = _URBAN_FRACTION if self.spec.map_id == 1 else 0.5
        n_urban = int(n * urban_fraction)
        global_spacing = space / math.sqrt(n)

        centers = self._region_rng.uniform(
            0.05 * space, 0.95 * space, (_N_CLUSTERS, 2)
        )
        weights = self._region_rng.dirichlet(np.ones(_N_CLUSTERS) * 0.5)
        sigmas = self._region_rng.uniform(
            0.01 * space, 0.05 * space, _N_CLUSTERS
        )
        # Expected spacing inside a cluster: members spread over ~2*pi*sigma^2.
        members = np.maximum(weights * n_urban, 1.0)
        local = np.sqrt(2.0 * math.pi * sigmas**2 / members)
        local = np.minimum(local, global_spacing)

        assignment = self.rng.choice(_N_CLUSTERS, size=n_urban, p=weights)
        urban = centers[assignment] + self.rng.normal(
            0.0, 1.0, (n_urban, 2)
        ) * sigmas[assignment, None]
        urban_spacing = local[assignment]
        rural = self.rng.uniform(0.0, space, (n - n_urban, 2))
        rural_spacing = np.full(n - n_urban, global_spacing)

        anchors = np.concatenate([urban, rural])
        spacings = np.concatenate([urban_spacing, rural_spacing])
        order = self.rng.permutation(n)
        return np.clip(anchors[order], 0.0, space), spacings[order]

    def _global_spacing(self) -> float:
        return self.data_space / math.sqrt(self.spec.n_objects)

    def _draw_polyline(
        self, anchor: list[float], spacing: float, n_vertices: int
    ) -> np.ndarray:
        """The ``(n_vertices, 2)`` vertex matrix of one polyline starting
        near ``anchor`` with a diameter proportional to the local
        spacing."""
        if self.spec.map_id == 1:
            return self._street(anchor, spacing, n_vertices)
        kind = self.rng.random()
        if kind < 0.4:
            return self._river(anchor, spacing, n_vertices)
        if kind < 0.7:
            return self._railway(anchor, spacing, n_vertices)
        return self._boundary_ring(anchor, spacing, n_vertices)

    def _street(
        self, anchor: list[float], spacing: float, n: int
    ) -> np.ndarray:
        """Street chain: grid-aligned block streets mixed with longer
        diagonal arterials.  Diagonal chains produce the large, mostly
        empty MBRs that make real street data overlap heavily — the
        source of the multi-candidate point queries of Section 5.5."""
        urban = spacing < 0.5 * self._global_spacing()
        if urban and self.rng.random() < 0.7:
            # Urban arterial: long, arbitrary orientation (fat MBR).
            # Fat MBRs in *dense* areas drive the heavy MBR overlap of
            # real street maps without inflating the cross-map join
            # selectivity (the other map is sparse there).
            theta = self.rng.uniform(0.0, math.pi)
            length = spacing * self.rng.uniform(3.0, 10.0)
        else:
            # Block street: short and axis-aligned (thin MBR).
            # ``rng.choice`` of the two draws ``integers(0, 2)``: the same
            # stream and the same angle, at a fraction of the call cost.
            theta = _GRID[self.rng.integers(0, 2)] + self.rng.normal(0.0, 0.1)
            length = spacing * self.rng.uniform(0.3, 1.0)
        # np.linspace(0.0, length, n) bit for bit: its own arithmetic,
        # without its argument checks.
        along = np.arange(n) * (length / (n - 1))
        along[-1] = length
        jitter = self.rng.normal(0.0, length * 0.02, n)
        xs = anchor[0] + along * math.cos(theta) - jitter * math.sin(theta)
        ys = anchor[1] + along * math.sin(theta) + jitter * math.cos(theta)
        return self._clip(xs, ys)

    def _river(
        self, anchor: list[float], spacing: float, n: int
    ) -> np.ndarray:
        """Meandering chain: the heading performs a random walk.  The
        meandering contracts the end-to-end extent, so the step budget
        is normalised to a target diameter."""
        diameter = spacing * self.rng.uniform(0.12, 0.30)
        step = diameter / math.sqrt(max(n - 1, 1))
        headings = self.rng.normal(0.0, 0.35, n).cumsum() + self.rng.uniform(
            0.0, 2 * math.pi
        )
        xs = anchor[0] + np.concatenate(([0.0], (step * np.cos(headings))[:-1].cumsum()))
        ys = anchor[1] + np.concatenate(([0.0], (step * np.sin(headings))[:-1].cumsum()))
        return self._clip(xs, ys)

    def _railway(
        self, anchor: list[float], spacing: float, n: int
    ) -> np.ndarray:
        """Long, nearly straight chain with slight curvature."""
        length = spacing * self.rng.uniform(0.20, 0.40)
        step = length / max(n - 1, 1)
        headings = self.rng.uniform(0.0, 2 * math.pi) + self.rng.normal(
            0.0, 0.03, n
        ).cumsum()
        xs = anchor[0] + np.concatenate(([0.0], (step * np.cos(headings))[:-1].cumsum()))
        ys = anchor[1] + np.concatenate(([0.0], (step * np.sin(headings))[:-1].cumsum()))
        return self._clip(xs, ys)

    def _boundary_ring(
        self, anchor: list[float], spacing: float, n: int
    ) -> np.ndarray:
        """Closed administrative border approximated by a noisy ring
        (stored as a polyline, as topological models keep border lines)."""
        radius = spacing * self.rng.uniform(0.06, 0.14)
        # np.linspace(0.0, 2 * math.pi, n, endpoint=False) bit for bit.
        angles = np.arange(n) * (2 * math.pi / n)
        radii = radius * (1.0 + self.rng.normal(0.0, 0.05, n))
        xs = anchor[0] + radii * np.cos(angles)
        ys = anchor[1] + radii * np.sin(angles)
        return self._clip(xs, ys)

    def _clip(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The vertex matrix of the two axes, clipped to the data space."""
        coords = np.empty((len(xs), 2))
        coords[:, 0] = xs
        coords[:, 1] = ys
        return coords.clip(0.0, self.data_space, out=coords)


def generate_map(
    spec: SeriesSpec,
    seed: int = 1994,
    data_space: float = DEFAULT_DATA_SPACE,
    mbr_expansion: float | None = None,
    id_offset: int = 0,
) -> list[SpatialObject]:
    """Convenience wrapper: generate one map in a single call."""
    generator = MapGenerator(
        spec, seed=seed, data_space=data_space, mbr_expansion=mbr_expansion
    )
    return generator.generate(id_offset=id_offset)
