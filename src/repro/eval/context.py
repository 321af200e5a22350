"""Shared experiment state: generated maps, built organizations, joins.

Building an organization over a map is by far the most expensive step
of the harness, and several figures reuse the same builds (Figures 5
and 6 report construction cost and utilization of the *same* trees;
Figures 8, 10 and 12 query them).  The context memoises everything by
configuration key, so a full benchmark run builds each organization at
most once.  A query moves its disk's head, and where the head stands
prices the next request, so a figure starts by putting every built
disk back at the head its build left (:meth:`ExperimentContext.rewind`):
its numbers are then those of a fresh context, whichever figures ran
before it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.data.calibrate import (
    PAIRS_PER_OBJECT_VERSION_B,
    calibrate_expansion,
)
from repro.data.series import SeriesSpec
from repro.data.tiger import generate_map
from repro.data.workload import point_workload, window_workload
from repro.database import ORGANIZATIONS, SpatialDatabase
from repro.errors import ConfigurationError
from repro.eval.config import ExperimentConfig
from repro.geometry.feature import SpatialObject
from repro.geometry.rect import Rect
from repro.storage.base import SpatialOrganization

__all__ = ["Dataset", "ExperimentContext", "ORG_NAMES"]

ORG_NAMES = tuple(ORGANIZATIONS)


@dataclass(frozen=True)
class Dataset:
    """The map an experiment runs over: one scaled Table 1 series, as
    :meth:`ExperimentContext.dataset` hands it out.  The figure mode of
    the CLI, which takes no ``--series``, carries the config only."""

    config: ExperimentConfig
    series: str | None = None
    spec: SeriesSpec | None = None
    objects: list[SpatialObject] | None = None

    @property
    def label(self) -> str:
        return f"{self.series} (scale={self.config.scale})"

    def deleted(self, fraction: float):
        """``(doomed, survivors)``: object ``i`` is doomed when
        ``floor(i·f)`` steps — error diffusion, so the achieved fraction
        is within 1/n of ``f`` for every ``f`` (at 0.5: the even indices)."""
        doomed, survivors = [], []
        for i, obj in enumerate(self.objects):
            steps = math.floor(i * fraction) != math.floor((i - 1) * fraction)
            (doomed if steps else survivors).append(obj)
        return doomed, survivors

    @property
    def bound(self) -> float:
        """Upper corner of the populated data space."""
        return max(
            max(o.mbr.xmax for o in self.objects),
            max(o.mbr.ymax for o in self.objects),
        )


class ExperimentContext:
    """Memoising factory for maps, workloads and built organizations."""

    def __init__(self, config: ExperimentConfig | None = None):
        self.config = config or ExperimentConfig()
        self._maps: dict[tuple, list[SpatialObject]] = {}
        self._orgs: dict[tuple, SpatialOrganization] = {}
        self._join_pairs: dict[tuple, tuple[SpatialOrganization, SpatialOrganization]] = {}
        self._windows: dict[tuple, list[Rect]] = {}
        self._expansions: dict[tuple, float] = {}
        #: every built disk -> the head position its build left
        self._heads: dict = {}

    # ------------------------------------------------------------------
    # datasets
    # ------------------------------------------------------------------
    def objects(self, series_key: str, mbr_expansion: float | None = None) -> list[SpatialObject]:
        """The (scaled) synthetic map of one Table 1 series.

        Expanded-MBR variants (join version *b*) share the natural map's
        geometry — only the spatial keys differ, exactly as Section 6.1
        derives its versions "by using MBRs with different extensions".
        """
        cache_key = (series_key, mbr_expansion)
        cached = self._maps.get(cache_key)
        if cached is None:
            if mbr_expansion is not None:
                base = self.objects(series_key)
                cached = [
                    SpatialObject(
                        o.oid,
                        o.geometry,
                        size_bytes=o.size_bytes,
                        mbr_override=o.geometry.mbr.expanded(mbr_expansion),
                    )
                    for o in base
                ]
            else:
                spec = self.config.spec(series_key)
                # Map 2 ids continue after map 1 so joined relations
                # never share object identifiers.
                id_offset = 0 if spec.map_id == 1 else 10_000_000
                cached = generate_map(
                    spec, seed=self.config.seed, id_offset=id_offset
                )
            self._maps[cache_key] = cached
        return cached

    def dataset(self, series_key: str | None) -> Dataset:
        """The series' map as the :class:`Dataset` the shared steps of
        :mod:`repro.eval.scenarios` run over (``None``: no map)."""
        if series_key is None:
            return Dataset(self.config)
        return Dataset(
            self.config, series_key, self.config.spec(series_key),
            self.objects(series_key),
        )

    def version_expansion(self, series_r: str, series_s: str, version: str) -> float | None:
        """MBR expansion for a join version: *a* uses natural MBRs,
        *b* is calibrated to ~9 intersections per MBR (Section 6.1)."""
        if version == "a":
            return None
        if version != "b":
            raise ConfigurationError(f"join version must be 'a' or 'b', got {version!r}")
        key = (series_r, series_s)
        factor = self._expansions.get(key)
        if factor is None:
            factor = calibrate_expansion(
                self.objects(series_r),
                self.objects(series_s),
                PAIRS_PER_OBJECT_VERSION_B,
            )
            self._expansions[key] = factor
        return factor

    # ------------------------------------------------------------------
    # workloads
    # ------------------------------------------------------------------
    def windows(self, series_key: str, area_fraction: float) -> list[Rect]:
        key = (series_key, area_fraction)
        cached = self._windows.get(key)
        if cached is None:
            cached = window_workload(
                self.objects(series_key),
                area_fraction,
                n_queries=self.config.n_queries,
                seed=self.config.seed + 17,
            )
            self._windows[key] = cached
        return cached

    def points(self, series_key: str, area_fraction: float = 1e-4) -> list[tuple[float, float]]:
        return point_workload(self.windows(series_key, area_fraction))

    # ------------------------------------------------------------------
    # organizations
    # ------------------------------------------------------------------
    def _knobs(
        self, org_name: str, series_key: str, smax_bytes: int | None = None, **knobs
    ) -> dict:
        """Layout knobs of one series' relation: Table 1's ``Smax``
        unless told otherwise (the organizations without cluster units
        ignore it)."""
        return dict(
            organization=org_name,
            smax_bytes=smax_bytes or self.config.spec(series_key).smax_bytes,
            construction_buffer_pages=self.config.construction_buffer_pages,
            **knobs,
        )

    def org(
        self,
        org_name: str,
        series_key: str,
        buddy_sizes: int | None = None,
        smax_bytes: int | None = None,
    ) -> SpatialOrganization:
        """A built (memoised) organization over one series' map."""
        key = (org_name, series_key, buddy_sizes, smax_bytes)
        cached = self._orgs.get(key)
        if cached is None:
            cached = SpatialDatabase(
                name=f"{org_name}.{series_key}",
                **self._knobs(org_name, series_key, smax_bytes, buddy_sizes=buddy_sizes),
            ).storage
            cached.build(self.objects(series_key))
            self._heads[cached.disk] = cached.disk._head
            self._orgs[key] = cached
        return cached

    def join_pair(
        self,
        org_name: str,
        series_r: str,
        series_s: str,
        version: str = "a",
    ) -> tuple[SpatialOrganization, SpatialOrganization]:
        """Two built organizations sharing one disk — the join setup of
        Section 6.1 (memoised per organization and version)."""
        key = (org_name, series_r, series_s, version)
        cached = self._join_pairs.get(key)
        if cached is None:
            expansion = self.version_expansion(series_r, series_s, version)
            db_r = SpatialDatabase(
                name=f"r.{org_name}", **self._knobs(org_name, series_r)
            )
            db_s = db_r.attach(f"s.{org_name}", **self._knobs(org_name, series_s))
            db_r.build(self.objects(series_r, expansion))
            db_s.build(self.objects(series_s, expansion))
            cached = (db_r.storage, db_s.storage)
            self._heads[db_r.disk] = db_r.disk._head
            self._join_pairs[key] = cached
        return cached

    def rewind(self) -> None:
        """Put every built disk's head back where its build left it: the
        state a fresh context queries it in."""
        for disk, head in self._heads.items():
            disk._head = head
