"""Table 1: the maps and the test series.

The paper evaluates two maps derived from US Bureau of the Census
TIGER/Line data for Californian counties — map 1 holds 131,461 streets,
map 2 holds 128,971 administrative boundaries, rivers and railway
tracks — in three size variants (series A/B/C) with average object
sizes between 625 B and 3,113 B, and matching maximum cluster sizes
``Smax`` of 80/160/320 KB.

:data:`TABLE1` reproduces those parameters; :func:`scaled` shrinks a
spec's cardinality for laptop-scale runs while keeping object sizes,
page size and ``Smax`` at paper values (I/O counts scale linearly with
cardinality, so speed-up factors and crossovers are preserved).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError

__all__ = ["SeriesSpec", "TABLE1", "spec_for", "scaled"]


@dataclass(frozen=True, slots=True)
class SeriesSpec:
    """One row of Table 1 (a test series × map combination)."""

    series: str  # "A", "B" or "C"
    map_id: int  # 1 = streets, 2 = boundaries/rivers/rails
    n_objects: int
    avg_object_size: int  # bytes
    smax_kb: int  # maximum cluster unit size in KB

    @property
    def key(self) -> str:
        """The paper's naming, e.g. ``"A-1"``."""
        return f"{self.series}-{self.map_id}"

    @property
    def smax_bytes(self) -> int:
        return self.smax_kb * 1024


TABLE1: dict[str, SeriesSpec] = {
    spec.key: spec
    for spec in (
        SeriesSpec("A", 1, 131_461, 625, 80),
        SeriesSpec("B", 1, 131_461, 1_247, 160),
        SeriesSpec("C", 1, 131_461, 2_490, 320),
        SeriesSpec("A", 2, 128_971, 781, 80),
        SeriesSpec("B", 2, 128_971, 1_558, 160),
        SeriesSpec("C", 2, 128_971, 3_113, 320),
    )
}
"""The six test-series rows of Table 1, keyed ``"A-1"`` … ``"C-2"``."""


def spec_for(key: str) -> SeriesSpec:
    """Look up a Table 1 row by its paper name (e.g. ``"C-1"``)."""
    try:
        return TABLE1[key]
    except KeyError:
        raise ConfigurationError(
            f"unknown test series '{key}'; valid: {sorted(TABLE1)}"
        ) from None


def scaled(spec: SeriesSpec, scale: float) -> SeriesSpec:
    """A spec with the object count scaled by ``scale`` (sizes, Smax
    and everything else stay at paper values)."""
    if not (0.0 < scale <= 1.0):
        raise ConfigurationError(f"scale must be in (0, 1], got {scale}")
    return replace(spec, n_objects=max(100, int(spec.n_objects * scale)))
