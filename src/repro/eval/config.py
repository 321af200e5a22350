"""Experiment configuration.

The paper's testbed holds 131 k objects per map; a pure-Python simulator
reproduces the same *shapes* (speed-up factors, crossovers) at a reduced
cardinality because every reported metric is simulated I/O that scales
linearly with the object count.  ``REPRO_SCALE`` (default 0.08, i.e.
about 10,500 objects per map) controls the reduction; buffer sizes and
query counts scale along so that cache-to-data ratios stay faithful.
``REPRO_SCALE=1`` is the paper's full cardinality: one 131,461-object
build takes about 13 s; the figure suite at that size is not timed yet.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.data.series import SeriesSpec, scaled, spec_for
from repro.errors import ConfigurationError

__all__ = ["ExperimentConfig", "DEFAULT_SCALE", "PAPER_JOIN_BUFFERS"]

DEFAULT_SCALE = 0.08

PAPER_JOIN_BUFFERS = (200, 400, 800, 1600, 3200, 6400)
"""Join buffer sizes in pages (the x-axis of Figures 14 and 16)."""


def _env_scale() -> float:
    raw = os.environ.get("REPRO_SCALE")
    if raw is None:
        return DEFAULT_SCALE
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(f"REPRO_SCALE must be a float, got {raw!r}")
    if not (0.0 < value <= 1.0):
        raise ConfigurationError(f"REPRO_SCALE must be in (0, 1], got {value}")
    return value


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Scaling knobs shared by every experiment driver."""

    scale: float = field(default_factory=_env_scale)
    seed: int = 1994
    queries_at_full_scale: int = 678  # Section 5.4
    construction_buffer_at_full_scale: int = 64

    def spec(self, key: str) -> SeriesSpec:
        """The scaled Table 1 spec for e.g. ``"A-1"``."""
        return scaled(spec_for(key), self.scale)

    @property
    def n_queries(self) -> int:
        """Scaled query count per window size (at least 30 so averages
        stay meaningful)."""
        return max(30, int(self.queries_at_full_scale * self.scale))

    @property
    def construction_buffer_pages(self) -> int:
        """Construction-time data-page buffer, scaled so its ratio to
        the tree size matches the full-scale setup."""
        return max(8, int(self.construction_buffer_at_full_scale * self.scale))

    def join_buffer(self, pages_at_full_scale: int) -> int:
        """A Figure 14/16 buffer size, scaled with the data."""
        return max(8, int(pages_at_full_scale * self.scale))

    @property
    def join_buffers(self) -> list[int]:
        return [self.join_buffer(b) for b in PAPER_JOIN_BUFFERS]
