"""The cluster organization — the paper's primary contribution."""

from repro.core.organization import ClusterOrganization
from repro.core.policy import ClusterPolicy, smax_bytes_for
from repro.core.techniques import (
    TECHNIQUES,
    geometric_threshold,
    slm_schedule,
)
from repro.core.unit import ClusterUnit

__all__ = [
    "ClusterOrganization",
    "ClusterPolicy",
    "ClusterUnit",
    "smax_bytes_for",
    "TECHNIQUES",
    "slm_schedule",
    "geometric_threshold",
]
