"""The organization models of Section 3.2.

:class:`SecondaryOrganization` and :class:`PrimaryOrganization` live
here; the :class:`~repro.core.ClusterOrganization` (the paper's
contribution) is defined in :mod:`repro.core`, which builds on
:mod:`repro.storage.base`.
"""

from repro.storage.base import QueryResult, SpatialOrganization
from repro.storage.primary import PrimaryOrganization
from repro.storage.secondary import SecondaryOrganization

__all__ = [
    "SpatialOrganization",
    "QueryResult",
    "SecondaryOrganization",
    "PrimaryOrganization",
]
