"""Cluster-size policy: the ``Smax`` rule of Section 4.2.

The paper computes the maximum cluster size from the page capacity and
the average object size, ``Smax = 1.5 * M * S_obj``, and rounds it to
convenient values (Table 1: 80 / 160 / 320 KB).  A maximum size exists
because "for the I/O-system it is easier to handle cluster units of
limited size".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import CLUSTER_SIZE_FACTOR, PAGE_CAPACITY, PAGE_SIZE
from repro.errors import ConfigurationError

__all__ = ["ClusterPolicy", "smax_bytes_for"]


def smax_bytes_for(
    avg_object_size: float,
    max_entries: int = PAGE_CAPACITY,
    factor: float = CLUSTER_SIZE_FACTOR,
    page_size: int = PAGE_SIZE,
) -> int:
    """``Smax`` from the paper's rule, rounded *down* to whole pages
    (the paper's Table 1 rounds 83.4 KB down to 80 KB)."""
    if avg_object_size <= 0:
        raise ConfigurationError("average object size must be positive")
    raw = factor * max_entries * avg_object_size
    pages = max(1, int(raw // page_size))
    return pages * page_size


@dataclass(frozen=True, slots=True)
class ClusterPolicy:
    """How a cluster organization sizes and stores its units.

    Attributes
    ----------
    smax_bytes:
        Maximum cluster unit size (must be a whole number of pages).
    buddy_sizes:
        ``None`` for the plain organization (every unit occupies a full
        ``Smax`` extent); an integer ``k`` enables the buddy system with
        ``k`` buddy sizes (Section 5.3.1; the paper's *restricted*
        system uses 3: ``Smax``, ``Smax/2``, ``Smax/4``).
    page_size:
        Page size in bytes.
    """

    smax_bytes: int
    buddy_sizes: int | None = None
    page_size: int = PAGE_SIZE

    def __post_init__(self) -> None:
        if self.smax_bytes <= 0 or self.smax_bytes % self.page_size:
            raise ConfigurationError(
                f"Smax must be a positive multiple of the page size, got "
                f"{self.smax_bytes}"
            )
        if self.buddy_sizes is not None and self.buddy_sizes < 1:
            raise ConfigurationError(
                f"buddy_sizes must be >= 1, got {self.buddy_sizes}"
            )

    @property
    def smax_pages(self) -> int:
        return self.smax_bytes // self.page_size
