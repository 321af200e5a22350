"""Extents: runs of physically consecutive disk pages.

Cluster units, buddies and sequential-file chunks are all extents.  An
extent is a half-open interval of page numbers ``[start, start + npages)``
that can be transferred with a single read request (Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import DiskError

__all__ = ["Extent"]


@dataclass(frozen=True, slots=True)
class Extent:
    """A run of ``npages`` physically consecutive pages starting at
    page number ``start``."""

    start: int
    npages: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.npages <= 0:
            raise DiskError(
                f"invalid extent: start={self.start}, npages={self.npages}"
            )

    @property
    def end(self) -> int:
        """One past the last page of the extent."""
        return self.start + self.npages

    def pages(self) -> Iterator[int]:
        """Iterate the absolute page numbers of the extent."""
        return iter(range(self.start, self.end))
