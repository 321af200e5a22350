"""R*-tree entries.

One :class:`Entry` is either a *directory entry* — ``(rect, child)``
where ``rect`` is the MBR of everything inside the child node — or a
*data entry* — ``(rect, oid)`` optionally carrying a byte ``load`` (the
exact-representation size of the object, used by the byte-capacity
policies of the primary and cluster organizations) and an opaque
``payload`` (the organization's locator for the exact representation).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.constants import ENTRY_SIZE
from repro.geometry.rect import Rect

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.rtree.node import Node

__all__ = ["Entry"]


class Entry:
    """A single slot of an R*-tree node."""

    __slots__ = ("rect", "child", "oid", "load", "payload")

    def __init__(
        self,
        rect: Rect,
        child: "Node | None" = None,
        oid: int | None = None,
        load: int = ENTRY_SIZE,
        payload: Any = None,
    ):
        self.rect = rect
        self.child = child
        self.oid = oid
        self.load = load
        self.payload = payload

    def __repr__(self) -> str:
        if self.child is None:
            return f"Entry(oid={self.oid}, rect={self.rect.as_tuple()})"
        return f"Entry(child=node#{self.child.node_id}, rect={self.rect.as_tuple()})"
