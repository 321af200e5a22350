"""Byte-size model for exact object representations.

The paper characterises objects by their storage footprint (Table 1:
average sizes of 625 B to 3113 B) rather than by vertex counts.  We use a
simple, explicit model that turns a vertex count into a byte size:

``size = OBJECT_HEADER_BYTES + VERTEX_BYTES * n_vertices``

with 16 bytes per vertex (two IEEE 754 doubles) plus a fixed header for
object id, type tag and vertex count.
"""

from __future__ import annotations

__all__ = [
    "OBJECT_HEADER_BYTES",
    "VERTEX_BYTES",
    "polyline_size_bytes",
]

OBJECT_HEADER_BYTES: int = 32
"""Fixed per-object overhead (id, type tag, vertex count, padding)."""

VERTEX_BYTES: int = 16
"""Two 8-byte doubles per vertex."""


def polyline_size_bytes(n_vertices: int) -> int:
    """Exact-representation size in bytes of an object with ``n_vertices``."""
    if n_vertices < 1:
        raise ValueError(f"an object needs at least one vertex, got {n_vertices}")
    return OBJECT_HEADER_BYTES + VERTEX_BYTES * n_vertices
