"""Geometric substrate: rectangles, polylines, exact predicates.

This package provides everything the spatial access methods and query
processors need: MBR algebra for the R*-tree heuristics, exact
intersection predicates for the refinement step, and the byte-size model
tying geometry to storage footprints.  Every stored geometry is a
:class:`Polyline` — TIGER maps are line data, and a border is kept as a
polyline, as topological models keep border lines — so every exact
predicate is a polyline predicate.
"""

from repro.geometry.decomposed import ExactTestCounter
from repro.geometry.feature import Geometry, SpatialObject
from repro.geometry.intersect import (
    polyline_intersects_rect,
    polylines_intersect,
    segment_intersects_rect,
    segments_intersect,
)
from repro.geometry.polyline import Polyline
from repro.geometry.rect import EMPTY_RECT, Rect
from repro.geometry.sizes import (
    OBJECT_HEADER_BYTES,
    VERTEX_BYTES,
    polyline_size_bytes,
)

__all__ = [
    "Rect",
    "EMPTY_RECT",
    "Polyline",
    "SpatialObject",
    "Geometry",
    "ExactTestCounter",
    "segments_intersect",
    "segment_intersects_rect",
    "polyline_intersects_rect",
    "polylines_intersect",
    "polyline_size_bytes",
    "OBJECT_HEADER_BYTES",
    "VERTEX_BYTES",
]
