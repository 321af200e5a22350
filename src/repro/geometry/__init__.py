"""Geometric substrate: rectangles, polylines, polygons, exact predicates.

This package provides everything the spatial access methods and query
processors need: MBR algebra for the R*-tree heuristics, exact
intersection predicates for the refinement step, and the byte-size model
tying geometry to storage footprints.
"""

from repro.geometry.decomposed import ExactTestCounter
from repro.geometry.feature import Geometry, SpatialObject
from repro.geometry.intersect import (
    point_in_polygon,
    polyline_intersects_rect,
    polylines_intersect,
    segment_intersects_rect,
    segments_intersect,
)
from repro.geometry.polygon import Polygon
from repro.geometry.polyline import Polyline
from repro.geometry.rect import EMPTY_RECT, Rect
from repro.geometry.sizes import (
    OBJECT_HEADER_BYTES,
    VERTEX_BYTES,
    polyline_size_bytes,
    vertices_for_size,
)

__all__ = [
    "Rect",
    "EMPTY_RECT",
    "Polyline",
    "Polygon",
    "SpatialObject",
    "Geometry",
    "ExactTestCounter",
    "segments_intersect",
    "segment_intersects_rect",
    "point_in_polygon",
    "polyline_intersects_rect",
    "polylines_intersect",
    "polyline_size_bytes",
    "vertices_for_size",
    "OBJECT_HEADER_BYTES",
    "VERTEX_BYTES",
]
