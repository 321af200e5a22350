"""Spatial objects (features): identity + geometry + storage footprint.

A :class:`SpatialObject` is the unit everything else operates on: the
data generator produces them, the organization models store them, the
queries and joins return them.  The ``size_bytes`` attribute may exceed
the geometric payload — TIGER records carry names, codes and topology —
so the object size is an independent attribute validated to be at least
the geometry's own footprint.  The catalog loader, which checks that
footprint and every ``mbr_override`` column-wise before it builds
anything, uses the trusted constructor :meth:`SpatialObject.trusted`.
"""

from __future__ import annotations

from repro.errors import GeometryError
from repro.geometry.polyline import Polyline
from repro.geometry.rect import Rect

__all__ = ["SpatialObject", "Geometry"]

#: The one geometry kind: TIGER maps are line data, and a border is a
#: polyline, as topological models keep border lines.
Geometry = Polyline


class SpatialObject:
    """A stored spatial object.

    Parameters
    ----------
    oid:
        Unique non-negative integer identifier within its map.
    geometry:
        The exact representation, a :class:`Polyline`.
    size_bytes:
        Total exact-representation size; defaults to the geometry's own
        footprint.  Attribute payload (names, codes) may make it larger.
    mbr_override:
        Optional replacement MBR used as the spatial key instead of the
        geometry's tight bounding box.  Section 6.1 derives its join test
        versions *a* and *b* "by using MBRs with different extensions";
        the override reproduces exactly that without touching the
        geometry.

    The constructor validates: a non-negative ``oid``, a ``size_bytes``
    of at least the geometry's footprint, and an ``mbr_override`` that
    contains the geometry's MBR.
    """

    __slots__ = ("oid", "geometry", "size_bytes", "mbr_override")

    def __init__(
        self,
        oid: int,
        geometry: Geometry,
        size_bytes: int | None = None,
        mbr_override: Rect | None = None,
    ):
        if oid < 0:
            raise GeometryError(f"object id must be non-negative, got {oid}")
        geometric = geometry.size_bytes()
        if size_bytes is None:
            size_bytes = geometric
        elif size_bytes < geometric:
            raise GeometryError(
                f"declared size {size_bytes} B is smaller than the geometry "
                f"footprint {geometric} B"
            )
        if mbr_override is not None and not mbr_override.contains(geometry.mbr):
            raise GeometryError("mbr_override must contain the geometry's MBR")
        self.oid = oid
        self.geometry = geometry
        self.size_bytes = int(size_bytes)
        self.mbr_override = mbr_override

    @classmethod
    def trusted(
        cls,
        oid: int,
        geometry: Geometry,
        size_bytes: int,
        mbr_override: Rect | None,
    ) -> "SpatialObject":
        """Trusted constructor (the catalog loader's, as
        :meth:`Polyline.from_matrix` is for geometry): no per-object
        check, so the geometry's MBR and tuples are not built.  The
        caller has checked what :meth:`__init__` would —
        :func:`repro.storage.serial._checked_columns` does it for a
        whole catalog at once."""
        self = cls.__new__(cls)
        self.oid = oid
        self.geometry = geometry
        self.size_bytes = size_bytes
        self.mbr_override = mbr_override
        return self

    # ------------------------------------------------------------------
    @property
    def mbr(self) -> Rect:
        """The spatial key: the override when present, else the tight
        bounding box of the geometry."""
        if self.mbr_override is not None:
            return self.mbr_override
        return self.geometry.mbr

    # exact predicates delegate to the geometry --------------------------------
    def contains_point(self, x: float, y: float) -> bool:
        return self.geometry.contains_point(x, y)

    def intersects_rect(self, rect: Rect) -> bool:
        return self.geometry.intersects_rect(rect)

    def intersects(self, other: "SpatialObject") -> bool:
        return self.geometry.intersects(other.geometry)

    def __repr__(self) -> str:
        return (
            f"SpatialObject(oid={self.oid}, size={self.size_bytes}B, "
            f"mbr={self.mbr.as_tuple()})"
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SpatialObject) and other.oid == self.oid

    def __hash__(self) -> int:
        return hash(self.oid)
