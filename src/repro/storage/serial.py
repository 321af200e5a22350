"""Durable serialization of a :class:`~repro.database.SpatialDatabase`.

The simulator never materialises object payloads — it prices page
traffic — so what must survive a process exit is the *placement
catalog*: the allocator's region state, the R*-tree (nodes, entries,
page numbers, counters), every organization's extent tables, and, for
the cluster organization, the byte-level cluster-unit bookkeeping the
query techniques translate into page requests.  :func:`dump_state`
captures exactly that — plus the relation's
:class:`~repro.database.Layout` and the disk's timing constants — as
one JSON document; :func:`load_state` rebuilds a single-disk database
that answers every query with *identical results and identical priced
I/O* (after a head-position reset on both sides — the disk arm is
operational state, not catalog).

On disk the catalog rides the :class:`~repro.pagestore.file.
FilePageStore` checkpoint protocol: :func:`save_database` splits the
JSON into page-sized chunks committed as catalog ("meta") pages —
every page checksummed, the superblock published last — so a crash at
any write boundary leaves the previous epoch's catalog intact and
:func:`open_database` recovers it.  With ``materialize=True`` the save
also writes a filler payload for every *allocated* page of every
region, making the file a faithful page image of the simulated disk:
priced protocol reads of the reopened store then really ``pread`` (and
checksum-verify) those pages.

Format versioning is explicit (:data:`CATALOG_FORMAT`); readers reject
catalogs they do not understand rather than guessing.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import TYPE_CHECKING

from repro.core.organization import ClusterOrganization
from repro.core.unit import ClusterUnit
from repro.disk.allocator import PageAllocator, Region
from repro.disk.buddy import BuddyAllocator, FixedUnitAllocator
from repro.disk.extent import Extent
from repro.disk.model import DiskModel
from repro.disk.params import DiskParameters
from repro.errors import StorageError
from repro.geometry.feature import SpatialObject
from repro.geometry.polygon import Polygon
from repro.geometry.polyline import Polyline
from repro.geometry.rect import Rect
from repro.iosched.scheduler import SYNC
from repro.obs.metrics import MetricsRegistry
from repro.rtree.entry import Entry
from repro.rtree.node import Node
from repro.storage.primary import PrimaryOrganization
from repro.storage.secondary import SecondaryOrganization

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.database import SpatialDatabase
    from repro.pagestore.file import FilePageStore

__all__ = [
    "CATALOG_FORMAT",
    "dump_state",
    "load_state",
    "save_database",
    "open_database",
]

#: 2: the config block is ``asdict(layout)`` + name + disk constants.
CATALOG_FORMAT = 2


def _extent(extent: Extent | None) -> list[int] | None:
    return None if extent is None else [extent.start, extent.npages]


def _rect(rect: Rect) -> list[float]:
    return [rect.xmin, rect.ymin, rect.xmax, rect.ymax]


# ----------------------------------------------------------------------
# dump
# ----------------------------------------------------------------------
def dump_state(db: "SpatialDatabase") -> dict:
    """The database's full placement catalog as one JSON-ready dict.

    Floats round-trip exactly (``json`` emits ``repr``-precision
    float64), integer keys are stored as pair lists, and dict iteration
    orders that carry meaning (cluster-unit live maps, the object
    table) are preserved as lists.
    """
    org = db.storage
    # The configuration an image holds: the relation's layout (technique
    # as it stands) and the disk's timing constants — see ``load_state``.
    config = asdict(db.layout)
    config["name"] = db.name
    config["disk_params"] = asdict(db.disk.params)

    allocator = db.allocator
    regions = [
        {
            "name": region.name,
            "base": region.base,
            "capacity": region.capacity,
            "bump": region._bump,
            "free": [[e.start, e.npages] for e in region._free],
        }
        for region in allocator.regions().values()
    ]

    objects = []
    for obj in org.objects.values():
        geometry = obj.geometry
        kind = "line" if isinstance(geometry, Polyline) else "poly"
        objects.append(
            [
                obj.oid,
                kind,
                [list(v) for v in geometry.vertices],
                obj.size_bytes,
                _rect(obj.mbr_override) if obj.mbr_override is not None else None,
            ]
        )

    tree = org.tree
    nodes = []
    for node in tree.nodes():
        entries = [
            [
                _rect(e.rect),
                e.child.node_id if e.child is not None else None,
                e.oid,
                e.load,
                _extent(e.payload if isinstance(e.payload, Extent) else None),
            ]
            for e in node.entries
        ]
        nodes.append([node.node_id, node.level, node.page, entries])

    state: dict = {
        "format": CATALOG_FORMAT,
        "config": config,
        "allocator": {
            "region_capacity": allocator.region_capacity,
            "next_base": allocator._next_base,
            "regions": regions,
        },
        "objects": objects,
        "tree": {
            "root": tree.root.node_id,
            "next_node_id": tree._next_node_id,
            "size": tree.size,
            "height": tree.height,
            "leaf_count": tree.leaf_count,
            "splits": tree.splits,
            "leaf_splits": tree.leaf_splits,
            "reinserts": tree.reinserts,
            "nodes": nodes,
        },
    }

    if isinstance(org, SecondaryOrganization):
        state["storage"] = {
            "extents": [[oid, e.start, e.npages] for oid, e in org._extents.items()],
            "byte_tail": org._byte_tail,
        }
    elif isinstance(org, PrimaryOrganization):
        state["storage"] = {
            "overflow": [
                [oid, e.start, e.npages]
                for oid, e in org._overflow_extents.items()
            ],
        }
    elif isinstance(org, ClusterOrganization):
        units = []
        for leaf in tree.leaves():
            unit: ClusterUnit | None = leaf.tag
            if unit is None:
                continue
            units.append(
                [
                    leaf.node_id,
                    [unit.extent.start, unit.extent.npages],
                    unit.tail_bytes,
                    [[oid, off, size] for oid, (off, size) in unit.live.items()],
                ]
            )
        alloc = org._unit_alloc
        if isinstance(alloc, BuddyAllocator):
            unit_alloc: dict = {
                "kind": "buddy",
                "free": [sorted(starts) for starts in alloc._free],
                "live": [[start, level] for start, level in alloc._live.items()],
                "top": [[k, v] for k, v in alloc._top.items()],
                "moves": alloc.moves,
            }
        else:
            unit_alloc = {
                "kind": "fixed",
                "live": [[e.start, e.npages] for e in alloc._live.values()],
            }
        state["storage"] = {
            "total_object_bytes": org._total_object_bytes,
            "oversize": [[oid, e.start, e.npages] for oid, e in org._oversize.items()],
            "units": units,
            "unit_alloc": unit_alloc,
        }
    return state


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------
def load_state(
    state: dict,
    metrics: MetricsRegistry | None = None,
    _disk=None,
) -> "SpatialDatabase":
    """Rebuild a :class:`~repro.database.SpatialDatabase` from a
    :func:`dump_state` catalog.

    ``_disk`` optionally supplies the backing page store (the file
    itself, for measured I/O); by default a fresh simulated
    :class:`~repro.disk.model.DiskModel` with the dumped timing
    constants backs the database.  Either way the result is single-disk
    and ``sync``: a catalog holds no devices and no I/O path.
    """
    from repro.database import Layout, SpatialDatabase

    if state.get("format") != CATALOG_FORMAT:
        raise StorageError(
            f"unsupported catalog format {state.get('format')!r} "
            f"(this build reads format {CATALOG_FORMAT})"
        )
    layout = dict(state["config"])
    name = layout.pop("name")
    params = DiskParameters(**layout.pop("disk_params"))
    db = SpatialDatabase._from_parts(
        Layout(**layout),
        name,
        _disk if _disk is not None else DiskModel(params),
        PageAllocator(),
        SYNC,
        None,
        metrics if metrics is not None else MetricsRegistry(),
    )
    org = db.storage

    # Allocator: overwrite the fresh construction-time region state (the
    # empty tree claimed one page) with the dumped placement.  Region
    # creation order is deterministic for a given configuration, so the
    # bases already agree; restoring them anyway keeps the catalog
    # authoritative.
    allocator = db.allocator
    allocator.region_capacity = state["allocator"]["region_capacity"]
    allocator._next_base = state["allocator"]["next_base"]
    for spec in state["allocator"]["regions"]:
        region = allocator._regions.get(spec["name"])
        if region is None:
            region = Region(spec["name"], spec["base"], spec["capacity"])
            allocator._regions[spec["name"]] = region
        region.base = spec["base"]
        region.capacity = spec["capacity"]
        region._bump = spec["bump"]
        region._free = [Extent(s, n) for s, n in spec["free"]]

    # Object table (insertion order preserved).
    org.objects.clear()
    for oid, kind, vertices, size_bytes, override in state["objects"]:
        points = [tuple(v) for v in vertices]
        geometry = Polyline(points) if kind == "line" else Polygon(points)
        org.objects[oid] = SpatialObject(
            oid,
            geometry,
            size_bytes=size_bytes,
            mbr_override=Rect(*override) if override is not None else None,
        )

    # R*-tree: nodes first, then entries (children must exist to wire
    # parent pointers through Node.add).  Page numbers are restored
    # directly — the region bump above already accounts for them.
    tree = org.tree
    tdump = state["tree"]
    by_id: dict[int, Node] = {}
    for node_id, level, page, _entries in tdump["nodes"]:
        node = Node(node_id, level)
        node.page = page
        by_id[node_id] = node
    for node_id, _level, _page, entries in tdump["nodes"]:
        node = by_id[node_id]
        for rect4, child_id, oid, load, payload in entries:
            node.add(
                Entry(
                    Rect(*rect4),
                    child=by_id[child_id] if child_id is not None else None,
                    oid=oid,
                    load=load,
                    payload=Extent(*payload) if payload is not None else None,
                )
            )
    tree.root = by_id[tdump["root"]]
    tree._next_node_id = tdump["next_node_id"]
    tree.size = tdump["size"]
    tree.height = tdump["height"]
    tree.leaf_count = tdump["leaf_count"]
    tree.splits = tdump["splits"]
    tree.leaf_splits = tdump["leaf_splits"]
    tree.reinserts = tdump["reinserts"]
    tree._generation += 1
    tree._flat = None

    # Organization extras.
    extra = state.get("storage", {})
    if isinstance(org, SecondaryOrganization):
        org._extents = {oid: Extent(s, n) for oid, s, n in extra["extents"]}
        org._byte_tail = extra["byte_tail"]
    elif isinstance(org, PrimaryOrganization):
        org._overflow_extents = {
            oid: Extent(s, n) for oid, s, n in extra["overflow"]
        }
    elif isinstance(org, ClusterOrganization):
        org._total_object_bytes = extra["total_object_bytes"]
        org._oversize = {oid: Extent(s, n) for oid, s, n in extra["oversize"]}
        org._unit_of = {}
        for leaf_id, (start, npages), tail_bytes, live in extra["units"]:
            unit = ClusterUnit(Extent(start, npages), org.page_size)
            unit.tail_bytes = tail_bytes
            # Preservation of the live-map order matters: repack()
            # compacts objects in this order.
            unit.live = {oid: (off, size) for oid, off, size in live}
            unit.live_bytes = sum(size for _oid, _off, size in live)
            leaf = by_id[leaf_id]
            unit.owner = leaf
            leaf.tag = unit
            for oid in unit.live:
                org._unit_of[oid] = unit
        spec = extra["unit_alloc"]
        alloc = org._unit_alloc
        if spec["kind"] == "buddy":
            if not isinstance(alloc, BuddyAllocator):
                raise StorageError(
                    "catalog says buddy units but the configuration built "
                    "a fixed-unit allocator"
                )
            alloc._free = [set(starts) for starts in spec["free"]]
            alloc._live = {start: level for start, level in spec["live"]}
            alloc._top = {k: v for k, v in spec["top"]}
            alloc.moves = spec["moves"]
        else:
            if not isinstance(alloc, FixedUnitAllocator):
                raise StorageError(
                    "catalog says fixed units but the configuration built "
                    "a buddy allocator"
                )
            alloc._live = {s: Extent(s, n) for s, n in spec["live"]}

    org.finalize_build()
    return db


# ----------------------------------------------------------------------
# file round trip
# ----------------------------------------------------------------------
def save_database(
    db: "SpatialDatabase",
    path: str,
    materialize: bool = True,
    store: "FilePageStore | None" = None,
) -> int:
    """Checkpoint ``db`` into a file-backed page store at ``path``.

    Finalizes the database, writes the placement catalog as checksummed
    catalog pages, and (with ``materialize=True``) a filler payload for
    every allocated page of every region not already present — the
    file becomes a real page image of the simulated disk.  ``store``
    optionally supplies a ready (possibly fault-injecting) store; the
    caller then owns its lifecycle.  Saving onto an existing file is
    incremental: a new epoch on top of the committed one.  Returns the
    committed epoch.  Checkpoints are free in simulated time: the
    page writes that dirtied the database were priced when they
    happened.
    """
    from repro.pagestore.file import FilePageStore, payload_capacity

    db.finalize()
    state = dump_state(db)
    blob = json.dumps(state, separators=(",", ":")).encode("ascii")
    own_store = store is None
    if store is None:
        store = FilePageStore(
            path, page_size=db.storage.page_size, metrics=db.metrics
        )
    try:
        if materialize:
            for region in db.allocator.regions().values():
                freed = set()
                for extent in region._free:
                    freed.update(extent.pages())
                for page in range(region.base, region.base + region._bump):
                    if page not in freed and not store.contains(page):
                        store.put(page, b"page:%d" % page)
        capacity = payload_capacity(store.page_size)
        chunks = [blob[i:i + capacity] for i in range(0, len(blob), capacity)]
        return store.commit(
            meta={"kind": "spatialdb", "format": CATALOG_FORMAT},
            meta_payloads=chunks,
        )
    finally:
        if own_store:
            store.close()


def open_database(
    path: str,
    backing: str = "sim",
    page_size: int | None = None,
    metrics: MetricsRegistry | None = None,
) -> "SpatialDatabase":
    """Reopen a database saved with :func:`save_database`, recovering
    the last committed epoch.

    ``backing="sim"`` (default) rebuilds over a fresh simulated disk —
    answers match the database that was saved, pricing a single-disk
    ``sync`` database with its layout and disk constants (the image
    holds nothing else of the configuration; restoring a sharded tree
    needs placement pins in the catalog).
    ``backing="file"`` keeps the file store as the backing
    :class:`PageStore`: queries are priced by the same model *and*
    really ``pread`` + checksum-verify the mapped pages (the
    ``python -m repro.eval storage`` cross-validation path).
    ``page_size`` must be passed for images saved with a non-default
    page size (the checksum granularity needs it before the superblock
    can be read).
    """
    from repro.pagestore.file import FilePageStore

    if backing not in ("sim", "file"):
        raise StorageError(f"unknown backing '{backing}'; valid: sim, file")
    registry = metrics if metrics is not None else MetricsRegistry()
    store = FilePageStore(path, page_size=page_size, metrics=registry)
    try:
        payloads = store.read_meta_pages()
        if not payloads or store.meta.get("kind") != "spatialdb":
            raise StorageError(
                f"{path} holds no database catalog (epoch {store.epoch})"
            )
        state = json.loads(b"".join(payloads))
    except Exception:
        store.close()
        raise
    if backing == "sim":
        store.close()
        return load_state(state, metrics=registry)
    # The store's pricing model adopts the catalog's timing constants,
    # so simulated costs match the sim-backed twin exactly.
    store.model.params = DiskParameters(**state["config"]["disk_params"])
    return load_state(state, metrics=registry, _disk=store)
