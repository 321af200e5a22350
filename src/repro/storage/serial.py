"""Durable serialization of a :class:`~repro.database.SpatialDatabase`.

The simulator never materialises object payloads — it prices page
traffic — so what must survive a process exit is the *placement
catalog*: the allocator's region state, the R*-tree (nodes, entries,
page numbers, counters), the organization's one table of objects
stored on pages of their own, and, for the cluster organization, the
byte-level cluster-unit bookkeeping the query techniques translate into
page requests.  :func:`dump_state`
captures exactly that — plus the relation's
:class:`~repro.database.Layout` and the disk's timing constants;
:func:`load_state` rebuilds a single-disk database that answers every
query with *identical results and identical priced I/O* (after a
head-position reset on both sides — the disk arm is operational state,
not catalog).

The catalog's bytes (:func:`encode_catalog` / :func:`decode_catalog`,
format 3, everything little-endian)::

    "REPROCAT" | u64 header length | JSON header, space-padded to 8 B
    | the column buffers, back to back

The header carries what is small — ``format``, ``config``,
``allocator`` (regions and their free lists), ``tree`` (root and
counters), ``storage`` (the organization's scalars and unit allocator)
— and ``columns``: one ``[name, dtype, shape]`` row per buffer, in
order.  The buffers are the bulk tables, listed field by field at
:data:`COLUMNS`.  Only the header is parsed; a reader checks every
dtype, shape, count and cross-table reference — and, per column, what
:class:`~repro.geometry.feature.SpatialObject` would check per object —
before it builds anything, and whatever is off is a
:class:`~repro.errors.StorageError`.  Geometry is not materialised: a
reopened polyline or polygon is its slice of the ``vertices`` column,
and its vertex tuples are built on first scalar use.

On disk the catalog rides the :class:`~repro.pagestore.file.
FilePageStore` checkpoint protocol (store format 2: the superblock
lists catalog and page-map slots as ``[start, count]`` runs):
:func:`save_database` splits the bytes into page-sized chunks committed
as catalog ("meta") pages — every page checksummed, the superblock
published last — so a crash at any write boundary leaves the previous
epoch's catalog intact and :func:`open_database` recovers it.  The
save also writes a filler payload for every *allocated* page of every
region, making the file a faithful page image of the simulated disk:
priced protocol reads of the reopened store then really ``pread`` (and
checksum-verify) those pages.

Format versioning is explicit (:data:`CATALOG_FORMAT`); readers reject
catalogs they do not understand rather than guessing.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict
from itertools import accumulate, islice
from typing import TYPE_CHECKING

import numpy as np

from repro.core.organization import ClusterOrganization
from repro.core.unit import ClusterUnit
from repro.disk.allocator import PageAllocator, Region
from repro.disk.buddy import BuddyAllocator
from repro.disk.extent import Extent
from repro.disk.model import DiskModel
from repro.disk.params import DiskParameters
from repro.errors import StorageError
from repro.geometry.column import GeometryColumn
from repro.geometry.feature import SpatialObject
from repro.geometry.polygon import Polygon
from repro.geometry.polyline import Polyline
from repro.geometry.rect import Rect
from repro.geometry.sizes import OBJECT_HEADER_BYTES, VERTEX_BYTES
from repro.iosched.scheduler import SYNC
from repro.obs.metrics import MetricsRegistry
from repro.rtree.entry import Entry
from repro.rtree.node import Node, block_of

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.database import SpatialDatabase
    from repro.pagestore.file import FilePageStore

__all__ = [
    "CATALOG_FORMAT",
    "dump_state",
    "encode_catalog",
    "decode_catalog",
    "load_state",
    "save_database",
    "open_database",
]

#: 3: binary columns behind a JSON header (2: one JSON document).
CATALOG_FORMAT = 3
CATALOG_MAGIC = b"REPROCAT"
_PREFIX = struct.Struct("<8sQ")  # magic, header length

#: The bulk tables, each an ``(n, width)`` matrix: name -> (dtype,
#: width).  ``-1`` stands for "none"; the last field of ``objects``,
#: ``nodes`` and ``units`` counts that row's rows of the next table.
COLUMNS = {
    "objects": ("<i8", 4),  # oid, kind (0 polyline, 1 polygon), size_bytes, vertices
    "vertices": ("<f8", 2),  # x, y: object after object
    "override_rows": ("<i8", 1),  # the rows of ``objects`` with an mbr_override
    "override_rects": ("<f8", 4),  # xmin, ymin, xmax, ymax
    "nodes": ("<i8", 4),  # node_id, level, page, entries; pre-order
    "entries": ("<i8", 5),  # child node_id, oid, load, payload start, npages
    "entry_rects": ("<f8", 4),
    "extents": ("<i8", 3),  # oid, start, npages: SpatialOrganization._extents
    "units": ("<i8", 5),  # leaf node_id, start, npages, tail_bytes, live rows
    "live": ("<i8", 3),  # oid, offset, size: unit after unit, live-map order
}

#: (table, the table whose rows its last field counts)
_COUNTED = (("objects", "vertices"), ("nodes", "entries"), ("units", "live"))
_TREE_SCALARS = (
    "_next_node_id size height leaf_count splits leaf_splits reinserts".split()
)


# ----------------------------------------------------------------------
# dump
# ----------------------------------------------------------------------
def dump_state(db: "SpatialDatabase") -> dict:
    """The database's full placement catalog: JSON-ready scalar blocks
    plus, under ``"columns"``, the :data:`COLUMNS` matrices.  Vertices
    and entry rectangles are the geometries' and nodes' cached float64
    matrices, so they round-trip exactly; dict orders that carry meaning
    (cluster-unit live maps, the object table) are the row orders.
    """
    org, allocator = db.storage, db.allocator
    tree = org.tree
    storage: dict = {attr: getattr(org, attr) for attr in org._catalog_scalars}
    rows: dict = {name: [] for name in COLUMNS}
    rows["extents"] = [(oid, e.start, e.npages) for oid, e in org._extents.items()]

    # The geometry column's live rows are the object table, in order.
    column = org.column
    live = column.live()
    index, _ends = column.vertex_index(live)
    rows["vertices"] = column.vertices.take(index, axis=0)
    oids = column.oids[live]
    rows["objects"] = np.column_stack(
        (oids, ~column.lines[live], column.sizes[live], column.counts[live])
    )
    rows["override_rows"] = np.flatnonzero(~column.tight[live])
    rows["override_rects"] = [
        org.objects[oid].mbr_override.as_tuple()
        for oid in oids[rows["override_rows"]].tolist()
    ]

    for node in tree.nodes():
        page = node.page if node.page is not None else -1
        rows["nodes"].append((node.node_id, node.level, page, len(node.entries)))
        rows["entry_rects"].append(node.rect_matrix())
        for e in node.entries:
            child = e.child.node_id if e.child is not None else -1
            oid = e.oid if e.oid is not None else -1
            p = e.payload
            extent = (p.start, p.npages) if isinstance(p, Extent) else (-1, -1)
            rows["entries"].append((child, oid, e.load, *extent))
    if rows["entry_rects"]:  # one block per node so far
        rows["entry_rects"] = np.concatenate(rows["entry_rects"])

    if isinstance(org, ClusterOrganization):
        for leaf in tree.leaves():
            unit: ClusterUnit | None = leaf.tag
            if unit is not None:
                extent = (unit.extent.start, unit.extent.npages)
                rows["units"].append(
                    (leaf.node_id, *extent, unit.tail_bytes, len(unit.live))
                )
                rows["live"] += [(o, off, size) for o, (off, size) in unit.live.items()]
        alloc = org._unit_alloc
        if isinstance(alloc, BuddyAllocator):
            storage["unit_alloc"] = {
                "kind": "buddy",
                "free": [sorted(starts) for starts in alloc._free],
                "live": list(alloc._live.items()),
                "top": list(alloc._top.items()),
                "moves": alloc.moves,
            }
        else:
            live_units = [(e.start, e.npages) for e in alloc._live.values()]
            storage["unit_alloc"] = {"kind": "fixed", "live": live_units}

    regions = [  # name, base, capacity, bump pointer, free list
        (r.name, r.base, r.capacity, r._bump, [(e.start, e.npages) for e in r._free])
        for r in allocator.regions().values()
    ]
    return {
        "format": CATALOG_FORMAT,
        # The configuration an image holds: the relation's layout
        # (technique as it stands) and the disk's timing constants.
        "config": dict(
            asdict(db.layout), name=db.name, disk_params=asdict(db.disk.params)
        ),
        "allocator": {
            "region_capacity": allocator.region_capacity,
            "next_base": allocator._next_base,
            "regions": regions,
        },
        "tree": {
            "root": tree.root.node_id,
            **{attr: getattr(tree, attr) for attr in _TREE_SCALARS},
        },
        "storage": storage,
        "columns": {
            name: np.ascontiguousarray(rows[name], dtype).reshape(-1, width)
            for name, (dtype, width) in COLUMNS.items()
        },
    }


def encode_catalog(state: dict) -> bytes:
    """A :func:`dump_state` catalog as bytes (layout: module docstring)."""
    columns = state["columns"]
    header = dict(
        state,
        columns=[[name, c.dtype.str, list(c.shape)] for name, c in columns.items()],
    )
    head = json.dumps(header, separators=(",", ":")).encode("ascii")
    head += b" " * (-len(head) % 8)
    return b"".join(
        [_PREFIX.pack(CATALOG_MAGIC, len(head)), head, *columns.values()]
    )


def decode_catalog(blob: bytes) -> dict:
    """Invert :func:`encode_catalog`; the columns come back as read-only
    views of ``blob``.  Anything but a header followed by exactly the
    buffers it declares is a :class:`StorageError`."""
    magic, head_len = _PREFIX.unpack_from(blob.ljust(_PREFIX.size, b"\0"))
    if magic != CATALOG_MAGIC:
        raise StorageError(f"not a catalog: bad magic {magic!r}")
    offset = _PREFIX.size + head_len
    try:
        state = json.loads(blob[_PREFIX.size:offset])
        declared = [(n, dtype, tuple(shape)) for n, dtype, shape in state["columns"]]
    except (ValueError, TypeError, KeyError) as exc:
        raise StorageError(f"damaged catalog header: {exc}") from None
    state["columns"] = columns = {}
    for name, dtype, shape in declared:
        if dtype not in ("<i8", "<f8") or not all(
            type(n) is int and n >= 0 for n in shape
        ):
            raise StorageError(f"catalog column {name!r}: bad {dtype!r} {shape}")
        count = math.prod(shape)
        if offset + 8 * count > len(blob):
            raise StorageError(f"catalog column {name!r} runs past the end")
        columns[name] = np.frombuffer(blob, dtype, count, offset).reshape(shape)
        offset += 8 * count
    if offset != len(blob):
        raise StorageError(f"{len(blob) - offset} stray bytes after the catalog")
    return state


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------
def _checked_columns(state: dict) -> dict[str, np.ndarray]:
    """The bulk tables of a catalog, with every dtype, width, row count
    and cross-table reference checked — and, column-wise, what
    :class:`~repro.geometry.feature.SpatialObject` checks per object:
    a non-negative oid (every object is a tree entry's, and those are
    ``>= 0``), a size of at least the footprint and an ``mbr_override``
    that contains the tight MBR of its row's vertex slice."""
    if state.get("format") != CATALOG_FORMAT:
        raise StorageError(
            f"unsupported catalog format {state.get('format')!r} "
            f"(this build reads format {CATALOG_FORMAT})"
        )
    columns = state["columns"]
    for name, (dtype, width) in COLUMNS.items():
        c = columns.get(name)
        if getattr(c, "dtype", None) != np.dtype(dtype) or c.shape[1:] != (width,):
            raise StorageError(f"catalog column {name!r} is not (n, {width}) {dtype}")
    for table, counted in _COUNTED:
        counts = columns[table][:, -1]
        if counts.min(initial=0) < 0 or counts.sum() != len(columns[counted]):
            raise StorageError(
                f"{table!r} counts {counts.sum()} rows of {counted!r}, "
                f"which has {len(columns[counted])}"
            )
    objects, nodes, entries = columns["objects"], columns["nodes"], columns["entries"]
    children, oids, live_oids = entries[:, 0], entries[:, 1], columns["live"][:, 0]
    root, override_rows = [state["tree"]["root"]], columns["override_rows"]
    node_refs = np.concatenate((children[children >= 0], columns["units"][:, 0], root))
    if (
        len(entries) != len(columns["entry_rects"])
        or len(override_rows) != len(columns["override_rects"])
        or ((override_rows < 0) | (override_rows >= len(objects))).any()
        or not np.isin(objects[:, 1], (0, 1)).all()
        or (objects[:, 3] < 2 + objects[:, 1]).any()  # a line has 2, a ring 3
        or len(np.unique(nodes[:, 0])) != len(nodes)
        or not np.isin(node_refs, nodes[:, 0]).all()
        or len(np.unique(objects[:, 0])) != len(objects)
        or len(np.unique(live_oids)) != len(live_oids)
        or not np.array_equal(np.sort(oids[oids >= 0]), np.sort(objects[:, 0]))
        or not np.isin(columns["extents"][:, 0], objects[:, 0]).all()
        or (objects[:, 2] < OBJECT_HEADER_BYTES + VERTEX_BYTES * objects[:, 3]).any()
        or not _overrides_contain_their_geometry(columns)
    ):
        raise StorageError("the catalog's tables contradict each other")
    return columns


def _overrides_contain_their_geometry(columns: dict[str, np.ndarray]) -> bool:
    """Does every ``override_rects`` row contain the tight MBR of its
    object's vertex slice?  Only the override rows' vertices are read:
    gathered into one matrix, reduced per object by ``reduceat``."""
    rows = columns["override_rows"][:, 0]
    if not len(rows):
        return True
    counts = columns["objects"][:, 3]
    n = counts[rows]
    starts = (np.cumsum(counts) - counts)[rows]
    local = np.cumsum(n) - n  # each object's first row in ``points``
    points = columns["vertices"][np.repeat(starts - local, n) + np.arange(n.sum())]
    rects = columns["override_rects"]
    return bool(
        (rects[:, :2] <= np.minimum.reduceat(points, local)).all()
        and (np.maximum.reduceat(points, local) <= rects[:, 2:]).all()
    )


def load_state(
    state: dict,
    metrics: MetricsRegistry | None = None,
    _disk=None,
) -> "SpatialDatabase":
    """Rebuild a :class:`~repro.database.SpatialDatabase` from a
    :func:`dump_state` catalog.

    Geometry is not materialised: each object's geometry is a view of
    the ``vertices`` column (:meth:`Polyline.from_matrix` /
    :meth:`Polygon.from_matrix`), its vertex tuples built on first
    scalar use, and each object comes from the trusted
    :meth:`SpatialObject.trusted` — :func:`_checked_columns` has
    already checked, per column, what the validating constructor
    checks per object.  What a reopen still builds per row is the
    tree's ``Node`` / ``Entry`` / ``Rect`` objects and the
    organization's tables.

    ``_disk`` optionally supplies the backing page store (the file
    itself, for measured I/O); by default a fresh simulated
    :class:`~repro.disk.model.DiskModel` with the dumped timing
    constants backs the database.  Either way the result is single-disk
    and ``sync``: a catalog holds no devices and no I/O path.
    """
    from repro.database import Layout, SpatialDatabase

    columns = _checked_columns(state)
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
    for rname, base, capacity, bump, free in state["allocator"]["regions"]:
        region = allocator._regions.setdefault(rname, Region(rname, base, capacity))
        region.base, region.capacity, region._bump = base, capacity, bump
        region._free = [Extent(s, n) for s, n in free]

    # Object table (insertion order preserved); each geometry is its
    # slice of the vertex column, checked above with its object.  Tables
    # are read column by column (``.T.tolist()``): a list per field, not
    # a list per row for the garbage collector to walk.
    vertices = columns["vertices"]
    oids, kinds, sizes, counts = columns["objects"].T.tolist()
    overrides: list[Rect | None] = [None] * len(oids)
    for row, rect in zip(
        columns["override_rows"][:, 0].tolist(),
        map(Rect, *columns["override_rects"].T.tolist()),
    ):
        overrides[row] = rect
    shapes = (Polyline.from_matrix, Polygon.from_matrix)
    trusted = SpatialObject.trusted
    org.objects.clear()
    objects = org.objects
    for oid, kind, size_bytes, n, end, override in zip(
        oids, kinds, sizes, counts, accumulate(counts), overrides
    ):
        geometry = shapes[kind](vertices[end - n:end])
        objects[oid] = trusted(oid, geometry, size_bytes, override)
    org._column = GeometryColumn.adopt(
        columns["objects"], vertices, columns["override_rows"][:, 0]
    )

    # R*-tree: nodes first, then entries (children must exist to wire
    # parent pointers through Node.replace_entries).  Page numbers are
    # restored directly — the region bump above already accounts for them.
    tree = org.tree
    node_rows = columns["nodes"].tolist()
    by_id: dict[int, Node] = {}
    for node_id, level, page, _count in node_rows:
        node = by_id[node_id] = Node(node_id, level)
        node.page = page if page >= 0 else None
    # A data entry's row is its object's row of the ``objects`` table.
    entry_oids, table_oids = columns["entries"][:, 1], columns["objects"][:, 0]
    by_oid = np.argsort(table_oids)
    rows = by_oid.take(table_oids.searchsorted(entry_oids, sorter=by_oid), mode="clip")
    entry_rows = zip(
        map(Rect, *columns["entry_rects"].T.tolist()),
        *columns["entries"].T.tolist(),
        np.where(entry_oids >= 0, rows, -1).tolist(),
    )
    # Every node's block is its slice of one block over the column.
    blocks, offset = block_of(columns["entry_rects"]), 0
    for node_id, _level, _page, count in node_rows:
        entries = []
        for rect, child, oid, load, start, npages, row in islice(entry_rows, count):
            child = by_id[child] if child >= 0 else None
            oid = oid if oid >= 0 else None
            payload = Extent(start, npages) if npages >= 0 else None
            entries.append(Entry(rect, child, oid, load, payload, row))
        block = tuple(rows[offset : offset + count] for rows in blocks)
        by_id[node_id].replace_entries(entries, block)
        offset += count
    tree.root = by_id[state["tree"]["root"]]
    for attr in _TREE_SCALARS:
        setattr(tree, attr, state["tree"][attr])
    tree._generation += 1
    tree._flat = None

    # Organization extras.
    extra = state["storage"]
    org._extents = {
        oid: Extent(s, n) for oid, s, n in zip(*columns["extents"].T.tolist())
    }
    for attr in org._catalog_scalars:
        setattr(org, attr, extra[attr])
    if isinstance(org, ClusterOrganization):
        org._unit_of = {}
        live_rows = zip(*columns["live"].T.tolist())
        for leaf_id, start, npages, tail_bytes, count in columns["units"].tolist():
            unit = ClusterUnit(Extent(start, npages), org.page_size)
            unit.tail_bytes = tail_bytes
            # Preservation of the live-map order matters: repack()
            # compacts objects in this order.
            unit.live = {o: (off, size) for o, off, size in islice(live_rows, count)}
            unit.live_bytes = sum(size for _off, size in unit.live.values())
            unit.owner = by_id[leaf_id]
            unit.owner.tag = unit
            org._unit_of.update(dict.fromkeys(unit.live, unit))
        spec = extra["unit_alloc"]
        alloc = org._unit_alloc
        if isinstance(alloc, BuddyAllocator) != (spec["kind"] == "buddy"):
            raise StorageError(
                f"catalog says {spec['kind']} units but the configuration "
                f"built a {type(alloc).__name__}"
            )
        if spec["kind"] == "buddy":
            alloc._free = [set(starts) for starts in spec["free"]]
            alloc._live = {start: level for start, level in spec["live"]}
            alloc._top = {k: v for k, v in spec["top"]}
            alloc.moves = spec["moves"]
        else:
            alloc._live = {s: Extent(s, n) for s, n in spec["live"]}

    org.finalize_build()
    return db


# ----------------------------------------------------------------------
# file round trip
# ----------------------------------------------------------------------
def save_database(
    db: "SpatialDatabase",
    path: str,
    store: "FilePageStore | None" = None,
) -> int:
    """Checkpoint ``db`` into a file-backed page store at ``path``.

    Finalizes the database, writes the placement catalog as checksummed
    catalog pages, and a filler payload for every allocated page of
    every region not already present — the file becomes a real page
    image of the simulated disk.  ``store``
    optionally supplies a ready (possibly fault-injecting) store; the
    caller then owns its lifecycle.  Saving onto an existing file is
    incremental: a new epoch on top of the committed one.  Returns the
    committed epoch.  Checkpoints are free in simulated time: the
    page writes that dirtied the database were priced when they
    happened.
    """
    from repro.pagestore.file import FilePageStore, payload_capacity

    db.finalize()
    blob = encode_catalog(dump_state(db))
    own_store = store is None
    if store is None:
        store = FilePageStore(
            path, page_size=db.storage.page_size, metrics=db.metrics
        )
    try:
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
        state = decode_catalog(b"".join(payloads))
        if backing == "file":
            # The store's pricing model adopts the catalog's timing
            # constants: simulated costs match the sim-backed twin exactly.
            store.model.params = DiskParameters(**state["config"]["disk_params"])
            return load_state(state, metrics=registry, _disk=store)
    except BaseException:
        store.close()
        raise
    store.close()
    return load_state(state, metrics=registry)
