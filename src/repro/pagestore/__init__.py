"""Page stores behind the buffer pool (Section 7).

A :class:`~repro.pagestore.store.PageStore` is the device layer the
:class:`~repro.buffer.pool.BufferPool` prices against.  Stores compose
as a tree (see :mod:`repro.pagestore.store`): the leaf is the
single-disk :class:`~repro.disk.model.DiskModel` itself, every inner
node a :class:`~repro.pagestore.store.CompositePageStore` that splits
requests over its ``children``, prices them with max-over-children
response time while preserving sum-of-device-time totals, and answers
for its whole subtree (``disks``, ``device_labels()``).  The
:class:`~repro.pagestore.store.ShardedPageStore` declusters the page
space across ``n_disks`` devices under a pluggable
:class:`~repro.pagestore.placement.PlacementPolicy` (``round_robin`` /
``hash`` / ``spatial`` Hilbert-on-extent); the
:class:`~repro.pagestore.tiered.TieredPageStore` trades *where a page
lives* between a fast and a capacity tier, each any store.  Wire them
in with ``SpatialDatabase(n_disks=4, placement="spatial")`` or
``SpatialDatabase(tiering="promote-on-hit")``.

The :class:`~repro.pagestore.file.FilePageStore` finally makes the
protocol durable: one pricing disk over an actual single-file page
image with per-page checksums and a crash-safe shadow-superblock
checkpoint (see :mod:`repro.pagestore.file`);
:class:`~repro.pagestore.faults.FaultyPageStore` injects deterministic
torn writes, kill points and bit flips to prove the recovery protocol.
"""

from repro.pagestore.faults import FaultyPageStore, SimulatedCrash, flip_byte
from repro.pagestore.file import FilePageStore, decode_page, encode_page
from repro.pagestore.placement import (
    DEFAULT_CHUNK_PAGES,
    PLACEMENTS,
    HashPlacement,
    PlacementPolicy,
    RoundRobinPlacement,
    SpatialPlacement,
    make_placement,
)
from repro.pagestore.store import (
    CompositePageStore,
    PageStore,
    ShardedPageStore,
    VectoredCost,
)
from repro.pagestore.tiered import (
    FAST_TIER_PARAMS,
    MIGRATIONS,
    TieredPageStore,
)

__all__ = [
    "PageStore",
    "CompositePageStore",
    "ShardedPageStore",
    "TieredPageStore",
    "FilePageStore",
    "FaultyPageStore",
    "SimulatedCrash",
    "flip_byte",
    "encode_page",
    "decode_page",
    "VectoredCost",
    "MIGRATIONS",
    "FAST_TIER_PARAMS",
    "PlacementPolicy",
    "RoundRobinPlacement",
    "HashPlacement",
    "SpatialPlacement",
    "PLACEMENTS",
    "DEFAULT_CHUNK_PAGES",
    "make_placement",
]
