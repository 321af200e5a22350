"""repro — a reproduction of Brinkhoff & Kriegel (VLDB 1994):
*The Impact of Global Clustering on Spatial Database Systems*.

The package implements the paper's **cluster organization** (an R*-tree
whose data pages map 1:1 onto bounded extents of physically consecutive
disk pages) together with every substrate its evaluation needs: a full
R*-tree, a three-component disk cost model, the secondary and primary
organization models, buddy-system storage management, the geometric
threshold / SLM / vector-read query techniques, the R*-tree spatial
join, and a synthetic TIGER-like data generator.

Quick start::

    from repro import SpatialDatabase

    db = SpatialDatabase(organization="cluster", avg_object_size=625)
    db.insert_polyline(1, [(0.0, 0.0), (5.0, 5.0), (10.0, 3.0)])
    db.finalize()
    result = db.window_query(0, 0, 20, 20)
    print(result.objects, result.io.total_ms)
"""

from repro.buffer import POLICIES, BufferPool, LRUBuffer
from repro.constants import (
    ENTRY_SIZE,
    LATENCY_TIME_MS,
    PAGE_CAPACITY,
    PAGE_SIZE,
    SEEK_TIME_MS,
    TRANSFER_TIME_MS,
)
from repro.core import ClusterOrganization, ClusterPolicy, ClusterUnit
from repro.database import ORGANIZATIONS, Layout, SpatialDatabase
from repro.disk import DiskModel, DiskParameters, DiskStats
from repro.errors import (
    AllocationError,
    ConfigurationError,
    DiskError,
    GeometryError,
    ObjectTooLargeError,
    ReproError,
    StorageError,
    TreeError,
)
from repro.geometry import Polyline, Rect, SpatialObject
from repro.iosched import (
    ADMISSIONS,
    PREFETCHERS,
    SCHEDULERS,
    AccessPlan,
    AdmissionPolicy,
    IOScheduler,
    OverlapScheduler,
    Prefetcher,
    PriorityAdmission,
    SyncScheduler,
    VirtualClock,
)
from repro.join import JoinResult, spatial_join
from repro.pagestore import (
    MIGRATIONS,
    PLACEMENTS,
    PageStore,
    ShardedPageStore,
    TieredPageStore,
    VectoredCost,
)
from repro.rtree import RStarTree
from repro.storage import (
    PrimaryOrganization,
    QueryResult,
    SecondaryOrganization,
)
from repro.workload import (
    RunReport,
    WorkloadEngine,
    load_trace,
    mixed_stream,
    save_trace,
)

__version__ = "1.0.0"

__all__ = [
    "SpatialDatabase",
    "Layout",
    "ORGANIZATIONS",
    "SpatialObject",
    "Rect",
    "Polyline",
    "RStarTree",
    "ClusterOrganization",
    "ClusterPolicy",
    "ClusterUnit",
    "SecondaryOrganization",
    "PrimaryOrganization",
    "QueryResult",
    "JoinResult",
    "spatial_join",
    "BufferPool",
    "LRUBuffer",
    "POLICIES",
    "WorkloadEngine",
    "RunReport",
    "mixed_stream",
    "save_trace",
    "load_trace",
    "AccessPlan",
    "IOScheduler",
    "SyncScheduler",
    "OverlapScheduler",
    "VirtualClock",
    "Prefetcher",
    "AdmissionPolicy",
    "PriorityAdmission",
    "SCHEDULERS",
    "PREFETCHERS",
    "ADMISSIONS",
    "PageStore",
    "ShardedPageStore",
    "TieredPageStore",
    "VectoredCost",
    "PLACEMENTS",
    "MIGRATIONS",
    "DiskModel",
    "DiskParameters",
    "DiskStats",
    "ReproError",
    "GeometryError",
    "DiskError",
    "AllocationError",
    "StorageError",
    "ObjectTooLargeError",
    "TreeError",
    "ConfigurationError",
    "PAGE_SIZE",
    "PAGE_CAPACITY",
    "ENTRY_SIZE",
    "SEEK_TIME_MS",
    "LATENCY_TIME_MS",
    "TRANSFER_TIME_MS",
    "__version__",
]
