"""Request-based I/O pipeline: declarative access plans, pluggable
schedulers over a virtual clock, and prefetch policies.

This package is the seam between the :class:`~repro.buffer.pool.BufferPool`
and its consumers: read paths *declare* their page requests as an
:class:`AccessPlan` and submit it to the pool, whose
:class:`IOScheduler` decides how the device services them —
synchronously (``sync``, bit-identical to the historical imperative
pricing) or overlapped across disks and concurrent client sessions
(``overlap``, simulated asynchronous completion on a
:class:`VirtualClock`).  A :class:`Prefetcher` can ride along, reading
ahead of the coalescing scheduler's runs.

Layering (see README):

    organizations / R*-tree pager / spatial join   (emit AccessPlans)
        -> BufferPool.submit                        (residency, pricing)
            -> IOScheduler + Prefetcher             (this package)
                -> PageStore                        (DiskModel / sharded)
"""

from repro.iosched.admission import (
    ADMISSION_CLASSES,
    ADMISSIONS,
    AdmissionPolicy,
    PriorityAdmission,
    make_admission,
)
from repro.iosched.prefetch import (
    PREFETCHERS,
    ClusterPrefetcher,
    Prefetcher,
    SequentialPrefetcher,
    make_prefetcher,
)
from repro.iosched.request import AccessPlan, IORequest
from repro.iosched.scheduler import (
    SCHEDULERS,
    SYNC,
    IOScheduler,
    OverlapScheduler,
    SyncScheduler,
    VirtualClock,
    make_scheduler,
)

__all__ = [
    "AccessPlan",
    "IORequest",
    "IOScheduler",
    "SyncScheduler",
    "OverlapScheduler",
    "VirtualClock",
    "SCHEDULERS",
    "SYNC",
    "make_scheduler",
    "Prefetcher",
    "SequentialPrefetcher",
    "ClusterPrefetcher",
    "PREFETCHERS",
    "make_prefetcher",
    "AdmissionPolicy",
    "PriorityAdmission",
    "ADMISSIONS",
    "ADMISSION_CLASSES",
    "make_admission",
]
