"""Buffer management: the shared buffer pool and its replacement policies.

This package is the single point every layer's page traffic flows
through:

* :class:`~repro.buffer.pool.BufferPool` owns page residency, deferred
  dirty-page write-back and I/O pricing against the
  :class:`~repro.disk.model.DiskModel`, plus a read-coalescing
  scheduler that merges adjacent page requests into single vectored
  transfers.  The R*-tree :class:`~repro.rtree.pager.NodePager`, the
  three organization models and the spatial join all read through one
  pool, which is what makes shared caching (Section 6.1's joint
  tree/object buffer) and batched workloads possible.
* :mod:`~repro.buffer.policy` defines the pluggable
  :class:`~repro.buffer.policy.ReplacementPolicy` protocol with four
  implementations — ``lru``, ``fifo``, ``clock`` and ``lru-k`` —
  selectable wherever a ``policy=`` argument appears
  (:class:`~repro.buffer.policy.LRUBuffer` is the paper's Section 6.1
  join buffer).

The pool is also the designated integration point for future backends:
an async or sharded page server only needs to stand behind the
``BufferPool`` read/write surface — consumers never touch the disk
model directly.
"""

from repro.buffer.policy import (
    POLICIES,
    ClockBuffer,
    FIFOBuffer,
    LRUBuffer,
    LRUKBuffer,
    ReplacementPolicy,
    make_buffer,
)
from repro.buffer.pool import BufferPool, coalesce_pages

__all__ = [
    "LRUBuffer",
    "FIFOBuffer",
    "ClockBuffer",
    "LRUKBuffer",
    "ReplacementPolicy",
    "POLICIES",
    "make_buffer",
    "BufferPool",
    "coalesce_pages",
]
