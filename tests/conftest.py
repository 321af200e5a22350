"""Shared fixtures: small deterministic datasets and organizations."""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import settings

from repro.buffer.pool import BufferPool
from repro.core.policy import ClusterPolicy
from repro.core.organization import ClusterOrganization
from repro.geometry.feature import SpatialObject
from repro.geometry.polyline import Polyline
from repro.geometry.rect import Rect
from repro.iosched.request import AccessPlan
from repro.iosched.scheduler import SYNC
from repro.rtree.pager import NodePager
from repro.storage.primary import PrimaryOrganization
from repro.storage.secondary import SecondaryOrganization

# ``HYPOTHESIS_PROFILE=deep`` runs every property at ten times
# hypothesis's default 100 examples (CI's non-blocking deep step);
# unset, the default profile stands.  A constant: test modules import
# this file again as ``tests.conftest``.
settings.register_profile("deep", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def make_objects(
    n: int = 300,
    seed: int = 13,
    space: float = 10_000.0,
    size_range: tuple[int, int] = (200, 2000),
) -> list[SpatialObject]:
    """Deterministic small object population: short random polylines with
    varying byte sizes, clustered in a few blobs plus uniform noise."""
    rng = random.Random(seed)
    centers = [(rng.uniform(0, space), rng.uniform(0, space)) for _ in range(5)]
    objects = []
    for oid in range(n):
        if rng.random() < 0.7:
            cx, cy = centers[rng.randrange(len(centers))]
            x = rng.gauss(cx, space * 0.03)
            y = rng.gauss(cy, space * 0.03)
        else:
            x, y = rng.uniform(0, space), rng.uniform(0, space)
        x = min(max(x, 0.0), space)
        y = min(max(y, 0.0), space)
        pts = [(x, y)]
        for _ in range(rng.randrange(2, 6)):
            x = min(max(x + rng.uniform(-40, 40), 0.0), space)
            y = min(max(y + rng.uniform(-40, 40), 0.0), space)
            pts.append((x, y))
        size = rng.randrange(*size_range)
        objects.append(SpatialObject(oid, Polyline(pts), size_bytes=max(size, 200)))
    return objects


@pytest.fixture(scope="session")
def objects300() -> list[SpatialObject]:
    return make_objects(300)


def build_org(
    kind: str,
    objects,
    smax_bytes: int = 16 * 4096,
    buddy_sizes: int | None = None,
    order: str = "insertion",
    **kwargs,
):
    """Build one organization over the given objects."""
    if kind == "secondary":
        org = SecondaryOrganization(**kwargs)
    elif kind == "primary":
        org = PrimaryOrganization(**kwargs)
    elif kind == "cluster":
        org = ClusterOrganization(
            policy=ClusterPolicy(smax_bytes, buddy_sizes=buddy_sizes), **kwargs
        )
    else:
        raise ValueError(kind)
    org.build(list(objects), order=order)
    return org


@pytest.fixture(scope="session")
def secondary300(objects300):
    return build_org("secondary", objects300)


@pytest.fixture(scope="session")
def primary300(objects300):
    return build_org("primary", objects300)


@pytest.fixture(scope="session")
def cluster300(objects300):
    return build_org("cluster", objects300)


def run_plan(builder, disk, unit, *args) -> list[tuple[int, int]]:
    """Build one technique's plan with its ``plan_*`` builder and run it
    at once: through a pool's own scheduler, or, against a raw disk
    model, priced directly by the stateless sync scheduler.  Returns
    the runs the builder scheduled."""
    plan = AccessPlan(builder.__name__)
    runs = builder(plan, unit, *args)
    if isinstance(disk, BufferPool):
        disk.submit(plan)
    else:
        SYNC.execute(plan, disk)
    return runs


def brute_force_window(objects, rect: Rect) -> set[int]:
    """Reference filter+refinement window query."""
    return {
        o.oid
        for o in objects
        if o.mbr.intersects(rect) and o.intersects_rect(rect)
    }


def brute_force_candidates(objects, rect: Rect) -> set[int]:
    """Reference filter-only candidates."""
    return {o.oid for o in objects if o.mbr.intersects(rect)}


def batch_entries(tree, rects) -> list[list]:
    """Per query, the hit entries of the tree's batch form in group
    order — comparable with ``tree.window_query(rect)``."""
    return [
        [leaf.entries[i] for leaf, hits in groups for i in hits.tolist()]
        for groups in tree._reach(rects).groups()
    ]


class ReadSpy:
    """While entered, records the page of every node handed to
    ``NodePager.read`` or ``NodePager.plan_reads`` — the two ways a node
    visit gets priced — in call order (all pagers; directory nodes
    included, the pager decides afterwards what is free)."""

    def __enter__(self) -> "ReadSpy":
        self.pages: list[int] = []
        self._originals = read, plan_reads = NodePager.read, NodePager.plan_reads

        def spy_read(pager, node):
            if node.page is not None:
                self.pages.append(node.page)
            return read(pager, node)

        def spy_plan_reads(pager, nodes, plan):
            self.pages.extend(n.page for n in nodes if n.page is not None)
            return plan_reads(pager, nodes, plan)

        NodePager.read, NodePager.plan_reads = spy_read, spy_plan_reads
        return self

    def __exit__(self, *exc) -> None:
        NodePager.read, NodePager.plan_reads = self._originals


def overlaps(a, b) -> bool:
    """Whether two extents share a page (the allocators' invariant)."""
    return a.start < b.end and b.start < a.end


def allocated_pages(region) -> int:
    """Pages a region handed out and has not got back."""
    return region._bump - sum(extent.npages for extent in region._free)
