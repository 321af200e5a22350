"""The one query pipeline of ``SpatialOrganization`` (filter → transfer
→ refine) against two references it shares no code with:

* a brute-force scan over the object list (no ``rtree`` / ``storage``
  calls) for answers, candidate counts, retrieved bytes and exact-test
  counts of all four entry points;
* looped single queries on a twin database for everything priced —
  across scheduler × prefetcher × pool × disk count, where the only
  thing allowed to differ between a batch and the loop is whether a
  query's requests share one access plan.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.database import SpatialDatabase
from repro.geometry.feature import SpatialObject
from repro.geometry.polygon import Polygon
from repro.geometry.polyline import Polyline
from repro.geometry.rect import Rect
from repro.storage import base
from repro.storage.base import SpatialOrganization

from tests import scalar_reference
from tests.conftest import ReadSpy, build_org, make_objects
from tests.interval_list_clock import busy

ORG_KINDS = ("cluster", "secondary", "primary")
SMAX_BYTES = 4 * 4096


def mixed_map() -> list[SpatialObject]:
    """Multi-vertex polylines, degenerate polylines (both vertices on
    one point — a ``Polyline`` cannot have fewer than two), polygons,
    and one object too large for a cluster unit or a data page."""
    rng = random.Random(5)
    objects: list[SpatialObject] = []

    def add(geometry, size):
        objects.append(SpatialObject(len(objects), geometry, size_bytes=size))

    for _ in range(160):
        x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
        pts = [(x, y)]
        for _ in range(rng.randrange(1, 6)):
            x, y = x + rng.uniform(-30, 30), y + rng.uniform(-30, 30)
            pts.append((x, y))
        add(Polyline(pts), rng.randrange(200, 1500))
    for _ in range(40):
        x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
        add(Polyline([(x, y), (x, y)]), 200)
    for _ in range(40):
        cx, cy = rng.uniform(50, 950), rng.uniform(50, 950)
        w, h = rng.uniform(5, 40), rng.uniform(5, 40)
        ring = [(cx - w, cy - h), (cx + w, cy - h), (cx + w / 3, cy + h), (cx - w, cy + h / 2)]
        add(Polygon(ring), rng.randrange(300, 1200))
    add(Polyline([(400, 400), (460, 470), (520, 430), (600, 500)]), SMAX_BYTES + 5000)
    return objects


def reference(objects, rect: Rect, points: bool):
    """(answer oids, candidates, bytes_retrieved, exact_tests) by
    scanning the object list."""
    candidates = [o for o in objects if o.mbr.intersects(rect)]
    if points:
        answers = {o.oid for o in candidates if o.contains_point(rect.xmin, rect.ymin)}
        tests = len(candidates)
    else:
        answers = {o.oid for o in candidates if o.intersects_rect(rect)}
        tests = sum(1 for o in candidates if not rect.contains(o.mbr))
    return answers, len(candidates), sum(o.size_bytes for o in candidates), tests


def observed(result):
    return (
        {o.oid for o in result.objects},
        result.candidates,
        result.bytes_retrieved,
        result.exact_tests,
    )


@pytest.fixture(scope="module")
def mixed():
    objects = mixed_map()
    rng = random.Random(6)
    windows = [Rect(0, 0, 1000, 1000), Rect(2000, 2000, 2100, 2100)]
    for _ in range(40):
        x, y = rng.uniform(0, 950), rng.uniform(0, 950)
        windows.append(Rect(x, y, x + rng.uniform(1, 250), y + rng.uniform(1, 250)))
    points = [(2000.0, 2000.0)]
    for obj in rng.sample(objects, 60):
        vertices = obj.geometry.vertices
        points.append(vertices[rng.randrange(len(vertices))])  # on the object
        points.append(obj.mbr.center())  # inside the MBR, maybe off it
    orgs = {kind: build_org(kind, objects, smax_bytes=SMAX_BYTES) for kind in ORG_KINDS}
    return objects, windows, points, orgs


class TestBruteForceReference:
    @pytest.mark.parametrize("kind", ORG_KINDS)
    def test_all_entry_points(self, mixed, kind):
        objects, windows, points, orgs = mixed
        org = orgs[kind]
        want_w = [reference(objects, w, False) for w in windows]
        want_p = [reference(objects, Rect(x, y, x, y), True) for x, y in points]
        assert any(a for a, *_ in want_w) and any(a for a, *_ in want_p)
        assert any(t < c for _a, c, _b, t in want_w)  # the shortcut fires
        assert [observed(org.window_query(w)) for w in windows] == want_w
        assert [observed(org.point_query(x, y)) for x, y in points] == want_p
        assert org.window_query_batch([]) == []
        assert org.point_query_batch([]) == []
        for n in (1, len(windows)):
            got = org.window_query_batch(windows[:n])
            assert [observed(r) for r in got] == want_w[:n]
        for n in (1, len(points)):
            got = org.point_query_batch(points[:n])
            assert [observed(r) for r in got] == want_p[:n]

    @pytest.mark.parametrize("kind", ORG_KINDS)
    def test_answers_come_in_request_order(self, mixed, kind):
        """Answers follow the filter's leaves and, inside a leaf, the
        order the organization requests the candidates: entry order,
        except that the cluster organization reads the objects with
        pages of their own before its unit."""
        objects, windows, _points, orgs = mixed
        org = orgs[kind]
        reordered = False
        for window in windows:
            entry_order, request_order = [], []
            for leaf, hits in org.tree.window_leaves(window, lambda node: None):
                oids = [leaf.entries[i].oid for i in hits.tolist()]
                entry_order += oids
                if kind == "cluster":
                    apart = [oid for oid in oids if org.extent_of(oid) is not None]
                    oids = apart + [oid for oid in oids if oid not in apart]
                request_order += oids
            answers = reference(objects, window, False)[0]
            want = [oid for oid in request_order if oid in answers]
            assert [o.oid for o in org.window_query(window).objects] == want
            assert [o.oid for o in org.window_query_batch([window])[0].objects] == want
            reordered |= request_order != entry_order
        assert reordered == (kind == "cluster")

    def test_oversize_object_is_stored_apart(self, mixed):
        objects, _windows, _points, orgs = mixed
        big = objects[-1].oid
        assert orgs["cluster"].extent_of(big) is not None
        assert orgs["primary"].extent_of(big) is not None


def _priced(result):
    return (
        [o.oid for o in result.objects],
        result.candidates,
        result.bytes_retrieved,
        result.exact_tests,
        result.io,
    )


class TestMergingIsAllTheGuardSwitches:
    """A batch equals the looped singles on a twin database in every
    observable — answers and counters, per-query I/O, pool and prefetch
    statistics, the virtual clock, the node-page sequence — under every
    configuration; only the mergeable ones put a query on one plan."""

    @pytest.mark.parametrize("n_disks", [1, 4])
    @pytest.mark.parametrize("caching", [False, True])
    @pytest.mark.parametrize("prefetch", ["none", "cluster"])
    @pytest.mark.parametrize("scheduler", ["sync", "overlap"])
    @pytest.mark.parametrize("kind", ["cluster", "secondary"])
    def test_batch_equals_looped_singles(
        self, objects300, kind, scheduler, prefetch, caching, n_disks
    ):
        from repro.data.workload import window_workload

        windows = window_workload(objects300, 1e-3, n_queries=12, seed=101)
        rng = random.Random(9)
        points = [
            rng.choice(obj.geometry.vertices) for obj in rng.sample(objects300, 12)
        ]

        def run(batched: bool):
            db = SpatialDatabase(
                organization=kind,
                smax_bytes=16 * 4096,
                scheduler=scheduler,
                prefetch=prefetch,
                n_disks=n_disks,
            )
            db.build(objects300)
            org = db.storage
            pool = db._workload_pool(24, "lru") if caching else org.pool
            with org.use_pool(pool), ReadSpy() as spy:
                mergeable = org._batchable()
                if batched:
                    results = org.window_query_batch(windows)
                    results += org.point_query_batch(points)
                else:
                    results = [org.window_query(w) for w in windows]
                    results += [org.point_query(x, y) for x, y in points]
            clock = getattr(db.scheduler, "clock", None)
            return mergeable, {
                "results": [_priced(r) for r in results],
                "pool": (pool.hits, pool.misses, pool.evictions),
                "prefetch": pool.prefetch_stats(),
                "makespan": clock.makespan if clock is not None else None,
                "disk": db.disk.stats(),
                "node_pages": spy.pages,
            }

        _, looped = run(batched=False)
        mergeable, batch = run(batched=True)
        # Outside an operation scope the overlap scheduler never merges:
        # each blocking plan advances the client's clock, so the next
        # one is issued later (inside a scope: the class below's tests).
        assert mergeable == (scheduler == "sync" and prefetch == "none")
        assert batch == looped
        assert sum(len(oids) for oids, *_ in batch["results"]) > 0
        if caching:
            assert batch["pool"][0] > 0 and batch["pool"][2] > 0

    def test_merged_batch_submits_one_plan_per_query(self, objects300, monkeypatch):
        """What the guard does switch: mergeable, each query of a batch
        is one submitted plan; otherwise its node reads and (cluster)
        groups are submitted one by one, as the single query does."""
        from repro.buffer.pool import BufferPool
        from repro.data.workload import window_workload

        windows = window_workload(objects300, 1e-3, n_queries=8, seed=3)
        submits = []
        submit = BufferPool.submit

        def spy(pool, plan):
            submits.append(plan.label)
            return submit(pool, plan)

        monkeypatch.setattr(BufferPool, "submit", spy)
        org = build_org("cluster", objects300)
        unmerged = build_org("cluster", objects300, scheduler="overlap")
        twin = build_org("cluster", objects300, scheduler="overlap")
        del submits[:]
        busy = [r for r in org.window_query_batch(windows) if r.io.requests]
        assert submits == ["cluster.retrieve"] * len(busy)
        merged = len(submits)
        del submits[:]
        unmerged.window_query_batch(windows)
        assert len(submits) > merged and "node.read" in submits
        looped = list(submits)
        del submits[:]
        for w in windows:
            twin.window_query(w)
        assert submits == looped


class TestMergedOperationIsTheUnmergedOperation:
    """Inside ``scheduler.operation(client)`` the overlap scheduler
    dispatches every request of every plan at the scope's start, so a
    query's node reads and transfers may share one plan there.  The twin
    below has merging forced off (``_batchable`` patched on the
    instance; there is no switch in ``src/``) — everything observable
    must be equal, down to the last bit of the queueing sums."""

    @pytest.mark.parametrize("tiering", [None, "promote-on-hit"])
    @pytest.mark.parametrize("caching", [False, True])
    @pytest.mark.parametrize("n_disks", [1, 4])
    @pytest.mark.parametrize("kind", ORG_KINDS)
    def test_single_queries_inside_an_operation_scope(
        self, monkeypatch, kind, n_disks, caching, tiering
    ):
        from repro.buffer.pool import BufferPool

        objects = mixed_map()
        rng = random.Random(17)
        windows = [Rect(380, 380, 620, 520)]  # around the oversize object
        for _ in range(14):
            x, y = rng.uniform(0, 900), rng.uniform(0, 900)
            windows.append(Rect(x, y, x + rng.uniform(5, 220), y + rng.uniform(5, 220)))
        points = [rng.choice(o.geometry.vertices) for o in rng.sample(objects, 10)]
        submits: list[str] = []
        submit = BufferPool.submit

        def spy(pool, plan):
            submits.append(plan.label)
            return submit(pool, plan)

        monkeypatch.setattr(BufferPool, "submit", spy)

        def run(merged: bool):
            db = SpatialDatabase(
                organization=kind,
                smax_bytes=SMAX_BYTES,
                scheduler="overlap",
                n_disks=n_disks,
                tiering=tiering,
                fast_pages=24,
            )
            db.build(objects)
            org, scheduler = db.storage, db.scheduler
            if not merged:
                monkeypatch.setattr(org, "_batchable", lambda: False)
            pool = db._workload_pool(20, "lru") if caching else org.pool
            del submits[:]
            results, plans_per_op = [], []
            with org.use_pool(pool), ReadSpy() as spy_reads:
                assert not org._batchable()  # no scope open
                for i, rect in enumerate(windows + [Rect(x, y, x, y) for x, y in points]):
                    # Three clients start at time 0 and contend for arms.
                    with scheduler.operation(f"client{i % 3}"):
                        assert org._batchable() == merged
                        before = len(submits)
                        if i < len(windows):
                            results.append(org.window_query(rect))
                        else:
                            results.append(org.point_query(rect.xmin, rect.ymin))
                        plans_per_op.append(len(submits) - before)
            clock = scheduler.clock
            return plans_per_op, {
                "results": [_priced(r) for r in results],
                "pool": (pool.hits, pool.misses, pool.evictions),
                "makespan": clock.makespan,
                "busy": busy(clock),
                "clients": dict(clock.clients),
                "queueing": dict(scheduler.queueing),
                "last_completion": scheduler._last_completion,
                "disk": db.disk.stats(),
                "per_disk": [d.stats() for d in db.disk.disks],
                "node_pages": spy_reads.pages,
            }

        unmerged_plans, unmerged = run(merged=False)
        merged_plans, merged = run(merged=True)
        assert merged == unmerged
        assert sum(merged["queueing"].values()) > 0, "the clients contended"
        served = [n for n, r in zip(merged_plans, merged["results"]) if r[4].requests]
        assert served and set(served) == {1}, "one plan per served operation"
        assert sum(unmerged_plans) > sum(merged_plans)
        for (oids, candidates, nbytes, tests, _io), rect in zip(
            merged["results"], windows
        ):
            want = reference(objects, rect, False)
            assert (set(oids), candidates, nbytes, tests) == want

    @pytest.mark.parametrize("scheduler", ["sync", "overlap"])
    @pytest.mark.parametrize("kind", ["cluster", "secondary"])
    def test_a_trace_shows_the_plans_a_merged_plan_stands_for(
        self, monkeypatch, objects300, kind, scheduler
    ):
        """One plan span per ``AccessPlan.segments()`` entry: the span
        list of a merged operation is the unmerged one's, name by name
        and stamp by stamp (the CLI goldens count these events)."""
        from repro.data.workload import window_workload
        from repro.obs.trace import tracing

        windows = window_workload(objects300, 1e-3, n_queries=6, seed=5)

        def spans(merged: bool):
            db = SpatialDatabase(
                organization=kind, smax_bytes=16 * 4096, scheduler=scheduler, n_disks=2
            )
            db.build(objects300)
            if not merged:
                monkeypatch.setattr(db.storage, "_batchable", lambda: False)
            with tracing() as tracer:
                tracer.use_virtual_clock(scheduler == "overlap")
                for i, window in enumerate(windows):
                    with db.scheduler.operation(f"client{i % 2}"):
                        assert db.storage._batchable() == merged
                        db.storage.window_query(window)
            timed = scheduler == "overlap"  # sync spans carry wall-clock stamps
            return [
                (s.name, s.cat, s.track, s.args, (s.start_ms, s.end_ms) if timed else None)
                for s in tracer.spans
            ]

        merged = spans(True)
        assert merged == spans(False)
        assert {"node.read", f"{kind}.retrieve"} <= {name for name, *_ in merged}

    @pytest.mark.parametrize("scheduler", ["sync", "overlap"])
    @pytest.mark.parametrize("kind", ORG_KINDS)
    def test_containment_rows_follow_the_candidate_order(self, kind, scheduler):
        """The cluster organization reads an oversize object's own
        extent before the unit, so it leads the candidates although its
        entry comes last; were its containment row left in entry order
        it would take the first small object's (inside the window: no
        test) and be answered without ever being tested.  The reference
        run asks ``rect.contains(obj.mbr)`` per candidate instead."""
        small = [
            SpatialObject(0, Polyline([(15, 60), (20, 65)]), size_bytes=300),
            SpatialObject(1, Polyline([(25, 70), (30, 75)]), size_bytes=300),
        ]
        # An L along the bottom and right edge: the MBR covers the
        # window, the geometry stays clear of it.
        big = SpatialObject(
            2, Polyline([(0, 0), (100, 0), (100, 100)]), size_bytes=SMAX_BYTES + 5000
        )
        db = SpatialDatabase(
            organization=kind, smax_bytes=SMAX_BYTES, scheduler=scheduler
        )
        db.build(small + [big])
        org = db.storage
        assert org.extent_of(2) is not None
        for installed in (nullcontext, scalar_reference.installed):
            with installed(), db.scheduler.operation("main"):
                result = org.window_query(Rect(10, 50, 40, 90))
            assert [o.oid for o in result.objects] == [0, 1]
            assert (result.candidates, result.exact_tests) == (3, 1)


# ----------------------------------------------------------------------
# a side of the tight MBR inside the window decides without a test
# ----------------------------------------------------------------------
def kernel_rows_of(query) -> tuple[object, int]:
    """``query()``'s result and the rows it handed the window-refinement
    kernel."""
    rows = [0]
    kernel = base.polylines_intersect_rects

    def counted(column, rows_of, rects):
        rows[0] += len(rows_of)
        return kernel(column, rows_of, rects)

    with mock.patch.object(base, "polylines_intersect_rects", counted):
        result = query()
    return result, rows[0]


#: Integer coordinates on a small grid: MBR sides often touch window sides.
COORD = st.integers(0, 40)


class TestASideInTheWindowDecides:
    WINDOW = Rect(10, 10, 20, 20)
    #: A vertex just off the window past each side; its partner (14, 16)
    #: is inside, so the MBR misses exactly that side's containment flag.
    OUTSIDE = {"left": (5, 15), "bottom": (15, 5), "right": (25, 15), "top": (15, 25)}

    @pytest.mark.parametrize("side", sorted(OUTSIDE))
    def test_a_tight_mbr_with_three_flags_needs_no_kernel_row(self, side):
        edge = SpatialObject(0, Polyline([self.OUTSIDE[side], (14, 16)]), size_bytes=300)
        # An L around the window: its MBR holds no flag, it is tested.
        ring = SpatialObject(1, Polyline([(0, 30), (0, 0), (30, 0)]), size_bytes=300)
        org = build_org("cluster", [edge, ring], smax_bytes=SMAX_BYTES)
        result, rows = kernel_rows_of(lambda: org.window_query(self.WINDOW))
        assert [o.oid for o in result.objects] == [0]
        assert (result.candidates, result.exact_tests, rows) == (2, 2, 1)

    def test_an_override_with_three_flags_still_reaches_the_kernel(self):
        """The override row says nothing about where the geometry is:
        this one has three flags, its geometry lies right of the
        window."""
        away = SpatialObject(
            0,
            Polyline([(22, 12), (24, 18)]),
            size_bytes=300,
            mbr_override=Rect(12, 12, 24, 18),
        )
        org = build_org("cluster", [away], smax_bytes=SMAX_BYTES)
        result, rows = kernel_rows_of(lambda: org.window_query(self.WINDOW))
        assert result.objects == []
        assert (result.candidates, result.exact_tests, rows) == (1, 1, 1)

    @settings(max_examples=40, deadline=None)
    @given(
        shapes=st.lists(
            st.tuples(
                st.lists(st.tuples(COORD, COORD), min_size=2, max_size=5),
                st.booleans(),  # a polygon (when the ring has 3 vertices)
                st.none() | st.tuples(*[st.integers(0, 6)] * 4),  # override margins
            ),
            min_size=1,
            max_size=25,
        ),
        windows=st.lists(
            st.tuples(COORD, COORD, st.integers(0, 20), st.integers(0, 20)),
            min_size=1,
            max_size=6,
        ),
    )
    def test_every_organization_answers_as_the_scalar_reference(self, shapes, windows):
        objects = []
        for oid, (pts, polygon, margins) in enumerate(shapes):
            pts = [(float(x), float(y)) for x, y in pts]
            if polygon and len(set(pts)) >= 3 and pts[0] != pts[-1]:
                geometry = Polygon(pts)
            else:
                geometry = Polyline(pts)
            override = None
            if margins is not None:
                m = geometry.mbr
                left, bottom, right, top = margins
                override = Rect(
                    m.xmin - left, m.ymin - bottom, m.xmax + right, m.ymax + top
                )
            objects.append(
                SpatialObject(oid, geometry, size_bytes=400, mbr_override=override)
            )
        rects = [Rect(x, y, x + w, y + h) for x, y, w, h in windows]
        for kind in ORG_KINDS:
            org = build_org(kind, objects, smax_bytes=SMAX_BYTES)
            got = [observed(org.window_query(r)) for r in rects]
            with mock.patch.object(
                SpatialOrganization, "_refine", scalar_reference.refine
            ):
                want = [observed(org.window_query(r)) for r in rects]
            assert got == want, kind


# ----------------------------------------------------------------------
# what a cold query costs, as counts (ROADMAP item A)
# ----------------------------------------------------------------------
def query_counts() -> dict[str, float]:
    """Run the benchmark's smoke-size ``query_cold`` twin — A-1 at scale
    0.005 on the default (cluster, ``sync``, pass-through pool)
    database, 30 windows of area 1e-3 and then 75 vertex points, each
    query issued alone — and count what a query costs in plans,
    refinement kernel calls and rows, exact tests, the scalar segment
    tests the kernel's outcodes leave, and the objects and vertex
    matrices it asks for.  Machine-independent; CI's ``Size report``
    prints the ``*_per_query`` values."""
    from unittest.mock import patch

    from repro.buffer.pool import BufferPool
    from repro.data.series import scaled, spec_for
    from repro.data.tiger import generate_map
    from repro.data.workload import window_workload
    from repro.geometry import intersect
    from repro.storage import base

    spec = scaled(spec_for("A-1"), 0.005)
    objects = generate_map(spec, seed=1994)
    db = SpatialDatabase(avg_object_size=spec.avg_object_size)
    db.build(objects)
    windows = window_workload(objects, 1e-3, n_queries=30, seed=1994)
    rng = random.Random(1994)
    points = [rng.choice(o.geometry.vertices) for o in rng.choices(objects, k=75)]
    calls = dict.fromkeys(
        ("submits", "kernel_calls", "kernel_rows", "survivors", "coords_calls",
         "object_lookups"), 0
    )
    per_query: list[tuple[int, int]] = []
    submit, kernel = BufferPool.submit, base.polylines_intersect_rects
    scalar = intersect.segment_intersects_rect

    def counted(key, original):
        def wrapper(*args):
            calls[key] += 1
            return original(*args)

        return wrapper

    def kernel_counted(column, rows, rects):
        calls["kernel_rows"] += len(rows)
        return counted("kernel_calls", kernel)(column, rows, rects)

    class CountingObjects(dict):
        def __getitem__(self, oid):
            calls["object_lookups"] += 1
            return dict.__getitem__(self, oid)

    db.storage.objects = CountingObjects(db.storage.objects)
    with (
        patch.object(BufferPool, "submit", counted("submits", submit)),
        patch.object(base, "polylines_intersect_rects", kernel_counted),
        # A-1 holds polylines only, so every scalar segment test is one
        # the kernel's outcodes left.
        patch.object(intersect, "segment_intersects_rect", counted("survivors", scalar)),
        patch.object(Polyline, "coords", counted("coords_calls", Polyline.coords)),
    ):
        results = []
        for query, args in [(db.window_query, w.as_tuple()) for w in windows] + [
            (db.point_query, p) for p in points
        ]:
            before = (calls["submits"], calls["kernel_calls"])
            results.append(query(*args))
            per_query.append((calls["submits"] - before[0], calls["kernel_calls"] - before[1]))
    queries = len(results)
    calls["exact_tests"] = sum(r.exact_tests for r in results)
    return {
        "queries": queries,
        "queries_with_tests": sum(r.exact_tests > 0 for r in results),
        "max_submits_in_one_query": max(s for s, _ in per_query),
        "max_kernel_calls_in_one_query": max(k for _, k in per_query),
        "answers": sum(len(r.objects) for r in results),
        **calls,
        **{f"{key}_per_query": n / queries for key, n in calls.items()},
    }


class TestQueryColdCounts:
    def test_one_plan_and_one_kernel_call_per_query(self):
        """ROADMAP A's ``query_cold`` row.  Exact values: the map, the
        tree and the queries are deterministic."""
        counts = query_counts()
        assert (counts["queries"], counts["answers"]) == (105, 446)
        # One access plan per query.
        assert counts["max_submits_in_one_query"] == 1
        assert counts["submits"] == 105
        # At most one refinement kernel call per query: 100 queries
        # leave candidates pending, and 4 of them only ones a whole side
        # of whose tight MBR lies in the window — accepted without a
        # kernel row (505 rows before that rule, one per exact test).
        assert counts["max_kernel_calls_in_one_query"] == 1
        assert counts["queries_with_tests"] == 100
        assert counts["kernel_calls"] == 96
        assert counts["exact_tests"] == 505
        assert counts["kernel_rows"] == 347
        # The outcodes leave 27 segments for the scalar test (243 ran
        # it when small batches fell back to the scalar loop).
        assert counts["survivors"] == 27
        # Candidates are geometry-column rows from filter to answer: the
        # kernel gathers vertices by row, and only the answers are
        # looked up as objects.
        assert counts["coords_calls"] == 0
        assert counts["object_lookups"] == counts["answers"] == 446
