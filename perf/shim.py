"""Span tracing from outside the program.

``Shim.install()`` wraps the layers' public entry points named in
``WRAP_TABLE`` and records one ``(entry, start, end, parent, payload)``
span per call in memory (``payload`` is what the row's harvester read
off the call's arguments and result, so counts are taken at the same
boundaries as times); nothing is written until the benchmark ends.  A layer's
self time is its spans' duration minus the part their child spans cover.
The table is data: a renamed or removed entry point fails the install
loudly instead of silently dropping a layer.

The wrappers cost about a microsecond per call, charged to the *calling*
span's self time; ``obs.shim_overhead_ratio`` reports the total.
End-to-end metrics never come from a traced repetition.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

__all__ = ["WRAP_TABLE", "LAYERS", "Shim", "Attribution"]

_STORE_METHODS = (
    "read read_runs write write_runs charge read_extent write_extent "
    "stats snapshot stats_since cost_since"
).split()

# (layer, "module:Owner.attribute" or "module:function", harvester or None)
WRAP_TABLE: tuple[tuple[str, str, str | None], ...] = (
    *(
        ("rtree", f"repro.rtree.rstar:RStarTree.{m}", None)
        for m in ("window_leaves", "window_query", "point_query", "insert", "delete")
    ),
    *(("rtree", f"repro.rtree.pager:NodePager.{m}", None) for m in ("read", "plan_reads", "write")),
    ("storage", "repro.storage.base:SpatialOrganization.window_query", "query"),
    ("storage", "repro.storage.base:SpatialOrganization.point_query", "query"),
    *(
        ("storage", f"repro.storage.base:SpatialOrganization.{m}", None)
        for m in ("insert", "delete", "build", "finalize_build")
    ),
    *(
        ("geometry", f"repro.geometry.feature:SpatialObject.{m}", "predicate")
        for m in ("intersects_rect", "contains_point", "intersects")
    ),
    ("geometry", "repro.geometry.intersect:polylines_intersect_rects", "mask"),
    ("geometry", "repro.geometry.intersect:points_in_polygon", "mask"),
    ("buffer", "repro.buffer.pool:BufferPool.submit", "pool"),
    *(
        ("buffer", f"repro.buffer.pool:BufferPool.{m}", None)
        for m in (
            "flush write_back read read_pages fetch access admit load_pages "
            "write write_pages write_back_pages charge discard"
        ).split()
    ),
    ("iosched", "repro.iosched.scheduler:SyncScheduler.execute", None),
    ("iosched", "repro.iosched.scheduler:OverlapScheduler.execute", None),
    ("iosched", "repro.iosched.scheduler:VirtualClock.reserve", None),
    ("iosched", "repro.iosched.scheduler:VirtualClock.dispatch", None),
    ("iosched", "repro.iosched.scheduler:VirtualClock.wait", None),
    *(("pagestore", f"repro.disk.model:DiskModel.{m}", None) for m in _STORE_METHODS + ["price_runs"]),
    *(("pagestore", f"repro.pagestore.store:ShardedPageStore.{m}", None) for m in _STORE_METHODS),
    *(
        ("pagestore", f"repro.pagestore.file:FilePageStore.{m}", None)
        for m in _STORE_METHODS + ["commit", "flush", "put", "scrub", "read_meta_pages"]
    ),
    ("workload", "repro.workload.engine:WorkloadEngine.run", None),
    ("workload", "repro.workload.engine:WorkloadEngine.run_traffic", None),
    ("join", "repro.join.multistep:spatial_join", None),
    ("join", "repro.join.mbr_join:MBRJoin.run", None),
    ("join", "repro.join.object_access:ObjectTransfer.fetch_group", None),
    ("reorg", "repro.reorg:Reorganizer.step", None),
    *(
        ("serial", f"repro.storage.serial:{f}", None)
        for f in ("save_database", "open_database", "dump_state", "load_state")
    ),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in WRAP_TABLE))


def _harvest_query(args, result):
    return result.candidates, len(result.objects), result.bytes_retrieved


def _harvest_predicate(args, result):
    return 1, 1 if result else 0


def _harvest_mask(args, result):
    return len(result), int(np.count_nonzero(result))


def _harvest_pool(args, result):
    return args[0]


_HARVESTERS = {
    "query": _harvest_query,
    "predicate": _harvest_predicate,
    "mask": _harvest_mask,
    "pool": _harvest_pool,
}


def _subclasses(cls) -> list[type]:
    """The program's own subclasses (test suites define throw-away ones)."""
    found = []
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("repro."):
            found.append(sub)
        found.extend(_subclasses(sub))
    return found


class Shim:
    """Installs the wrappers and holds the spans."""

    def __init__(self) -> None:
        self.entries: list[tuple[str, str, str | None]] = []  # (layer, name, harvester)
        self.spans: list[tuple | None] = []
        self._stack = [-1]
        self._undo: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------
    def _wrap(self, fn, entry: int, harvest):
        spans, stack, now = self.spans, self._stack, perf_counter

        if inspect.isgeneratorfunction(fn):
            # One span per resumption: the consumer's work between two
            # items belongs to the consumer, not to the generator.
            def wrapper(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                while True:
                    index = len(spans)
                    spans.append(None)
                    parent = stack[-1]
                    stack.append(index)
                    start = now()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        end = now()
                        stack.pop()
                        spans[index] = (entry, start, end, parent, None)
                    yield item

        else:

            def wrapper(*args, **kwargs):
                index = len(spans)
                spans.append(None)
                parent = stack[-1]
                stack.append(index)
                payload = None
                start = now()
                try:
                    result = fn(*args, **kwargs)
                    if harvest is not None:
                        payload = harvest(args, result)
                    return result
                finally:
                    end = now()
                    stack.pop()
                    spans[index] = (entry, start, end, parent, payload)

        return functools.wraps(fn)(wrapper)
    def install(self) -> None:
        """Wrap every table row; raises if one does not resolve to a
        plain function or method, or if a subclass overrides a wrapped
        method without a row of its own (its calls would go unseen)."""
        targets = {target for _, target, _ in WRAP_TABLE}
        try:
            for layer, target, harvester in WRAP_TABLE:
                module_name, _, path = target.partition(":")
                owner = importlib.import_module(module_name)
                *parents, attribute = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = inspect.getattr_static(owner, attribute, None)
                if not inspect.isfunction(original):
                    raise LookupError(
                        f"wrap table entry {target!r} ({layer}) does not resolve "
                        f"to a plain function: got {original!r}"
                    )
                if inspect.isclass(owner):
                    for sub in _subclasses(owner):
                        own_row = f"{sub.__module__}:{sub.__name__}.{attribute}"
                        if attribute in vars(sub) and own_row not in targets:
                            raise LookupError(
                                f"{sub.__name__} overrides {path}: add {own_row!r} "
                                f"to the wrap table"
                            )
                self.entries.append((layer, path, harvester))
                wrapper = self._wrap(
                    original, len(self.entries) - 1, _HARVESTERS.get(harvester)
                )
                self._set(owner, attribute, wrapper)
                if inspect.ismodule(owner):
                    # ``from module import function`` copies the
                    # reference: rebind every copy in the program.
                    for name, module in list(sys.modules.items()):
                        if module is owner or not name.startswith("repro."):
                            continue
                        for alias, value in list(vars(module).items()):
                            if value is original:
                                self._set(module, alias, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _set(self, owner, attribute: str, wrapper) -> None:
        own = attribute in vars(owner)
        self._undo.append((owner, attribute, vars(owner).get(attribute), own))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original, own = self._undo.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    def __enter__(self) -> "Shim":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def attribute(self, start: float, end: float) -> "Attribution":
        """Self times and call counts of the spans inside ``[start, end]``."""
        return Attribution(self.entries, self.spans, start, end)

    def write_chrome_trace(self, path: str) -> None:
        """The spans as Chrome trace-event JSON (``chrome://tracing``, Perfetto)."""
        spans = [s for s in self.spans if s is not None]
        origin = min((s[1] for s in spans), default=0.0)
        events = [
            {
                "name": self.entries[entry][1],
                "cat": self.entries[entry][0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
            }
            for entry, start, end, _parent, _payload in spans
        ]
        with open(path, "w") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)


class Attribution:
    """Where the wall time of one traced interval went.

    ``self_s[layer]`` sums the self times of the layer's spans;
    ``self_s["driver"]`` is what no wrapped entry point covers (the
    benchmark's own loop and unwrapped facade code), so the values sum
    to ``wall_s`` exactly.  ``calls[name]`` / ``name_self_s[name]`` are
    per entry point, ``calls_from[(name, parent_layer)]`` per caller;
    ``counts`` and ``pools`` are the harvested payloads.
    """

    def __init__(self, entries, spans, start: float, end: float):
        self.wall_s = end - start
        inside = [
            i
            for i, span in enumerate(spans)
            if span is not None and span[1] >= start and span[2] <= end
        ]
        kept = set(inside)
        child_s: dict[int, float] = defaultdict(float)
        top_s = 0.0
        for i in inside:
            _entry, s, e, parent, _payload = spans[i]
            if parent in kept:
                child_s[parent] += e - s
            else:
                top_s += e - s
        self.self_s: dict[str, float] = defaultdict(float)
        self.name_self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.calls_from: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.pools: dict[int, object] = {}
        for i in inside:
            entry, s, e, parent, payload = spans[i]
            layer, name, harvester = entries[entry]
            own = (e - s) - child_s.get(i, 0.0)
            self.self_s[layer] += own
            self.name_self_s[name] += own
            self.calls[name] += 1
            parent_layer = entries[spans[parent][0]][0] if parent in kept else "driver"
            self.calls_from[(name, parent_layer)] += 1
            if payload is None:
                continue
            if harvester == "query":
                self.counts["queries"] += 1
                self.counts["candidates"] += payload[0]
                self.counts["answers"] += payload[1]
                self.counts["bytes_retrieved"] += payload[2]
            elif harvester == "pool":
                self.pools[id(payload)] = payload
            else:
                self.counts["exact_tests"] += payload[0]
                self.counts["exact_hits"] += payload[1]
        self.self_s["driver"] = self.wall_s - top_s

    @property
    def attributed_share(self) -> float:
        """Fraction of the wall time attributed to named layers."""
        if self.wall_s <= 0.0:
            return 0.0
        return 1.0 - self.self_s["driver"] / self.wall_s
