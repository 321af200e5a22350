"""Metric names, and how they are computed from repetitions and spans.

``END_TO_END`` and ``PER_LAYER`` are the contract ``BENCHMARK.json``
repeats (the smoke test keeps the two in step).  Timed values are in
reference-machine time (see ``perf/calibrate.py``); ``sim_`` values are
the program's simulated milliseconds and repeat exactly for one seed.
"""

from __future__ import annotations

import resource
import statistics

from perf.shim import LAYERS

__all__ = ["END_TO_END", "PER_LAYER", "end_to_end", "per_layer", "percentile"]

# (name, unit, better, bound)
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
)

# (name, unit, better); the owning layer is the name's prefix.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    *((f"{layer}.self_ms_per_op", "ms", "lower") for layer in LAYERS),
    ("rtree.calls_per_op", "count", "lower"),
    ("rtree.candidates_per_answer", "ratio", "lower"),
    ("rtree.insert_self_ms_per_obj", "ms", "lower"),
    ("storage.plans_per_op", "count", "lower"),
    ("storage.bytes_retrieved_per_op", "B", "lower"),
    ("storage.secondary_ms_per_op", "ms", "lower"),
    ("storage.primary_ms_per_op", "ms", "lower"),
    ("geometry.exact_tests_per_op", "count", "lower"),
    ("geometry.exact_hit_ratio", "ratio", "higher"),
    ("buffer.submits_per_op", "count", "lower"),
    ("buffer.hit_rate", "ratio", "higher"),
    ("buffer.evictions_per_op", "count", "lower"),
    ("buffer.writeback_pages", "count", "lower"),
    ("iosched.executes_per_op", "count", "lower"),
    ("iosched.reserves_per_op", "count", "lower"),
    ("iosched.sim_queueing_ms_per_op", "ms", "lower"),
    ("pagestore.requests_per_op", "count", "lower"),
    ("pagestore.pages_per_op", "count", "lower"),
    ("pagestore.sim_device_ms_per_op", "ms", "lower"),
    ("pagestore.sim_parallelism", "ratio", "higher"),
    ("pagestore.file_bytes_per_user_byte", "ratio", "lower"),
    ("pagestore.scrub_ms", "ms", "lower"),
    ("workload.sim_throughput_per_s", "1/s", "higher"),
    ("workload.sim_interactive_p99_ms", "ms", "lower"),
    ("join.self_ms", "ms", "lower"),
    ("join.candidate_pairs", "count", "lower"),
    ("join.result_pairs", "count", "higher"),
    ("join.sim_io_ms", "ms", "lower"),
    ("reorg.step_ms", "ms", "lower"),
    ("reorg.moved_pages", "count", "lower"),
    ("reorg.quality_gain", "ratio", "higher"),
    ("serial.save_incremental_ms", "ms", "lower"),
    ("serial.open_sim_ms", "ms", "lower"),
    ("serial.catalog_bytes", "B", "lower"),
    ("obs.shim_overhead_ratio", "ratio", "lower"),
    ("obs.tracer_enabled_ratio", "ratio", "lower"),
    ("obs.attributed_share", "ratio", "higher"),
    ("phase.window_p50_ms", "ms", "lower"),
    ("phase.window_p99_ms", "ms", "lower"),
    ("phase.point_p50_ms", "ms", "lower"),
    ("phase.point_p99_ms", "ms", "lower"),
    ("phase.file_window_p50_ms", "ms", "lower"),
    ("phase.build_objs_per_s", "1/s", "higher"),
    ("phase.join_s", "s", "lower"),
    ("phase.save_s", "s", "lower"),
    ("phase.open_s", "s", "lower"),
    ("process.peak_rss_mb", "MB", "lower"),
)


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (an observed value, no interpolation)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(setup_ref_s: list[float], reps, factors: list[float]) -> dict[str, float]:
    """The gated metrics from the untraced repetitions: medians over
    repetitions, every interval scaled by its repetition's reference
    factor.  Keys ending in ``_raw`` are the unscaled twins (printed,
    never gated)."""
    samples_ref = [s * f for rep, f in zip(reps, factors) for s in rep.samples]
    samples_raw = [s for rep in reps for s in rep.samples]
    return {
        "setup_s": _median(setup_ref_s),
        "ops_per_s": _median(rep.ops / (rep.seconds * f) for rep, f in zip(reps, factors)),
        "op_p50_ms": _median(samples_ref) * 1000.0,
        "ops_per_s_raw": _median(rep.ops / rep.seconds for rep in reps),
        "op_p50_ms_raw": _median(samples_raw) * 1000.0,
    }


def per_layer(attribution, traced, traced_factor, reps, factors, extras) -> dict[str, float]:
    """Every ``PER_LAYER`` metric of one workload (0 where the layer is
    not on the workload's path).

    ``attribution``/``traced`` come from the traced repetition,
    ``reps``/``factors`` from the untraced ones (phase timings must not
    carry the wrappers' cost), ``extras`` are values only one workload
    measures.
    """
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    ops = traced.ops
    counts, counters, calls = attribution.counts, traced.counters, attribution.calls
    ms = 1000.0 * traced_factor

    for layer in LAYERS:
        out[f"{layer}.self_ms_per_op"] = attribution.self_s[layer] * ms / ops
    tree_calls = sum(n for name, n in calls.items() if name.startswith("RStarTree."))
    out["rtree.calls_per_op"] = tree_calls / ops
    out["rtree.candidates_per_answer"] = _ratio(counts["candidates"], counts["answers"])
    out["rtree.insert_self_ms_per_obj"] = _ratio(
        attribution.name_self_s["RStarTree.insert"] * ms, calls["RStarTree.insert"]
    )
    out["storage.plans_per_op"] = attribution.calls_from[("BufferPool.submit", "storage")] / ops
    out["storage.bytes_retrieved_per_op"] = _ratio(counts["bytes_retrieved"], counts["queries"])
    out["geometry.exact_tests_per_op"] = counts["exact_tests"] / ops
    out["geometry.exact_hit_ratio"] = _ratio(counts["exact_hits"], counts["exact_tests"])

    out["buffer.submits_per_op"] = calls["BufferPool.submit"] / ops
    caching = [pool for pool in attribution.pools.values() if pool.capacity > 0]
    hits = sum(pool.hits for pool in caching)
    out["buffer.hit_rate"] = _ratio(hits, hits + sum(pool.misses for pool in caching))
    out["buffer.evictions_per_op"] = sum(pool.evictions for pool in caching) / ops
    out["buffer.writeback_pages"] = counters.get("writeback_pages", 0.0)

    executes = calls["SyncScheduler.execute"] + calls["OverlapScheduler.execute"]
    out["iosched.executes_per_op"] = executes / ops
    out["iosched.reserves_per_op"] = calls["VirtualClock.reserve"] / ops
    out["iosched.sim_queueing_ms_per_op"] = counters.get("sim_queueing_ms", 0.0) / ops

    out["pagestore.requests_per_op"] = counters.get("requests", 0.0) / ops
    out["pagestore.pages_per_op"] = counters.get("pages", 0.0) / ops
    out["pagestore.sim_device_ms_per_op"] = counters.get("sim_device_ms", 0.0) / ops
    out["pagestore.sim_parallelism"] = counters.get("sim_parallelism", 0.0)
    out["pagestore.file_bytes_per_user_byte"] = counters.get("file_bytes_per_user_byte", 0.0)
    out["workload.sim_throughput_per_s"] = counters.get("sim_throughput_per_s", 0.0)
    out["workload.sim_interactive_p99_ms"] = counters.get("sim_interactive_p99_ms", 0.0)
    out["join.self_ms"] = attribution.self_s["join"] * ms
    out["join.candidate_pairs"] = counters.get("join_candidate_pairs", 0.0)
    out["join.result_pairs"] = counters.get("join_result_pairs", 0.0)
    out["join.sim_io_ms"] = counters.get("join_sim_io_ms", 0.0)
    out["reorg.moved_pages"] = counters.get("reorg_moved_pages", 0.0)
    out["reorg.quality_gain"] = counters.get("reorg_quality_gain", 0.0)
    out["serial.catalog_bytes"] = counters.get("catalog_bytes", 0.0)

    def phase_s(key: str) -> float:
        return _median(rep.phases[key] * f for rep, f in zip(reps, factors) if key in rep.phases)

    def probe_ms(key: str, q: float) -> float:
        pooled = [s * f for rep, f in zip(reps, factors) for s in rep.probes.get(key, ())]
        return percentile(pooled, q) * 1000.0

    out["pagestore.scrub_ms"] = phase_s("scrub_s") * 1000.0
    out["reorg.step_ms"] = phase_s("reorg_s") * 1000.0
    out["serial.save_incremental_ms"] = phase_s("save_incremental_s") * 1000.0
    out["serial.open_sim_ms"] = phase_s("open_sim_s") * 1000.0
    out["phase.window_p50_ms"] = probe_ms("window", 0.50)
    out["phase.window_p99_ms"] = probe_ms("window", 0.99)
    out["phase.point_p50_ms"] = probe_ms("point", 0.50)
    out["phase.point_p99_ms"] = probe_ms("point", 0.99)
    out["phase.file_window_p50_ms"] = probe_ms("file_window", 0.50)
    out["phase.build_objs_per_s"] = _ratio(counters.get("built_objects", 0.0), phase_s("build_s"))
    out["phase.join_s"] = phase_s("join_s")
    out["phase.save_s"] = phase_s("save_s")
    out["phase.open_s"] = phase_s("open_s")

    out["obs.shim_overhead_ratio"] = _ratio(traced.seconds, _median(rep.seconds for rep in reps))
    out["obs.attributed_share"] = attribution.attributed_share
    # ru_maxrss is in KiB on Linux.
    out["process.peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.update(extras)
    return out
