"""The benchmark's one command.

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

sets up (three times, for a median set-up time), repeats the workload
for S seconds, checks every answer against the brute-force oracle and
prints each metric as ``workload metric value unit``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics (from one further, traced repetition) with
``--trace 1``.  Without ``--workload`` all five run, traced.
``--selfcheck`` runs two sets and compares them against the bounds.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

_ROOT = Path(__file__).resolve().parent.parent
if not (_ROOT / "src" / "repro").is_dir():
    sys.exit(f"perf: the program's sources ({_ROOT / 'src' / 'repro'}) are not in this checkout")
for _path in (str(_ROOT / "src"), str(_ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perf.calibrate import CAL_REF_S, RefTimer  # noqa: E402
from perf.metrics import END_TO_END, PER_LAYER, end_to_end, per_layer  # noqa: E402
from perf.shim import Shim  # noqa: E402
from perf.workloads import WORKLOADS, make_workload  # noqa: E402

DEFAULT_SEED = 1994
DEFAULT_SECONDS = 12
SETUP_REPEATS = 3
MIN_REPS = 3
BASELINE_PATH = Path(__file__).resolve().parent / "baseline.json"


def measure(name, seed, seconds, reps=None, trace=False, smoke=False, trace_out=None) -> dict:
    """Run one workload; returns its metrics and correctness tally."""
    began = perf_counter()
    timer = RefTimer()
    setup_ref_s, digests = [], set()
    for _ in range(1 if smoke else SETUP_REPEATS):
        workload = None  # drop the previous set-up before building the next
        gc.collect()
        timer.factor()
        workload = make_workload(name, smoke=smoke)
        start = perf_counter()
        workload.setup(seed)
        setup_s = perf_counter() - start
        setup_ref_s.append(setup_s * timer.factor())
        digests.add(workload.digest)
    # The same seed must give the same inputs.
    correct = len(digests) == 1

    workload.expect()
    warm_up = workload.rep()
    attempted, failed = warm_up.attempted, warm_up.failed
    done, factors = [], []
    timer.factor()
    loop_start = perf_counter()
    while True:
        gc.collect()
        done.append(workload.rep())
        factors.append(timer.factor())
        if reps is not None:
            if len(done) >= reps:
                break
        elif len(done) >= MIN_REPS and perf_counter() - loop_start >= seconds:
            break
    extra_attempted, extra_failed = workload.final_check()
    attempted += sum(rep.attempted for rep in done) + extra_attempted
    failed += sum(rep.failed for rep in done) + extra_failed

    result = {
        "workload": name,
        "seed": seed,
        "digest": workload.digest,
        "probe": workload.probe,
        "sizes": workload.sizes,
        "reps": len(done),
        "calibration_loop_s": timer.median_loop_s(),
        "rep_s": [rep.seconds for rep in done],
        "loop_s": list(timer.loop_seconds),
        "end_to_end": end_to_end(setup_ref_s, done, factors),
    }
    if trace:
        shim = Shim()
        gc.collect()
        timer.factor()
        with shim:
            traced = workload.rep()
        traced_factor = timer.factor()
        attempted += traced.attempted
        failed += traced.failed
        attribution = shim.attribute(traced.started, traced.started + traced.seconds)
        untraced_ref_s = statistics.median(rep.seconds * f for rep, f in zip(done, factors))
        extras = workload.traced_extras(timer, untraced_ref_s)
        result["per_layer"] = per_layer(attribution, traced, traced_factor, done, factors, extras)
        result["spans"] = len(shim.spans)
        if trace_out:
            shim.write_chrome_trace(trace_out)
    result.update(
        correct=correct and failed == 0,
        attempted=attempted,
        failed=failed,
        elapsed_s=perf_counter() - began,
    )
    return result


def report(result: dict) -> None:
    """Print ``workload metric value unit`` lines for one result."""
    name = result["workload"]
    sizes = " ".join(f"{k}={v}" for k, v in result["sizes"].items())
    print(f"{name} dataset digest={result['digest']} seed={result['seed']} {sizes}")
    print(f"{name} probe of op_p50_ms: {result['probe']}")
    values = result["end_to_end"]
    for metric, unit, _better, _bound in END_TO_END:
        print(f"{name} {metric} {values[metric]:.6g} {unit}")
    for metric, unit in (("ops_per_s_raw", "1/s"), ("op_p50_ms_raw", "ms")):
        print(f"{name} {metric} {values[metric]:.6g} {unit}")
    for metric, unit, _better in PER_LAYER if "per_layer" in result else ():
        print(f"{name} {metric} {result['per_layer'][metric]:.6g} {unit}")
    share = result["failed"] / result["attempted"]
    print(f"{name} failed_ops_share {share:.6g} ratio ({result['failed']} of {result['attempted']})")
    print(
        f"{name} reps {result['reps']} count "
        f"(calibration loop {result['calibration_loop_s'] * 1000:.1f} ms, "
        f"reference {CAL_REF_S * 1000:.0f} ms; elapsed {result['elapsed_s']:.1f} s)"
    )


def contract_line(result: dict, trace: bool) -> str:
    """The JSON object the driver reads from the last line."""
    if trace:
        metrics = {
            name: {"value": result["per_layer"][name], "unit": unit}
            for name, unit, _better in PER_LAYER
        }
    else:
        metrics = {
            name: {"value": result["end_to_end"][name], "unit": unit}
            for name, unit, _better, _bound in END_TO_END
        }
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def run_set(names, args, trace: bool) -> list[dict]:
    results = []
    for name in names:
        result = measure(
            name,
            args.seed,
            args.seconds,
            reps=args.reps,
            trace=trace,
            smoke=args.smoke,
            # One trace file per workload when several run.
            trace_out=args.trace_out and (
                args.trace_out if len(names) == 1 else f"{args.trace_out}.{name}.json"
            ),
        )
        report(result)
        results.append(result)
    return results


def selfcheck(names, args) -> int:
    """Two full sets with one seed: every end-to-end metric must agree
    within its bound.  The observed differences go into the ``noise``
    block of ``perf/baseline.json``."""
    first = run_set(names, args, trace=False)
    second = run_set(names, args, trace=False)
    noise, exceeded = {}, False
    print("selfcheck: workload metric first second relative-difference bound")
    for a, b in zip(first, second):
        for metric, _unit, _better, bound in END_TO_END:
            x, y = a["end_to_end"][metric], b["end_to_end"][metric]
            difference = abs(x - y) / min(x, y)
            verdict = "ok" if difference <= bound else "EXCEEDS"
            exceeded = exceeded or difference > bound
            noise[f"{a['workload']}.{metric}"] = round(difference, 4)
            print(
                f"selfcheck: {a['workload']} {metric} {x:.6g} {y:.6g} "
                f"{difference:.4f} {bound} {verdict}"
            )
    if not args.smoke:
        baseline = json.loads(BASELINE_PATH.read_text()) if BASELINE_PATH.exists() else {}
        baseline["noise"] = {"seed": args.seed, "seconds": args.seconds, "selfcheck": noise}
        BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
    incorrect = any(not r["correct"] for r in first + second)
    return 1 if exceeded or incorrect else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all five")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--reps", type=int, help="a fixed repetition count instead of --seconds")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (the smoke test)")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--out", help="write the results as JSON")
    parser.add_argument("--trace-out", help="write the traced spans as Chrome trace JSON")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.selfcheck:
        return selfcheck(names, args)
    trace = bool(args.trace) if args.trace is not None else args.workload is None
    results = run_set(names, args, trace)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=2) + "\n")
    if args.workload:
        print(contract_line(results[0], trace))
    else:
        total = sum(r["elapsed_s"] for r in results)
        print(f"all elapsed {total:.1f} s")
        print(
            json.dumps(
                {
                    "correct": all(r["correct"] for r in results),
                    "attempted": sum(r["attempted"] for r in results),
                    "failed": sum(r["failed"] for r in results),
                }
            )
        )
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
