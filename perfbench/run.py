"""listchroma benchmark: solve one workload for a fixed time, check every answer.

    python3 perfbench/run.py --workload gcp-lp --seed 1 --seconds 26 --trace 0

Run from the repository root; the solver is imported from ./src. A run repeats
passes over the workload's instances (a closed loop, one client, one instance
at a time), each in a seed-shuffled order, until the next instance would end
after --seconds; the first pass always completes. Times are in reference
seconds (see calibrate.py) and per-instance medians over the run. Every
answer is checked against references.json; grid-oracle also re-proves it with
oracle_solve.

--trace 0 prints the end-to-end metrics. --trace 1 solves every instance of a
pass twice, traced and untraced back to back, prints the per-layer metrics of
the traced solves and the tracing overhead, and writes the spans of the first
pass under perfbench/out/. The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from time import perf_counter

import spans
from calibrate import REFERENCE_S, Calibration
from workloads import WORKLOADS, instance_key, load_references, oracle_checked

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

INSTANCE_TIME_LIMIT_S = 30.0
# No instance starts this long after the first, so a run ends within 180 s even
# when the solver is far slower than expected: a traced instance is solved
# twice, each solve within the time limit. An unfinished pass fails the run.
RUN_DEADLINE_S = 110.0
SETUP_SAMPLES = 5
# The machine's speed is sampled at least this often (at instance boundaries).
CHECKPOINT_EVERY_S = 1.0

# Imports calibrate only after the timed part: it imports numpy and scipy,
# which are part of the cost of importing listchroma.
_SETUP_PROBE = """
import sys, time
sys.path[:0] = [{src!r}, {here!r}]
from workloads import WORKLOADS
start = time.perf_counter()
from listchroma import GenConfig, generate
for cfg in WORKLOADS[{name!r}]:
    generate(GenConfig(**cfg))
elapsed = time.perf_counter() - start
import calibrate
calibrate.kernel()
print(elapsed, calibrate.sample())
"""


def setup_seconds(name: str) -> float:
    """Median, over fresh interpreters, of importing listchroma and generating."""
    code = _SETUP_PROBE.format(src=SRC, here=HERE, name=name)
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
        )
        elapsed, kernel_s = map(float, out.stdout.split())
        samples.append(elapsed * REFERENCE_S / kernel_s)
    return statistics.median(samples)


def check(lc, inst, report, ref) -> bool:
    """The answer is settled, proven, and identical to the reference."""
    if report.status != ref["status"] or report.weight != ref["weight"]:
        return False
    if report.coloring is None:
        return report.status == lc.INFEASIBLE
    try:
        return lc.validate_coloring(inst, report.coloring.as_dict()) == ref["weight"]
    except lc.ColoringError:
        return False


def solve_and_check(lc, inst, ref, use_oracle, solve, oracle_solve) -> tuple[float, bool]:
    """Solve one instance and check the answer; returns (solve seconds, passed)."""
    t0 = perf_counter()
    try:
        report = solve(inst, time_limit=INSTANCE_TIME_LIMIT_S)
    except Exception as exc:  # counted as a failure, the run goes on
        print(f"solve raised {exc!r}", file=sys.stderr)
        return perf_counter() - t0, False
    elapsed = perf_counter() - t0
    if not check(lc, inst, report, ref):
        print(f"got {report.status}/{report.weight}, expected {ref['status']}/{ref['weight']}",
              file=sys.stderr)
        return elapsed, False
    if use_oracle and oracle_solve(inst).optimum != ref["weight"]:
        print("oracle disagrees with the reference", file=sys.stderr)
        return elapsed, False
    return elapsed, True


def run_pass(lc, name, instances, refs, order, clock, calib, tracer=None):
    """Solve the instances once in the given order; returns the pass record.

    The pass stops early, marked incomplete, before an instance that would
    end after clock["stop"] judging by its cost in clock["expected"] (the
    first pass), or at clock["deadline"], which counts as a failure.

    "times" (solve only), "walls" (solve and checks) and "plain" hold reference
    seconds per instance, scaled by `calib`; "cost" and "raw" are wall seconds.
    With a tracer each instance is also solved untraced ("plain"), right before
    or after the traced solve (alternating), so the tracing overhead compares
    solves made under the same machine load. Only the traced solve is re-proved
    by the oracle and counted in the instance's wall time.
    """
    solve, oracle_solve = lc.solve, lc.oracle_solve
    if tracer is not None:
        solve = spans.wrap_solve(tracer, solve)
        oracle_solve = spans.wrap_oracle(tracer, oracle_solve)
    record = {"times": {}, "walls": {}, "plain": {}, "cost": {}, "raw": {}, "failed": 0,
              "complete": True, "tracer": tracer}

    def plain():
        elapsed, ok = solve_and_check(lc, inst, ref, False, lc.solve, None)
        calib.add(record["plain"], key, elapsed)
        return ok

    for pos, i in enumerate(order):
        key, inst = instances[i]
        now = perf_counter()
        if now > clock["deadline"]:
            print("run deadline reached inside a pass", file=sys.stderr)
            record["failed"] += 1
        expected = clock["expected"].get(key)  # unknown during the first pass
        if now > clock["deadline"] or (expected is not None and now + expected > clock["stop"]):
            record["complete"] = False
            break
        ref = refs[key]
        use_oracle = oracle_checked(name, key, refs)
        plain_ok = True
        if tracer is not None and pos % 2 == 0:
            plain_ok = plain()
        if tracer is not None:
            tracer.request = key
        t0 = perf_counter()
        with spans.instrumented(tracer) if tracer is not None else nullcontext():
            elapsed, ok = solve_and_check(lc, inst, ref, use_oracle, solve, oracle_solve)
        wall = perf_counter() - t0
        calib.add(record["times"], key, elapsed)
        calib.add(record["walls"], key, wall)
        record["raw"][key] = wall
        if tracer is not None and pos % 2 == 1:
            plain_ok = plain()
        record["cost"][key] = perf_counter() - now
        if not (ok and plain_ok):
            print(f"{key}: answer failed its check", file=sys.stderr)
            record["failed"] += (not ok) + (not plain_ok)
        if calib.due():
            calib.checkpoint()
    calib.checkpoint()
    return record


def per_instance_medians(passes, field):
    samples: dict[str, list[float]] = {}
    for p in passes:
        for key, value in p[field].items():
            samples.setdefault(key, []).append(value)
    return {key: statistics.median(v) for key, v in samples.items()}


def end_to_end(passes, setup_s):
    times = per_instance_medians(passes, "times")
    attempted = sum(len(p["times"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    values = {
        "time_to_optimal_s": sum(times.values()),
        "verified_s": sum(per_instance_medians(passes, "walls").values()),
        "solve_s.p50": statistics.median(times.values()),
        "solve_s.max": max(times.values()),
        "settled_frac": (attempted - failed) / attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return values, {"solves": attempted, "instances": len(times), "setup_samples": SETUP_SAMPLES}


def pass_layer_metrics(p, units):
    """Per-layer figures of one traced pass, in reference seconds.

    A pass's wall seconds are scaled by one factor, the ratio of its
    instances' reference seconds to their wall seconds, which weights each
    instance's calibration by its share of the pass.
    """
    wall_s = sum(p["raw"].values())
    values = spans.layer_metrics(p["tracer"], wall_s)
    scale = sum(p["walls"].values()) / wall_s
    return {m: v * scale if units[m] == "s" else v for m, v in values.items()}


def per_layer(passes, generate_s, calib, units):
    complete = [p for p in passes if p["complete"]]
    # With no complete pass (the deadline was reached, so the run has failed)
    # the figures come from the first pass as far as it went.
    values = spans.median_metrics([pass_layer_metrics(p, units) for p in complete or passes[:1]])
    values["instgen.generate.s"] = generate_s * REFERENCE_S / calib.samples[0]
    paired = [(p["times"][k], p["plain"][k]) for p in passes for k in p["plain"] if k in p["times"]]
    values["trace.overhead_frac"] = sum(t for t, _ in paired) / sum(u for _, u in paired) - 1
    return values, {"complete_passes": len(complete), "paired_solves": len(paired)}


def load_metric_units(trace: bool) -> dict[str, str]:
    """Units of the metrics this mode must print, from BENCHMARK.json."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "listchroma", "__init__.py")):
        print(f"no listchroma sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import listchroma as lc

    name, trace = args.workload, bool(args.trace)
    units = load_metric_units(trace)
    refs = load_references()
    t0 = perf_counter()
    instances = [(instance_key(cfg), lc.generate(lc.GenConfig(**cfg))) for cfg in WORKLOADS[name]]
    generate_s = perf_counter() - t0
    setup_s = None if trace else setup_seconds(name)

    calib = Calibration(CHECKPOINT_EVERY_S)
    rng = random.Random(args.seed)
    order = list(range(len(instances)))
    passes = []
    start = perf_counter()
    clock = {"stop": start + args.seconds, "deadline": start + RUN_DEADLINE_S, "expected": {}}
    while True:
        rng.shuffle(order)
        passes.append(run_pass(lc, name, instances, refs, order, clock, calib,
                               spans.Tracer() if trace else None))
        clock["expected"] = passes[0]["cost"]
        if not passes[-1]["complete"] or perf_counter() >= clock["stop"]:
            break

    attempted = sum(len(p["times"]) + len(p["plain"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    if trace:
        values, counts = per_layer(passes, generate_s, calib, units)
        os.makedirs(OUT, exist_ok=True)
        passes[0]["tracer"].dump(os.path.join(OUT, f"{name}-seed{args.seed}.spans.jsonl.gz"))
    else:
        values, counts = end_to_end(passes, setup_s)
        counts["verified_wall_s"] = sum(per_instance_medians(passes, "raw").values())
    counts["machine_speed"] = calib.speed()
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")

    print(f"workload {name}: {len(passes)} {'traced ' if trace else ''}passes over "
          f"{len(instances)} instances; {attempted} solves, {failed} failed; "
          + ", ".join(f"{k} {v:g}" for k, v in counts.items()))
    for metric, value in values.items():
        print(f"  {metric:36s} {value:14.6f} {units[metric]}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
