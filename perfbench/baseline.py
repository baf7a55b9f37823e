#!/usr/bin/env python3
"""Measure the baseline and its steadiness into spec.json.

    python3 perfbench/baseline.py [--section baseline]

For each workload of BENCHMARK.json: the fixture sizes at the default
seed, RUNS untraced runs of run_seconds each on seeds 1..RUNS, and two
traced runs at the default seed. Writes, per workload, every end-to-end
value with its median, quartiles and spread (IQR / median) against its
bound, the per-module values of the traced run, and whether the
per-module counts of the two traced runs are equal. The rest of spec.json
is left as is.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time

import run

SPEC = run.HERE / "spec.json"
RUNS = 10


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: {proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} failed:\n{proc.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "bound": bound, "values": values}


def fixtures(workload):
    work = run.ROOT / ".bench_work" / "baseline"
    try:
        ctx = run.set_up(workload, run.DEFAULT_SEED, work)[0]
        return ctx.fixtures
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(workload):
    bounds = {m["name"]: m["bound"] for m in run.BENCHMARK["end_to_end"]}
    seeds = list(range(1, RUNS + 1))
    results = [bench(workload, seed, 0) for seed in seeds]
    traced = [bench(workload, run.DEFAULT_SEED, 1) for _ in range(2)]
    counts = [name for name, unit in run.PER_LAYER if unit == "count"]
    return {
        "fixtures_at_default_seed": fixtures(workload),
        "seeds": seeds,
        "end_to_end": {name: spread([r[name] for r in results], bound)
                       for name, bound in bounds.items()},
        "per_layer_at_default_seed": traced[0],
        "counts_repeat_exactly": all(
            traced[0][n] == traced[1][n] for n in counts),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--section", default="baseline",
                    help="spec.json key to write, e.g. a repeat set")
    args = ap.parse_args()
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    for workload in (w["name"] for w in run.BENCHMARK["workloads"]):
        start = time.perf_counter()
        section = spec.setdefault(args.section, {})
        section[workload] = measure(workload)
        SPEC.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
        print(f"{workload}: {time.perf_counter() - start:.0f} s")
        for name, s in section[workload]["end_to_end"].items():
            print(f"  {name} median {s['median']:.4f} spread "
                  f"{s['spread']:.4f} bound {s['bound']}")


if __name__ == "__main__":
    main()
