#!/usr/bin/env python3
"""Measure the run-to-run spread of the benchmark's end-to-end metrics.

Run from the repository root:

    python3 perfbench/spread.py --workload served-mixed --seeds 1-10

Runs perfbench/run.py once per seed (sequentially) with BENCHMARK.json's
run_seconds, then prints, for every metric, the median of the runs, the
distance between the first and third quartiles as a share of the median
(statistics.quantiles(values, n=4)), and whether that spread is within a
third of the metric's bound. The raw results are written to
.bench_build/perfbench/spread-<workload>-trace<t>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    runs = []
    for seed in seeds(args.seeds):
        cmd = [sys.executable, os.path.join(here, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        start = time.monotonic()
        out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        wall = time.monotonic() - start
        if out.returncode != 0:
            sys.exit("seed %d failed (exit %d):\n%s" % (seed, out.returncode, out.stderr))
        res = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "wall_s": wall, "result": res})
        print("seed %d: correct=%s attempted=%d failed=%d wall=%.1fs" % (seed, res["correct"], res["attempted"], res["failed"], wall), flush=True)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    names = list(runs[0]["result"]["metrics"])
    print("%-30s %14s %9s %9s %s" % ("metric", "median", "spread", "bound/3", ""))
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "ok" if spread < bound / 3 else "WIDE"
        print("%-30s %14.6g %9.4f %9s %s" % (name, med, spread, "%.4f" % (bound / 3) if bound else "-", verdict))

    out_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "spread-%s-trace%d.json" % (args.workload, args.trace))
    with open(path, "w") as f:
        json.dump(runs, f, indent=1)
    print("raw results:", path)


if __name__ == "__main__":
    main()
