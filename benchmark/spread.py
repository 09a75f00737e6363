#!/usr/bin/env python3
"""Runs the driver's form of the benchmark on several seeds per workload and
prints, for each end-to-end metric, the spread the acceptance check computes:
the distance between the first and third quartile of the values
(statistics.quantiles, n=4) as a share of their median, against the metric's
bound and a third of it.

    python3 benchmark/spread.py [--seeds 10] [--first-seed 1] [--workload W] [--out FILE]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = json.load(open(os.path.join(root, "BENCHMARK.json")))

parser = argparse.ArgumentParser()
parser.add_argument("--seeds", type=int, default=10)
parser.add_argument("--first-seed", type=int, default=1)
parser.add_argument("--workload", action="append")
parser.add_argument("--out", help="also write every run's values here as JSON")
args = parser.parse_args()

workloads = args.workload or [w["name"] for w in spec["workloads"]]
values = {}
worst = 0.0
for workload in workloads:
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(f"{' '.join(cmd)} exited {done.returncode}\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
        line = json.loads(done.stdout.strip().splitlines()[-1])
        if not line["correct"]:
            sys.exit(f"{workload} seed {seed}: not correct")
        runs.append({k: v["value"] for k, v in line["metrics"].items()} | {"failed": line["failed"]})
    values[workload] = runs
    print(f"\n{workload}: {len(runs)} seeds, failed ops per rep {sorted(set(r['failed'] for r in runs))}")
    for m in spec["end_to_end"]:
        xs = [r[m["name"]] for r in runs]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        verdict = "ok" if spread <= m["bound"] / 3 else ("WIDE" if spread <= m["bound"] else "OVER BOUND")
        if m["name"] != "setup_s":
            worst = max(worst, spread / m["bound"])
        print(f"  {m['name']:22} median {med:14.6g}  min {min(xs):12.6g}  max {max(xs):12.6g}  "
              f"spread {spread:7.2%}  bound {m['bound']:4.0%}  {verdict}")
print(f"\nworst spread/bound (setup_s aside): {worst:.2f} (goal: below 0.33)")
if args.out:
    json.dump(values, open(args.out, "w"), indent=1)
