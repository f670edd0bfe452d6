#!/usr/bin/env python3
"""Steadiness check for the dbsim host-speed benchmark.

    python3 simbench/steady.py [--runs 10] [--sets 1] [--workloads a,b]

Runs simbench/run.py --runs times per workload with --trace 0 (seeds 1,
2, ...), workloads interleaved so a slow spell of the host is shared
among them, and repeats that --sets times. For every (end-to-end metric,
workload) pair it prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json:
"ok" within a third of the bound, "fits" within the bound, "WIDE" over
it. With two or more sets it also compares each set's median with the
first set's and flags one that is worse by more than the bound
("DRIFT"). --workloads picks a subset, for a quick look at the noisiest
one while tuning. Run from the root of a checkout. Exits 1 if any run
failed or any pair is WIDE or DRIFTs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    start = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False}
    print(f"  {workload:14s} seed {seed:4d}: {time.time() - start:6.1f} s, "
          f"{'ok' if result.get('correct') else 'FAILED'}", flush=True)
    return result


def worse_by(first, later, better):
    """Relative amount by which `later` is worse than `first`."""
    if first == 0:
        return 0.0
    delta = (later - first) / abs(first)
    return -delta if better == "higher" else delta


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--workloads", default="")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]

    # values[set][workload][metric] -> list of values
    values = []
    failures = 0
    for s in range(args.sets):
        print(f"set {s + 1} of {args.sets}", flush=True)
        per = {w: {m["name"]: [] for m in metrics} for w in workloads}
        for i in range(args.runs):
            for w in workloads:
                res = run_once(w, i + 1, spec["run_seconds"])
                if not res.get("correct"):
                    failures += 1
                    continue
                for name, v in res["metrics"].items():
                    per[w][name].append(v["value"])
        values.append(per)
    bad = 0
    print(f"\n{'metric':28s} {'workload':14s} {'set':>3s} {'n':>3s} "
          f"{'median':>13s} {'q1':>13s} {'q3':>13s} {'spread':>8s} "
          f"{'bound':>6s} verdict")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        for w in workloads:
            first_median = None
            for s, per in enumerate(values):
                v = per[w][name]
                if len(v) < 2:
                    print(f"{name:28s} {w:14s} {s + 1:3d} {len(v):3d} "
                          "too few runs")
                    bad += 1
                    continue
                q1, med, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med if med else 0.0
                if spread <= bound / 3:
                    verdict = "ok"
                elif spread <= bound:
                    verdict = "fits"
                else:
                    verdict = "WIDE"
                    bad += 1
                if first_median is None:
                    first_median = med
                else:
                    drift = worse_by(first_median, med, m["better"])
                    if drift > bound:
                        verdict += f" DRIFT {drift:+.3f}"
                        bad += 1
                    else:
                        verdict += f" drift {drift:+.3f}"
                print(f"{name:28s} {w:14s} {s + 1:3d} {len(v):3d} "
                      f"{med:13.6g} {q1:13.6g} {q3:13.6g} {spread:8.4f} "
                      f"{bound:>6} {verdict}")
    print(f"\n{failures} failed runs, {bad} pairs out of bounds")
    return 1 if failures or bad else 0


if __name__ == "__main__":
    sys.exit(main())
