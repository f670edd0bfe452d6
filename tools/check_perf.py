#!/usr/bin/env python3
"""Host-performance regression gate for the simulation kernel.

Runs bench/host_perf (which times three representative mechanism x mix
simulations and reports events/sec over the kernel's deterministic
dispatched-event count) and compares every point against the committed
baseline, BENCH_host_perf.json at the repo root. A point that comes in
more than TOLERANCE slower than its baseline events/sec fails the gate.
Baseline points carrying "gate": false are recorded and printed but
never gated — a new point enters the baseline that way and becomes
binding only after the next intentional re-baseline.

The bench already takes the fastest of three repeats per point; this
script adds a retry layer on top — a whole extra bench run before
declaring failure — so a transiently loaded CI host does not fail the
gate spuriously while a real hot-path regression still does.

Usage: check_perf.py <host_perf_binary> <baseline.json> <workdir>

Environment:
  DBSIM_PERF_TOLERANCE   fractional allowed slowdown (default 0.15)

Re-baselining (after an intentional kernel change): run
`build/bench/host_perf --no-progress` from the repo root on a quiet
machine and commit the rewritten BENCH_host_perf.json (see DESIGN.md
section 11).
"""

import json
import os
import subprocess
import sys


def run_bench(binary, workdir):
    out = os.path.join(workdir, "host_perf_current.json")
    subprocess.run([binary, out, "--no-progress"], cwd=workdir,
                   check=True, stdout=subprocess.DEVNULL)
    with open(out) as f:
        doc = json.load(f)
    return {p["name"]: p for p in doc["points"]}


def check_host_profile(current):
    """Schema-check the informational hostProfile blocks.

    Profiled attribution rides along with the gate numbers but is never
    gated: wall-time values are noisy by nature. What IS checked (and
    fails) is the shape — a point that carries a hostProfile must name
    its run time, its one shard, and that shard's work/events/dispatch —
    since a malformed block means a code bug, not a slow host. The
    work ~= run accounting identity is reported as a warning only.
    """
    errors = []
    for name, point in sorted(current.items()):
        prof = point.get("hostProfile")
        if prof is None:
            continue  # profiler compiled out: fine
        for key in ("runMs", "shards"):
            if not isinstance(prof.get(key), (int, float)):
                errors.append(f"{name}: hostProfile.{key} missing")
        if prof.get("shards") != 1:
            errors.append(f"{name}: hostProfile.shards = "
                          f"{prof.get('shards')}, expected 1 (one queue)")
            continue
        for key in ("s0.workMs", "s0.events", "s0.dispatchMs"):
            if not isinstance(prof.get(key), (int, float)):
                errors.append(f"{name}: hostProfile.{key} missing")
        run_ms = float(prof.get("runMs", 0.0))
        work_ms = float(prof.get("s0.workMs", 0.0))
        # The engine loop is the whole run, so its work span ~= runMs.
        # Warn-only: a loaded host can legitimately stretch the gap.
        if run_ms > 0 and abs(work_ms - run_ms) > 0.3 * run_ms + 5.0:
            print(f"  note: {name} hostProfile work {work_ms:.1f} ms vs "
                  f"run {run_ms:.1f} ms (loaded host?)")
    if errors:
        for e in errors:
            print(f"FAIL: {e}", file=sys.stderr)
        return False
    profiled = sum(1 for p in current.values() if "hostProfile" in p)
    print(f"host-profile schema: ok ({profiled}/{len(current)} points "
          f"carry attribution)")
    return True


def check_ingest(current):
    """Schema-check the trace_ingest point's extra metrics.

    The ingest point records trace-op throughput in both execution
    modes. Its absolute numbers are ungated (host-dependent), but the
    shape is code, not noise: every field must be present and positive,
    and the fast-forward mode must actually be faster than detailed
    simulation — a "speedup" below 1 means the functional path broke.
    """
    point = current.get("trace_ingest")
    if point is None:
        return True  # absent from this bench build: nothing to check
    errors = []
    for key in ("opsDetailed", "opsPerSecDetailed", "ffOps",
                "ffSeconds", "opsPerSecFF", "ffSpeedup"):
        v = point.get(key)
        if not isinstance(v, (int, float)) or v <= 0:
            errors.append(f"trace_ingest: {key} = {v!r}")
    speedup = point.get("ffSpeedup", 0)
    if isinstance(speedup, (int, float)) and 0 < speedup < 1.0:
        errors.append(f"trace_ingest: fast-forward SLOWER than detailed "
                      f"(ffSpeedup = {speedup:.2f})")
    if errors:
        for e in errors:
            print(f"FAIL: {e}", file=sys.stderr)
        return False
    print(f"trace-ingest schema: ok (fast-forward "
          f"{float(point['ffSpeedup']):.1f}x detailed)")
    return True


def main():
    if len(sys.argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    binary, baseline_path, workdir = sys.argv[1:4]
    tolerance = float(os.environ.get("DBSIM_PERF_TOLERANCE", "0.15"))
    os.makedirs(workdir, exist_ok=True)

    with open(baseline_path) as f:
        baseline = {p["name"]: p for p in json.load(f)["points"]}

    attempts = 2
    failures = []
    best = {}  # per-point fastest events/sec seen across attempts
    for attempt in range(1, attempts + 1):
        current = run_bench(binary, workdir)

        missing = sorted(set(baseline) - set(current))
        if missing:
            print(f"FAIL: baseline points missing from bench output: "
                  f"{', '.join(missing)}", file=sys.stderr)
            return 1

        if attempt == 1 and not check_host_profile(current):
            return 1
        if attempt == 1 and not check_ingest(current):
            return 1

        failures = []
        print(f"attempt {attempt}/{attempts} "
              f"(tolerance {tolerance:.0%}):")
        for name, base in sorted(baseline.items()):
            cur_eps = float(current[name]["eventsPerSec"])
            best[name] = max(best.get(name, 0.0), cur_eps)
            base_eps = float(base["eventsPerSec"])
            if not base.get("gate", True):
                # Recorded but not yet gated: a point enters the
                # baseline with "gate": false and starts failing runs
                # only after the next intentional re-baseline.
                print(f"  {name:<24} baseline {base_eps:>12,.0f} ev/s   "
                      f"best {best[name]:>12,.0f} ev/s   "
                      f"(recorded, not gated)")
                continue
            ratio = best[name] / base_eps
            ok = ratio >= 1.0 - tolerance
            print(f"  {name:<24} baseline {base_eps:>12,.0f} ev/s   "
                  f"best {best[name]:>12,.0f} ev/s   "
                  f"{ratio:6.2%}  {'ok' if ok else 'REGRESSED'}")
            if not ok:
                failures.append(name)
        if not failures:
            print("host-perf gate: ok")
            return 0
        if attempt < attempts:
            print("regression seen; retrying once in case the host "
                  "was transiently loaded...")

    print(f"FAIL: host-perf regression >{tolerance:.0%} on: "
          f"{', '.join(failures)}", file=sys.stderr)
    print("If the slowdown is intentional, re-baseline: run "
          "build/bench/host_perf --no-progress from the repo root and "
          "commit BENCH_host_perf.json.", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
