#!/usr/bin/env python3
"""Build and run the dbsim host-speed benchmark for one workload.

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 simbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
simbench/ (which compiles the simulator from src/) into
$CARGO_TARGET_DIR/simbench, default .bench_build/simbench; later calls
rebuild incrementally. The benchmark's inputs are generated from --seed:
the synthetic mixes take the seed as is, and trace_sampled's ChampSim
trace is written by the simulator's own tools/gen_trace into a directory
unique to this process, which is removed afterwards. The trace's SHA-256
is printed with the results.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}. With --trace 0 the metrics are the end-to-end
metrics BENCHMARK.json lists, with --trace 1 the per-layer ones. A run
whose outputs fail a check prints correct: false and exits 1. Without
the simulator sources next to simbench/ it exits 1 and prints no result.
"""

import argparse
import fcntl
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "simbench")
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

# Budget for one run after the build, within the 180 s a run may take.
TIME_LIMIT_S = 170

# gen_trace arguments of the trace-driven workloads' inputs (the seed is
# appended): 400k records, about 25 MB raw.
TRACE_ARGS = {"trace_sampled": ["--records", "400000"]}


def log(msg):
    print(f"simbench: {msg}", file=sys.stderr, flush=True)


def build(targets):
    """Configure (once) and build `targets`, serialised by a lock file."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"simulator sources not found under {ROOT}/src")
        sys.exit(1)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                        *targets], stdout=sys.stderr, check=True)


def expected_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def failed_result():
    return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def make_trace(workload, seed, work):
    """Generate `workload`'s trace for `seed` into `work`; returns its
    path, after printing its SHA-256."""
    path = os.path.join(work, f"{workload}.champsim")
    subprocess.run([os.path.join(BUILD, "gen_trace"), path,
                    *TRACE_ARGS[workload], "--seed", str(seed)],
                   stdout=sys.stderr, check=True)
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    print(f"input trace: {os.path.getsize(path)} bytes, sha256 "
          f"{digest.hexdigest()}", flush=True)
    return path


def run_workload(args, deadline):
    work = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-",
                            dir=os.path.join(BUILD, "work"))
    try:
        cmd = [os.path.join(BUILD, "simbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.workload in TRACE_ARGS:
            try:
                cmd += ["--trace-file",
                        make_trace(args.workload, args.seed, work)]
            except (OSError, subprocess.CalledProcessError) as e:
                log(f"cannot generate the input trace: {e}")
                return failed_result()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, deadline - time.time()))
        except subprocess.TimeoutExpired as e:
            sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes)
                             else e.stdout or "")
            log("run timed out")
            return failed_result()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        for line in lines[-1:]:
            print(line)
        log(f"simbench exited with {proc.returncode} and no result")
        return failed_result()
    if proc.returncode != 0:
        result["correct"] = False
        result["failed"] = max(1, result.get("failed", 0))
    return result


def check_names(result, trace):
    """Every emitted name is well formed and BENCHMARK.json lists it with
    the unit it was emitted with."""
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    bad = [n for n in got if not NAME_RE.fullmatch(n)]
    if bad or got != want:
        log(f"emitted metrics do not match BENCHMARK.json: bad names {bad}, "
            f"missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}, units differ on "
            f"{sorted(n for n in got if n in want and got[n] != want[n])}")
        return False
    return True


def selftest():
    """The unit tests, then every workload briefly in both modes."""
    build(["simbench", "gen_trace", "simbench_tests"])
    for trace in (0, 1):
        bad = [n for n in expected_metrics(trace) if not NAME_RE.fullmatch(n)]
        if bad:
            log(f"BENCHMARK.json has malformed metric names: {bad}")
            return 1
    if subprocess.run([os.path.join(BUILD, "simbench_tests")]).returncode:
        return 1
    os.makedirs(os.path.join(BUILD, "work"), exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    failed = 0
    for name in workloads:
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=1, seconds=1,
                                      trace=trace)
            result = run_workload(args, time.time() + TIME_LIMIT_S)
            ok = result["correct"] and check_names(result, trace)
            log(f"{name} --trace {trace}: {'ok' if ok else 'FAILED'}")
            failed += not ok
    return 1 if failed else 0


def main():
    # SIGTERM unwinds like an exception: subprocess.run kills and reaps
    # the child it is waiting on, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="run the benchmark's own tests, then every workload "
                        "for one second in both modes")
    args = p.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    build(["simbench", "gen_trace"])
    deadline = time.time() + TIME_LIMIT_S
    os.makedirs(os.path.join(BUILD, "work"), exist_ok=True)
    result = run_workload(args, deadline)
    if result["metrics"] and not check_names(result, args.trace):
        result["correct"] = False
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
