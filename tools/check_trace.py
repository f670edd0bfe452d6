#!/usr/bin/env python3
"""Validate the telemetry artifacts of a short traced simulation.

Runs `diag_run` (path given as argv[1]) on a configuration that is known
to trigger DRAM write-queue drains (TA-DIP, one core, lbm), with the
epoch sampler, histograms, and the Chrome-trace writer all enabled, then
checks the three artifacts against their schemas:

  1. the experiment JSONL record (drain totals from both sides of the
     DramObserver seam must agree exactly, histogram summaries present),
  2. the Chrome trace-event JSON (well-formed events; the sum of traced
     drain-window durations must equal the controller's own
     dram.drainCycles counter, event-by-event and in the footer),
  3. the epoch time-series JSONL (one parseable row per epoch, epochs
     contiguous and strictly ordered, all registered channels present).

Then runs a second, *sharded* leg — the flight-recorder check: the same
binary at --slices 4 --channels 4 with --trace-out and --profile,
which must produce ONE merged trace (the per-shard .s<k> streams folded
together, pid = shard) whose cross-shard flow arrows pair up exactly:

  4. every flow-begin ("s") has exactly one flow-end ("f") with the same
     id on a *different* shard's process track, every pair is separated
     by the machine's single hop latency, the pair count matches the
     footer's fabricFlowsBegun/Bound totals, and every shard contributes
     process_name metadata and a fabric track;
  5. the profiler attribution in the JSONL record accounts for the run:
     per shard, workMs + stallMs lands within tolerance of profile.runMs
     (the identity holds by construction — both sides are measured by
     the same engine — so the tolerance only absorbs setup/teardown).

Exit code 0 means every check passed. Used as a ctest target
(telemetry_trace_check); runnable standalone:

    python3 tools/check_trace.py build/bench/diag_run [workdir]
"""

import json
import pathlib
import subprocess
import sys

WARMUP = 400_000
MEASURE = 400_000
SAMPLE_EVERY = 50_000

_failures = []


def check(cond, msg):
    if not cond:
        _failures.append(msg)
        print(f"FAIL: {msg}", file=sys.stderr)


def run_diag(binary, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "record": workdir / "check_trace.jsonl",
        "trace": workdir / "check_trace.trace.json",
        "timeseries": workdir / "check_trace_timeseries.jsonl",
    }
    cmd = [
        str(binary), "TA-DIP", "1", "lbm",
        "--warmup", str(WARMUP), "--measure", str(MEASURE),
        "--sample", str(SAMPLE_EVERY),
        "--timeseries", str(paths["timeseries"]),
        "--trace-out", str(paths["trace"]),
        "--hist",
        "--json", str(paths["record"]),
        "--no-progress",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        sys.exit(f"diag_run exited {proc.returncode}")
    return paths


def check_record(path):
    lines = path.read_text().splitlines()
    check(len(lines) == 1, f"expected 1 JSONL record, got {len(lines)}")
    rec = json.loads(lines[0])
    m = rec["metrics"]
    stats = rec["stats"]

    traced = m.get("drainCyclesTraced")
    total = m.get("dramDrainCyclesTotal")
    windows = m.get("drainWindowsTraced")
    check(traced is not None, "record missing drainCyclesTraced")
    check(total is not None, "record missing dramDrainCyclesTotal")
    check(traced == total,
          f"drain-sum invariant: traced {traced} != dram.drainCycles "
          f"{total}")
    check(windows == stats.get("dram.drains"),
          f"drain windows {windows} != dram.drains stat "
          f"{stats.get('dram.drains')}")
    check(windows and windows > 0,
          "config did not drain; invariant checked vacuously")

    for h in ("hist.lat.readMiss.count", "hist.wb.dirtyBlocksPerRow.p50",
              "hist.drain.burstWrites.count"):
        check(h in m, f"record missing histogram summary {h}")
    check(m.get("hist.drain.burstWrites.count") == windows,
          "drain burst histogram count != traced windows")
    # Fig. 2: the median dirty-eviction writeback finds more than one
    # dirty block in its DRAM row.
    check(m.get("hist.wb.dirtyBlocksPerRow.p50", 0) > 1,
          "dirty-blocks-per-row median not > 1")
    return rec


def check_trace_file(path, rec):
    doc = json.loads(path.read_text())
    for key in ("traceEvents", "otherData", "displayTimeUnit"):
        check(key in doc, f"trace missing top-level {key}")
    events = doc["traceEvents"]
    check(len(events) > 0, "trace has no events")

    drain_dur = 0
    drain_events = 0
    thread_names = set()
    for e in events:
        ph = e.get("ph")
        check(ph in ("M", "X", "i", "C", "s", "f"),
              f"unknown event phase {ph!r}")
        check("name" in e and "pid" in e, f"event missing name/pid: {e}")
        if ph == "M":
            check(e["name"] in ("thread_name", "process_name"),
                  "unexpected metadata event")
            if e["name"] == "thread_name":
                thread_names.add(e["args"]["name"])
        if ph in ("X", "i", "C"):
            check(e.get("ts", -1) >= 0, f"event missing/negative ts: {e}")
        if ph == "X":
            check(e.get("dur", -1) >= 0, f"X event bad dur: {e}")
            if e.get("cat") == "dram" and e["name"] == "drain":
                drain_dur += e["dur"]
                drain_events += 1
                check(e["args"]["writes"] > 0, "drain window with 0 writes")

    check("dram" in thread_names, "no dram thread_name metadata")
    other = doc["otherData"]
    check(other.get("telemetry.drainCyclesTraced") ==
          other.get("dram.drainCycles"),
          f"footer drain-sum invariant: "
          f"{other.get('telemetry.drainCyclesTraced')} != "
          f"{other.get('dram.drainCycles')}")
    check(drain_dur == other.get("dram.drainCycles"),
          f"sum of drain X-event durations {drain_dur} != "
          f"dram.drainCycles {other.get('dram.drainCycles')}")
    check(drain_events == other.get("dram.drains"),
          f"{drain_events} drain events != dram.drains "
          f"{other.get('dram.drains')}")
    check(drain_dur == rec["metrics"]["drainCyclesTraced"],
          "trace drain durations disagree with the JSONL record")


def check_timeseries(path):
    rows = [json.loads(l) for l in path.read_text().splitlines()]
    check(len(rows) >= 2, f"expected several epochs, got {len(rows)}")
    channels = {"dirtyBlocks", "writeQueueDepth", "readQueueDepth",
                "drainMode", "dramReads", "dramWrites",
                "llcDemandMisses", "llcWbToDram", "readRowHitRate",
                "writeRowHitRate"}
    prev = None
    for row in rows:
        for key in ("epoch", "start", "end", "values"):
            check(key in row, f"epoch row missing {key}: {row}")
        missing = channels - row["values"].keys()
        check(not missing, f"epoch row missing channels {sorted(missing)}")
        check(row["end"] > row["start"], f"empty epoch span: {row}")
        if prev is not None:
            check(row["epoch"] == prev["epoch"] + 1,
                  f"epoch indices not consecutive: {prev['epoch']} -> "
                  f"{row['epoch']}")
            check(row["start"] == prev["end"],
                  f"epochs not contiguous: {prev['end']} -> "
                  f"{row['start']}")
        prev = row
    total_writes = sum(r["values"]["dramWrites"] for r in rows)
    check(total_writes > 0, "no DRAM writes sampled over the whole run")


SHARDS = 4


def check_trace_schema_only(path):
    """Generic event-schema pass (no drain bookkeeping), any trace."""
    doc = json.loads(path.read_text())
    for key in ("traceEvents", "otherData", "displayTimeUnit"):
        check(key in doc, f"trace missing top-level {key}")
    for e in doc["traceEvents"]:
        ph = e.get("ph")
        check(ph in ("M", "X", "i", "C", "s", "f"),
              f"unknown event phase {ph!r}")
        check("name" in e and "pid" in e, f"event missing name/pid: {e}")
        if ph in ("X", "i", "C", "s", "f"):
            check(e.get("ts", -1) >= 0, f"event missing/negative ts: {e}")
        if ph == "X":
            check(e.get("dur", -1) >= 0, f"X event bad dur: {e}")


def run_diag_sharded(binary, workdir):
    """The flight-recorder leg: sharded machine, tracing + profiling."""
    paths = {
        "record": workdir / "check_fr.jsonl",
        "trace": workdir / "check_fr.trace.json",
    }
    cmd = [
        str(binary),  # default mech/mix: DBI+AWB+CLB, 2 cores
        "--slices", str(SHARDS), "--channels", str(SHARDS),
        "--instrs", "100000",
        "--trace-out", str(paths["trace"]),
        "--profile",
        "--json", str(paths["record"]),
        "--no-progress",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        sys.exit(f"sharded diag_run exited {proc.returncode}")
    return paths


def check_merged_trace(path):
    """Checks 4: the merged trace's flow arrows pair across shards."""
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    other = doc["otherData"]

    pids = {e["pid"] for e in events}
    check(pids == set(range(SHARDS)),
          f"merged trace pids {sorted(pids)} != shards "
          f"{list(range(SHARDS))}")

    proc_names = {}
    fabric_tracks = set()
    begins = {}
    ends = {}
    for e in events:
        ph = e.get("ph")
        if ph == "M" and e["name"] == "process_name":
            proc_names[e["pid"]] = e["args"]["name"]
        if ph == "M" and e["name"] == "thread_name" \
                and e["args"]["name"] == "fabric":
            fabric_tracks.add(e["pid"])
        if ph in ("s", "f"):
            check("id" in e, f"flow event without id: {e}")
            side = begins if ph == "s" else ends
            check(e["id"] not in side,
                  f"duplicate flow-{ph} for id {e['id']}")
            side[e["id"]] = e

    for s in range(SHARDS):
        check(proc_names.get(s) == f"shard {s}",
              f"pid {s} process_name is {proc_names.get(s)!r}")
        check(s in fabric_tracks, f"shard {s} has no fabric track")

    check(len(begins) > 0, "merged trace has no cross-shard flows")
    check(set(begins) == set(ends),
          f"{len(set(begins) ^ set(ends))} flow ids missing their "
          f"other half")
    hops = set()
    cross = 0
    for fid, b in begins.items():
        e = ends.get(fid)
        if e is None:
            continue
        if b["pid"] != e["pid"]:
            cross += 1
        hops.add(e["ts"] - b["ts"])
    check(cross == len(begins),
          f"only {cross}/{len(begins)} flows cross shards")
    check(len(hops) == 1 and min(hops) > 0,
          f"flow latencies not one positive hop: {sorted(hops)[:5]}")

    begun = sum(other.get(f"s{s}.telemetry.fabricFlowsBegun", 0)
                for s in range(SHARDS))
    bound = sum(other.get(f"s{s}.telemetry.fabricFlowsBound", 0)
                for s in range(SHARDS))
    check(begun == len(begins),
          f"footer fabricFlowsBegun {begun} != {len(begins)} flow-begin "
          f"events")
    check(bound == len(ends),
          f"footer fabricFlowsBound {bound} != {len(ends)} flow-end "
          f"events")
    return len(begins)


def check_profile(record_path):
    """Check 5: profiler work+stall accounts for the run, per shard."""
    rec = json.loads(record_path.read_text().splitlines()[0])
    host = rec.get("host", {})
    prof = {k[len("profile."):]: v for k, v in host.items()
            if k.startswith("profile.")}
    if not prof:
        # Profiler compiled out (DBSIM_TELEMETRY=OFF): nothing to check.
        print("check_trace: no profile data (profiler compiled out)")
        return 0
    check(prof.get("shards") == SHARDS,
          f"profile.shards {prof.get('shards')} != {SHARDS}")
    run_ms = prof.get("runMs", 0)
    check(run_ms > 0, "profile.runMs missing or zero")
    for s in range(SHARDS):
        work = prof.get(f"s{s}.workMs")
        stall = prof.get(f"s{s}.stallMs")
        check(work is not None and stall is not None,
              f"profile missing s{s}.workMs/stallMs")
        if work is None or stall is None or run_ms <= 0:
            continue
        gap = abs((work + stall) - run_ms)
        check(gap <= 0.35 * run_ms + 10.0,
              f"s{s} work+stall {work + stall:.1f} ms vs runMs "
              f"{run_ms:.1f} ms: identity violated")
        check(prof.get(f"s{s}.epochs", 0) > 0, f"s{s} saw no epochs")
    check(prof.get("fabricDrainMs") is not None,
          "profile missing fabricDrainMs")
    return run_ms


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    binary = pathlib.Path(sys.argv[1])
    if not binary.exists():
        sys.exit(f"no such binary: {binary}")
    workdir = pathlib.Path(sys.argv[2] if len(sys.argv) > 2
                           else "trace_check")

    paths = run_diag(binary, workdir)
    for name, p in paths.items():
        check(p.exists(), f"diag_run produced no {name} file at {p}")
    if _failures:
        sys.exit(f"{len(_failures)} check(s) failed")

    rec = check_record(paths["record"])
    check_trace_file(paths["trace"], rec)
    check_timeseries(paths["timeseries"])

    fr_paths = run_diag_sharded(binary, workdir)
    for name, p in fr_paths.items():
        check(p.exists(), f"sharded diag_run produced no {name} at {p}")
    flows = 0
    if fr_paths["trace"].exists():
        flows = check_merged_trace(fr_paths["trace"])
        # The merged doc must still satisfy the generic trace schema.
        check_trace_schema_only(fr_paths["trace"])
    if fr_paths["record"].exists():
        check_profile(fr_paths["record"])

    if _failures:
        sys.exit(f"{len(_failures)} check(s) failed")
    print(f"check_trace: all checks passed "
          f"({rec['metrics']['drainWindowsTraced']:.0f} drain windows, "
          f"{rec['metrics']['drainCyclesTraced']:.0f} drain cycles, "
          f"{flows} cross-shard flows)")


if __name__ == "__main__":
    main()
