/**
 * @file
 * simbench: how fast does dbsim simulate? One process runs one workload
 * as a closed loop with one caller — each System::run() starts after
 * the previous one ended — for a fixed number of host seconds, checks
 * every run's simulated output, and prints its metrics. The last line of
 * stdout is one JSON object; the lines before it are for people.
 *
 *   simbench --workload NAME --seed N --seconds S --trace 0|1
 *            [--trace-file FILE]
 *
 * --trace 0 reports the end-to-end metrics of untraced System runs.
 * --trace 1 reports per-layer metrics: on single-shard workloads from
 * the seam-shimmed traced composition (traced.hh), on the sliced
 * machine from System's own host profiler. trace_sampled replays
 * --trace-file, generated from the same seed by run.py. See
 * simbench/README.md for every metric.
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "sim/system.hh"
#include "spans.hh"
#include "traced.hh"
#include "workloads.hh"

using namespace dbsim;
using namespace simbench;

namespace {

/** Repeats a run always makes, however short --seconds is. */
constexpr int kMinRepeats = 3;

/**
 * Quantile of the repeats' run() durations the simulation-speed metrics
 * report (of a rate: 1 - kSlowTail). On a shared 4-vCPU Xeon VM host
 * speed flips between a slow and a fast state (up to 1.75x apart) many
 * times a minute, in a mix that changes from run to run. A run's median
 * moves with that mix; the floor of the slow state does not. Over six
 * 25 s runs of read_chase_1c with ~470 repeats each, the rate spread
 * (q3 - q1) / median 0.29 at the median and 0.06 at this quantile.
 * setup_s is reported at the median.
 */
constexpr double kSlowTail = 0.95;

/**
 * System constructions timed per repeat; the last one runs. setup_s is
 * the median over all of them. A construction is a fraction of a
 * millisecond on the single-shard machines, so one per repeat leaves a
 * run only a few dozen samples of a very short interval.
 */
constexpr int kSetupsPerRepeat = 4;

/** Audit interval of the untimed audited pass (System's default). */
constexpr std::uint64_t kAuditEvery = 4096;

/**
 * Largest share of the traced wall time the per-layer self times may
 * leave unattributed (the recorder's own work between spans), taken
 * over the median traced run.
 */
constexpr double kSelfSumTolerance = 0.05;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string traceFile;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "simbench: %s\nusage: simbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--trace-file FILE]\n",
                 msg);
    std::exit(2);
}

std::uint64_t
parseUint(const char *flag, const char *text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || text[0] == '-') {
        usage((std::string(flag) + " expects an unsigned integer").c_str());
    }
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) {
            usage(("missing value for " + a).c_str());
        }
        const char *v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = parseUint("--seed", v);
        } else if (a == "--seconds") {
            o.seconds = static_cast<double>(parseUint("--seconds", v));
        } else if (a == "--trace") {
            o.trace = static_cast<int>(parseUint("--trace", v));
        } else if (a == "--trace-file") {
            o.traceFile = v;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
        usage(("unknown workload '" + o.workload + "'").c_str());
    }
    if (o.trace != 0 && o.trace != 1) {
        usage("--trace is 0 or 1");
    }
    return o;
}

double
wallS()
{
    return static_cast<double>(nowNs()) * 1e-9;
}

/** Process CPU time (user + system, all threads), seconds. */
double
cpuS()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/**
 * Peak resident set of this process so far, MiB: VmHWM of its address
 * space. getrusage's ru_maxrss would not do: Linux carries it across
 * exec, so it would report the launching Python process's peak.
 */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    fatal_if(!f, "cannot read /proc/self/status");
    char line[256];
    double kib = 0;
    while (std::fgets(line, sizeof(line), f)) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            kib = std::strtod(line + 6, nullptr);
            break;
        }
    }
    std::fclose(f);
    fatal_if(kib <= 0, "no VmHWM in /proc/self/status");
    return kib / 1024.0;
}

double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** The metrics of one process, in print order. */
class Report
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        entries.push_back({name, value, unit});
    }

    /**
     * A timing over the process's repeats, reported at quantile `q`; the
     * median, quartiles and extremes go to the log.
     */
    void
    addSamples(const std::string &name, const std::vector<double> &v,
               const char *unit, double q)
    {
        const double value = quantile(v, q);
        std::printf("  %-28s value %-14.6g median %-14.6g q1 %-14.6g "
                    "q3 %-14.6g min %-14.6g max %-14.6g n=%zu %s\n",
                    name.c_str(), value, median(v), quantile(v, 0.25),
                    quantile(v, 0.75), *std::min_element(v.begin(), v.end()),
                    *std::max_element(v.begin(), v.end()), v.size(), unit);
        add(name, value, unit);
    }

    void
    print(bool correct, std::uint64_t attempted, std::uint64_t failed) const
    {
        std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                    ", \"failed\": %" PRIu64 ", \"metrics\": {",
                    correct ? "true" : "false", attempted, failed);
        for (std::size_t i = 0; i < entries.size(); ++i) {
            const Entry &e = entries[i];
            const double v = std::isfinite(e.value) ? e.value : 0.0;
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", e.name.c_str(), v, e.unit);
        }
        std::printf("}}\n");
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        const char *unit;
    };
    std::vector<Entry> entries;
};

/**
 * Run accounting and the reference every run's output must match. A run
 * counts as failed once, however many of its checks fail.
 */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool haveRef = false;
    bool lastFailed = false;  ///< the latest run already counts as failed
    Fingerprint ref;

    /** A run finished with fingerprint `fp`. */
    void
    expect(const Fingerprint &fp, const char *what)
    {
        ++attempted;
        lastFailed = false;
        if (!haveRef) {
            ref = fp;
            haveRef = true;
            std::printf("fingerprint: %s\n", fp.str().c_str());
            return;
        }
        expectTrue(fp == ref, std::string(what) + " fingerprint differs\n"
                              "  want " + ref.str() + "\n  got  " + fp.str());
    }

    /** A further check on the latest run. */
    void
    expectTrue(bool ok, const std::string &what)
    {
        if (ok) {
            return;
        }
        std::printf("CHECK FAILED: %s\n", what.c_str());
        if (!lastFailed) {
            ++failed;
            lastFailed = true;
        }
    }
};

/** One untimed System run with the invariant auditor on. */
void
auditedPass(const Workload &w, Checks &checks)
{
    SystemConfig cfg = w.cfg;
    cfg.auditEvery = kAuditEvery;
    const double t0 = wallS();
    System sys(cfg, w.mix);
    SimResult res = sys.run();
    checks.expect(fingerprintOf(sys, res), "audited run");
    std::printf("audited run: %.2f s\n", wallS() - t0);
}

/** SimResult::hostProfile of a profiled run. */
using Profile = std::map<std::string, double>;

/** Samples of a closed loop of System runs. */
struct SystemSamples
{
    std::vector<double> setupS;
    std::vector<double> runS;
    std::vector<double> cpuS;
    MachineCounts counts;    ///< of the first run
    std::vector<Profile> profiles;
};

/**
 * Closed loop of System runs until `seconds` of host time have passed
 * (at least kMinRepeats runs). Only construction and run() are timed.
 */
SystemSamples
runSystemLoop(const Workload &w, double seconds, bool profile,
              Checks &checks)
{
    SystemSamples out;
    SystemConfig cfg = w.cfg;
    cfg.profile = profile;
    const double deadline = wallS() + seconds;
    do {
        std::unique_ptr<System> sys;
        for (int i = 0; i < kSetupsPerRepeat; ++i) {
            sys.reset();
            const double t0 = wallS();
            sys = std::make_unique<System>(cfg, w.mix);
            out.setupS.push_back(wallS() - t0);
        }
        const double t1 = wallS();
        const double c1 = cpuS();
        SimResult res = sys->run();
        const double t2 = wallS();
        const double c2 = cpuS();
        out.runS.push_back(t2 - t1);
        out.cpuS.push_back(c2 - c1);
        checks.expect(fingerprintOf(*sys, res), "System run");
        if (out.runS.size() == 1) {
            out.counts = countsOf(*sys, w);
        }
        if (profile) {
            out.profiles.push_back(res.hostProfile);
        }
    } while (wallS() < deadline ||
             out.runS.size() < static_cast<std::size_t>(kMinRepeats));
    return out;
}

void
endToEnd(const Workload &w, const Options &o, Checks &checks, Report &rep)
{
    SystemSamples s = runSystemLoop(w, o.seconds, false, checks);
    const double rss = peakRssMb();
    const double instrs = static_cast<double>(w.simInstrs());
    const double ops = static_cast<double>(s.counts.traceOps());
    const double events = static_cast<double>(checks.ref.events);
    std::vector<double> ips, opsps, cpu, eps;
    for (std::size_t i = 0; i < s.runS.size(); ++i) {
        ips.push_back(instrs / s.runS[i]);
        opsps.push_back(ops / s.runS[i]);
        cpu.push_back(s.cpuS[i] / (instrs * 1e-6));
        eps.push_back(events / s.runS[i]);
    }
    std::printf("end to end: %zu System runs of %.0f instructions, "
                "%.0f trace ops, %.0f events\n",
                s.runS.size(), instrs, ops, events);
    // Informational only: events per instruction differ by workload and
    // mechanism, so events/sec would reward adding events.
    std::printf("  %-28s median %-14.6g (informational, not a metric)\n",
                "events_per_s", median(eps));
    rep.addSamples("sim_instr_per_s", ips, "1/s", 1 - kSlowTail);
    rep.addSamples("trace_ops_per_s", opsps, "1/s", 1 - kSlowTail);
    rep.addSamples("setup_s", s.setupS, "s", 0.5);
    rep.addSamples("cpu_s_per_minstr", cpu, "s", kSlowTail);
    rep.add("peak_rss_mb", rss, "MiB");
    std::printf("  %-28s %.6g MiB\n", "peak_rss_mb", rss);
}

/** The per-layer metrics every workload reports, from whichever source. */
struct LayerMetrics
{
    double nextCalls = 0, nextSelfNs = 0, warmOps = 0;
    double cpuSelfMs = 0, l1HitRate = 0, mshrMergesPki = 0;
    double eventsPerInstr = 0, nsPerEvent = 0;
    double llcReads = 0, llcWritebacks = 0, llcFunctional = 0;
    double llcSelfNsPerCall = 0, tagLookupsPki = 0, clbBypassFrac = 0;
    double dbiUpdates = 0, dbiEvictions = 0;
    double dramReads = 0, dramWrites = 0, dramSelfMs = 0;
    double readQMean = 0, readQMax = 0;
    double readRowHit = 0, writeRowHit = 0, drainFrac = 0;
    double callbacksPerInstr = 0;
    double epochs = 0, eventsPerEpochP50 = 0, fabricDrainMs = 0;
    double workMs = 0, stallMs = 0;
    double workloadSelfMs = 0, llcSelfMs = 0, commonSelfMs = 0;
    double tracedWallMs = 0, unattributedFrac = 0, overheadFrac = 0;

    /** The counter-derived metrics, identical on every source. */
    void
    fromCounts(const MachineCounts &c, const Fingerprint &fp,
               const Workload &w)
    {
        const double instrs = static_cast<double>(w.simInstrs());
        const double kinstr = instrs / 1000.0;
        warmOps = static_cast<double>(c.warmedOps);
        l1HitRate = ratio(static_cast<double>(c.l1Hits),
                          static_cast<double>(c.loads + c.stores));
        mshrMergesPki = static_cast<double>(c.mshrMerges) / kinstr;
        eventsPerInstr = static_cast<double>(fp.events) / instrs;
        tagLookupsPki = static_cast<double>(c.tagLookups) / kinstr;
        clbBypassFrac = ratio(static_cast<double>(c.bypasses),
                              static_cast<double>(c.dbiChecks));
        dbiUpdates = static_cast<double>(c.dbiUpdates);
        dbiEvictions = static_cast<double>(c.dbiEvictions);
        readRowHit = ratio(static_cast<double>(c.dramReadRowHits),
                           static_cast<double>(c.dramReads));
        writeRowHit = ratio(static_cast<double>(c.dramWriteRowHits),
                            static_cast<double>(c.dramWrites));
        drainFrac = ratio(static_cast<double>(c.drainCyclesWindow),
                          static_cast<double>(fp.windowCycles));
    }

    void
    report(Report &rep) const
    {
        rep.add("workload.next.calls", nextCalls, "count");
        rep.add("workload.next.self_ns", nextSelfNs, "ns");
        rep.add("workload.warm.ops", warmOps, "count");
        rep.add("workload.self_ms", workloadSelfMs, "ms");
        rep.add("cpu.self_ms", cpuSelfMs, "ms");
        rep.add("cpu.l1_hit_rate", l1HitRate, "fraction");
        rep.add("cpu.mshr_merges_pki", mshrMergesPki, "1/kinstr");
        rep.add("common.events_per_instr", eventsPerInstr, "1/instr");
        rep.add("common.ns_per_event", nsPerEvent, "ns");
        rep.add("common.self_ms", commonSelfMs, "ms");
        rep.add("llc.read.calls", llcReads, "count");
        rep.add("llc.writeback.calls", llcWritebacks, "count");
        rep.add("llc.functional.calls", llcFunctional, "count");
        rep.add("llc.self_ms", llcSelfMs, "ms");
        rep.add("llc.self_ns_per_call", llcSelfNsPerCall, "ns");
        rep.add("llc.tag_lookups_pki", tagLookupsPki, "1/kinstr");
        rep.add("llc.clb_bypass_frac", clbBypassFrac, "fraction");
        rep.add("dbi.updates", dbiUpdates, "count");
        rep.add("dbi.evictions", dbiEvictions, "count");
        rep.add("dram.read.calls", dramReads, "count");
        rep.add("dram.write.calls", dramWrites, "count");
        rep.add("dram.self_ms", dramSelfMs, "ms");
        rep.add("dram.read_q_depth.mean", readQMean, "count");
        rep.add("dram.read_q_depth.max", readQMax, "count");
        rep.add("dram.read_row_hit_rate", readRowHit, "fraction");
        rep.add("dram.write_row_hit_rate", writeRowHit, "fraction");
        rep.add("dram.drain_cycle_frac", drainFrac, "fraction");
        rep.add("seam.callbacks_per_instr", callbacksPerInstr, "1/instr");
        rep.add("sim.epochs", epochs, "count");
        rep.add("sim.events_per_epoch.p50", eventsPerEpochP50, "count");
        rep.add("sim.fabric_drain_ms", fabricDrainMs, "ms");
        rep.add("sim.work_ms", workMs, "ms");
        rep.add("sim.stall_ms", stallMs, "ms");
        rep.add("trace.wall_ms", tracedWallMs, "ms");
        rep.add("trace.unattributed_frac", unattributedFrac, "fraction");
        rep.add("trace.overhead_frac", overheadFrac, "fraction");
    }
};

/** Share of a traced run's wall time no layer's self time covers. */
double
unattributed(const TracedResult &r)
{
    std::int64_t sum = 0;
    for (std::int64_t ns : r.self) {
        sum += ns;
    }
    return 1.0 - static_cast<double>(sum) / static_cast<double>(r.wallNs);
}

/**
 * Per-layer metrics of a single-shard workload: untraced System runs
 * for the reference wall time, then traced runs of the same machine
 * for the rest of the time budget.
 */
void
perLayerTraced(const Workload &w, const Options &o, Checks &checks,
               Report &rep)
{
    SystemSamples base = runSystemLoop(w, o.seconds * 0.3, false, checks);
    const double base_ms = median(base.runS) * 1e3;

    std::vector<TracedResult> runs;
    const double deadline = wallS() + o.seconds * 0.7;
    do {
        Tracer tracer;
        TracedResult r = runTraced(w, tracer);
        checks.expect(r.fp, "traced run");

        // The seam counts and the components' own counters must agree:
        // this is what lets the sliced machine report the same counts
        // from counters alone.
        const MachineCounts &c = r.counts;
        const SeamCounts &n = r.seams;
        checks.expectTrue(n.llcRead == c.llcAccesses &&
                              n.llcWriteback == c.writebacksIn &&
                              n.dramWrite == c.wbToDram &&
                              n.dramRead == c.dramReads + c.dramForwards &&
                              n.sourceNext >= c.traceOps() &&
                              n.sourceNext <= c.traceOps() + w.cfg.numCores,
                          "seam counts disagree with component counters");

        std::printf("traced run %zu: %.1f ms, %zu spans, self ms:",
                    runs.size(), r.wallNs * 1e-6, tracer.spans().size());
        for (std::size_t l = 0; l < kNumLayers; ++l) {
            std::printf(" %s %.1f", layerName(static_cast<Layer>(l)),
                        r.self[l] * 1e-6);
        }
        std::printf("\n");
        runs.push_back(std::move(r));
    } while (wallS() < deadline);

    auto med = [&](auto fn) {
        std::vector<double> v;
        for (const TracedResult &r : runs) {
            v.push_back(fn(r));
        }
        return median(v);
    };
    auto self_ns = [](const TracedResult &r, Layer l) {
        return static_cast<double>(r.self[static_cast<std::size_t>(l)]);
    };

    const TracedResult &first = runs.front();
    const SeamCounts &n = first.seams;
    const double instrs = static_cast<double>(w.simInstrs());
    LayerMetrics m;
    m.fromCounts(first.counts, first.fp, w);
    m.nextCalls = static_cast<double>(n.sourceNext);
    m.llcReads = static_cast<double>(n.llcRead);
    m.llcWritebacks = static_cast<double>(n.llcWriteback);
    m.llcFunctional = static_cast<double>(n.llcFunctional);
    m.dramReads = static_cast<double>(n.dramRead);
    m.dramWrites = static_cast<double>(n.dramWrite);
    m.readQMean = ratio(static_cast<double>(n.readQSum),
                        static_cast<double>(n.readQSamples));
    m.readQMax = static_cast<double>(n.readQMax);
    m.callbacksPerInstr = static_cast<double>(n.callbacks) / instrs;

    const double llc_calls =
        static_cast<double>(n.llcRead + n.llcWriteback + n.llcFunctional);
    m.workloadSelfMs = med([&](auto &r) {
        return self_ns(r, Layer::Workload);
    }) * 1e-6;
    m.nextSelfNs = ratio(m.workloadSelfMs * 1e6, m.nextCalls);
    m.cpuSelfMs = med([&](auto &r) { return self_ns(r, Layer::Cpu); }) * 1e-6;
    m.llcSelfMs = med([&](auto &r) { return self_ns(r, Layer::Llc); }) * 1e-6;
    m.llcSelfNsPerCall = ratio(m.llcSelfMs * 1e6, llc_calls);
    m.dramSelfMs = med([&](auto &r) { return self_ns(r, Layer::Dram); }) * 1e-6;
    m.commonSelfMs =
        med([&](auto &r) { return self_ns(r, Layer::Common); }) * 1e-6;
    m.nsPerEvent =
        ratio(m.commonSelfMs * 1e6, static_cast<double>(first.fp.events));

    // The single-queue engine runs the whole machine as one epoch of
    // one shard: all work, no barrier stall, no fabric.
    m.epochs = 1;
    m.eventsPerEpochP50 = static_cast<double>(first.fp.events);
    m.workMs = base_ms;

    m.tracedWallMs =
        med([](auto &r) { return static_cast<double>(r.wallNs); }) * 1e-6;
    // Checked on the median so one host stall landing between two spans
    // cannot fail the run.
    m.unattributedFrac = med(unattributed);
    checks.expectTrue(std::fabs(m.unattributedFrac) <= kSelfSumTolerance,
                      "per-layer self times sum to " +
                          std::to_string(1.0 - m.unattributedFrac) +
                          " of the traced wall time (median)");
    m.overheadFrac = m.tracedWallMs / base_ms - 1.0;
    std::printf("per layer: %zu untraced runs (median %.1f ms), %zu traced "
                "runs (median %.1f ms), peak RSS %.1f MiB\n",
                base.runS.size(), base_ms, runs.size(), m.tracedWallMs,
                peakRssMb());
    m.report(rep);
}

/**
 * Per-layer metrics of the sliced machine: System's host profiler for
 * the sharded engine, component counters for the counts. The seam
 * shims cannot reach inside System, so the layer self times and the
 * DRAM read-queue depth are not measured here (reported as 0).
 */
void
perLayerSliced(const Workload &w, const Options &o, Checks &checks,
               Report &rep)
{
    SystemSamples base = runSystemLoop(w, o.seconds * 0.4, false, checks);
    SystemSamples prof = runSystemLoop(w, o.seconds * 0.6, true, checks);
    const double base_ms = median(base.runS) * 1e3;
    const Fingerprint &fp = checks.ref;
    const MachineCounts &c = prof.counts;
    const double instrs = static_cast<double>(w.simInstrs());

    LayerMetrics m;
    m.fromCounts(c, fp, w);
    m.nextCalls = static_cast<double>(c.traceOps());
    m.llcReads = static_cast<double>(c.llcAccesses);
    m.llcWritebacks = static_cast<double>(c.writebacksIn);
    m.llcFunctional = static_cast<double>(c.warmedOps);
    m.dramReads = static_cast<double>(c.dramReads + c.dramForwards);
    m.dramWrites = static_cast<double>(c.wbToDram);
    m.callbacksPerInstr = (m.llcReads + m.dramReads) / instrs;

    auto med = [&](auto fn) {
        std::vector<double> v;
        for (const auto &p : prof.profiles) {
            v.push_back(fn(p));
        }
        return median(v);
    };
    auto get = [](const Profile &p, const std::string &k) {
        auto it = p.find(k);
        return it == p.end() ? 0.0 : it->second;
    };
    // The profiler keys per-shard figures "s<k>.<name>".
    auto shard_sum = [&](const Profile &p, const char *name) {
        double sum = 0;
        for (int s = 0; s < static_cast<int>(get(p, "shards")); ++s) {
            std::string key = "s";
            key += std::to_string(s);
            key += '.';
            key += name;
            sum += get(p, key);
        }
        return sum;
    };
    // Per-shard figures are averaged over shards, so work + stall is
    // each shard's share of the engine's wall time.
    auto shard_mean = [&](const Profile &p, const char *name) {
        return ratio(shard_sum(p, name), get(p, "shards"));
    };
    m.epochs = get(prof.profiles.front(), "s0.epochs");
    m.eventsPerEpochP50 = med([&](auto &p) {
        return shard_mean(p, "evPerEpoch.p50");
    });
    m.fabricDrainMs = med([&](auto &p) { return get(p, "fabricDrainMs"); });
    m.workMs = med([&](auto &p) { return shard_mean(p, "workMs"); });
    m.stallMs = med([&](auto &p) { return shard_mean(p, "stallMs"); });
    // Kernel time per event: each shard's epoch work minus the time its
    // callbacks ran, over the events dispatched.
    m.nsPerEvent = med([&](auto &p) {
        return (shard_sum(p, "workMs") - shard_sum(p, "dispatchMs")) * 1e6 /
               static_cast<double>(fp.events);
    });
    const double prof_ms = median(prof.runS) * 1e3;
    m.tracedWallMs = prof_ms;
    m.overheadFrac = prof_ms / base_ms - 1.0;
    std::printf("per layer: %zu untraced runs (median %.1f ms), %zu "
                "profiled runs (median %.1f ms), %u workers\n",
                base.runS.size(), base_ms, prof.runS.size(), prof_ms,
                w.cfg.topology().workers);
    m.report(rep);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    std::setvbuf(stdout, nullptr, _IOLBF, 0);

    Workload w = makeWorkload(o.workload, o.seed, o.traceFile);
    std::printf("workload %s seed %" PRIu64 ": %s, %u cores, %" PRIu64
                " instructions per run\n",
                w.name.c_str(), o.seed, w.cfg.mech.label.c_str(),
                w.cfg.numCores, w.simInstrs());

    Checks checks;
    Report rep;
    if (o.trace == 0) {
        endToEnd(w, o, checks, rep);
    } else if (w.singleShard()) {
        perLayerTraced(w, o, checks, rep);
    } else {
        perLayerSliced(w, o, checks, rep);
    }
    // Last, so the auditor's shadow model never counts toward the timed
    // runs' peak resident memory.
    auditedPass(w, checks);

    std::printf("runs: %" PRIu64 " attempted, %" PRIu64 " failed "
                "(failed_frac %.6g)\n",
                checks.attempted, checks.failed,
                ratio(static_cast<double>(checks.failed),
                      static_cast<double>(checks.attempted)));
    rep.print(checks.failed == 0, checks.attempted, checks.failed);
    return checks.failed == 0 ? 0 : 1;
}
