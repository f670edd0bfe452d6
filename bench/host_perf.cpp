/**
 * @file
 * Host-performance gauge for the simulation kernel: how fast does the
 * simulator itself run? Three representative mechanism x mix points are
 * simulated end-to-end and timed on the host; each reports events/sec
 * and ns/event over the kernel's dispatched-event count (which is
 * deterministic, so only the wall-clock numerator varies run to run).
 *
 * This is not a paper experiment — it freezes the simulator's own speed
 * so hot-path regressions fail CI. tools/check_perf.py runs this bench
 * and compares the result against the committed baseline
 * (BENCH_host_perf.json at the repo root, regenerated with:
 * build/bench/host_perf --no-progress, run from the repo root).
 *
 * Each point is simulated `kRepeats` times and the fastest wall-clock
 * time wins: the minimum is the observation least polluted by host
 * scheduling noise, the same policy micro_dbi_ops' calibration and the
 * gate's own repeat logic use.
 *
 * Usage: host_perf [out.json] [harness flags]
 *        (out.json defaults to BENCH_host_perf.json in the cwd)
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/prof.hh"
#include "harness.hh"
#include "sim/system.hh"
#include "workload/champsim_trace.hh"

using namespace dbsim;

namespace {

constexpr int kRepeats = 3;

/** One timed simulation point. */
struct PerfPoint
{
    std::string name;       ///< stable key check_perf.py matches on
    std::string mechSpec;   ///< mechanismByName() spelling
    std::uint32_t cores;
    WorkloadMix mix;

    /** Sharded-machine shape; 0s = the default Table 1 machine. */
    std::uint32_t slices = 0;
    std::uint32_t channels = 0;

    /** Per-point instr-count override (sharded points run shorter). */
    std::uint64_t instrs = 0;

    /** Interpose the DRAM-cache tier (capacity-bound configuration). */
    bool dcache = false;

    /**
     * Gate this point in check_perf.py. New points enter the baseline
     * ungated ("gate": false) for one re-baseline cycle so the gate
     * never compares against a number frozen on different code.
     */
    bool gate = true;
};

/**
 * The fixed points cover the kernel's distinct hot-path profiles:
 * a baseline run (tag-store + DRAM paths, no DBI), the diag_run seed
 * configuration (DBI + AWB + CLB, two cores — the ISSUE's 1.5x target
 * workload), a composed '+'-spec on the write-heaviest profile
 * (DBI insert/evict and write-drain paths dominate), and the 64-core /
 * 4-slice / 4-channel machine, whose shards share one queue and cross
 * the fabric.
 */
std::vector<PerfPoint>
makePoints()
{
    std::vector<PerfPoint> pts = {
        {"baseline_mcf", "TA-DIP", 1, {"mcf"}},
        {"dbi_awb_clb_lbm_libq", "DBI+AWB+CLB", 2, {"lbm", "libquantum"}},
        {"dbi_dawb_stream", "dbi+dawb", 1, {"stream"}},
    };
    WorkloadMix big;
    const char *rota[] = {"mcf", "lbm", "stream", "libquantum"};
    for (int c = 0; c < 64; ++c) {
        big.push_back(rota[c % 4]);
    }
    pts.push_back({"sharded_64c4s4ch_shards1", "DBI", 64, big, 4, 4,
                   30'000});
    // The interposed DRAM-cache tier, capacity-bound so its hot path
    // (tag probe, fill, page eviction, dirty-index maintenance) carries
    // the run. Ungated until the next re-baseline freezes its speed.
    PerfPoint dc{"dcache_dbi_stream", "DBI", 1, {"stream"}};
    dc.dcache = true;
    dc.gate = false;
    pts.push_back(dc);
    return pts;
}

const std::vector<PerfPoint> kPoints = makePoints();

/**
 * The record's profiler attribution ("profile.*" host entries) as one
 * JSON object, or "" when the build/profiler produced none. Keys are
 * metric names ([A-Za-z0-9._]), so no escaping is needed.
 */
std::string
hostProfileJson(const exp::PointRecord &rec)
{
    std::string out;
    for (const auto &[k, v] : rec.host) {
        if (k.rfind("profile.", 0) != 0) {
            continue;
        }
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6g", v);
        if (!out.empty()) {
            out += ", ";
        }
        out += "\"" + k.substr(std::strlen("profile.")) + "\": " + buf;
    }
    return out.empty() ? out : "{" + out + "}";
}

/**
 * The trace-ingest point: how fast the streaming ChampSim front-end
 * feeds the machine, in both execution modes. A deterministic
 * throwaway trace is generated into the temp directory, then ingested
 * twice — a plain detailed run (its events/sec are the point's
 * standard gate metrics) and a pure fast-forward run (functional
 * warming only), whose ops/sec ratio is the fast-forward speedup the
 * ISSUE's >= 20x acceptance bar reads. Ungated until a re-baseline
 * freezes its numbers.
 */
void
addIngestPoint(exp::SweepSpec &spec, const bench::HarnessOptions &o)
{
    SystemConfig cfg;
    cfg.seed = o.seed;
    cfg.mech = o.mechOr(mechanismByName("DBI+AWB"));
    cfg.numCores = 1;
    cfg.core.warmupInstrs = o.warmupOr(200'000);
    cfg.core.measureInstrs = o.measureOr(800'000);

    auto &pt = spec.addCustom(cfg, [](const SystemConfig &cfg,
                                      exp::PointRecord &rec) {
        // Deterministic throwaway trace: same bytes every run.
        const std::string path =
            (std::filesystem::temp_directory_path() /
             "dbsim_host_perf_ingest.champsim").string();
        {
            std::vector<ChampSimRecord> recs;
            recs.reserve(300'000);
            std::uint64_t rng = 0x9e3779b97f4a7c15ull;
            std::uint64_t ip = 0x400000;
            for (int n = 0; n < 300'000; ++n) {
                rng ^= rng >> 12;
                rng ^= rng << 25;
                rng ^= rng >> 27;
                std::uint64_t r = rng * 0x2545f4914f6cdd1dull;
                ip += 4 + (r & 0xc);
                ChampSimRecord cr{};
                cr.ip = ip;
                if ((r >> 8) % 5 == 0) {
                    cr.isBranch = 1;
                    cr.branchTaken = (r >> 9) & 1;
                } else {
                    // 98% of accesses hit a 1MB working set — LLC-
                    // resident but spilling the private levels, the
                    // paper's writeback-heavy sweet spot — plus a 2%
                    // cold stream over 128MB so fills, evictions, and
                    // DBI drains stay exercised.
                    std::uint64_t addr;
                    if ((r >> 40) % 100 < 98) {
                        addr = 0x10000000ull +
                               ((r >> 16) * 64 & ((1ull << 20) - 1));
                    } else {
                        addr = 0x80000000ull +
                               ((r >> 16) * 64 & ((128ull << 20) - 1));
                    }
                    cr.destRegs[0] = static_cast<std::uint8_t>(r % 32);
                    if ((r >> 5) % 100 < 30) {
                        cr.destMem[0] = addr;
                    } else {
                        cr.srcMem[0] = addr;
                    }
                }
                recs.push_back(cr);
            }
            ChampSimTrace::write(path, recs);
        }

        using clock = std::chrono::steady_clock;

        // Detailed leg: plain trace-driven run, no sampling.
        SystemConfig dcfg = cfg;
        dcfg.traceFile = path;
        double det_sec = 0.0;
        std::uint64_t events = 0, det_ops = 0;
        for (int rep = 0; rep < kRepeats; ++rep) {
            System sys(dcfg, {"mcf"});  // mix is inert under traceFile
            auto start = clock::now();
            sys.run();
            std::chrono::duration<double> dt = clock::now() - start;
            if (rep == 0 || dt.count() < det_sec) {
                det_sec = dt.count();
            }
            events = sys.eventsDispatched();
            det_ops = sys.traceSource(0).opsEmitted();
        }

        // Fast-forward leg: warm 4M ops functionally, then a token
        // detailed window (so the run terminates normally). The warmed
        // op count dwarfs the detailed tail by three orders of
        // magnitude, so the wall clock is the warming rate.
        SystemConfig fcfg = cfg;
        fcfg.traceFile = path;
        fcfg.sampling.ffOps = 4'000'000;
        fcfg.core.warmupInstrs = 1'000;
        fcfg.core.measureInstrs = 2'000;
        double ff_sec = 0.0;
        std::uint64_t ff_ops = 0;
        for (int rep = 0; rep < kRepeats; ++rep) {
            System sys(fcfg, {"mcf"});
            auto start = clock::now();
            sys.run();
            std::chrono::duration<double> dt = clock::now() - start;
            if (rep == 0 || dt.count() < ff_sec) {
                ff_sec = dt.count();
            }
            auto &st =
                dynamic_cast<SampledTrace &>(sys.traceSource(0));
            ff_ops = st.opsWarmed();
        }
        std::remove(path.c_str());

        rec.mechanism = cfg.mech.label;
        rec.mix = "trace:ingest";
        rec.metrics["events"] = static_cast<double>(events);
        rec.metrics["seconds"] = det_sec;
        rec.metrics["eventsPerSec"] =
            static_cast<double>(events) / det_sec;
        rec.metrics["nsPerEvent"] =
            det_sec * 1e9 / static_cast<double>(events);
        rec.metrics["opsDetailed"] = static_cast<double>(det_ops);
        rec.metrics["opsPerSecDetailed"] =
            static_cast<double>(det_ops) / det_sec;
        rec.metrics["ffOps"] = static_cast<double>(ff_ops);
        rec.metrics["ffSeconds"] = ff_sec;
        rec.metrics["opsPerSecFF"] =
            static_cast<double>(ff_ops) / ff_sec;
        rec.metrics["ffSpeedup"] =
            (static_cast<double>(ff_ops) / ff_sec) /
            (static_cast<double>(det_ops) / det_sec);
    });
    pt.tags["point"] = "trace_ingest";
    pt.tags["gate"] = "false";
}

exp::SweepSpec
buildSpec(const bench::HarnessOptions &o)
{
    exp::SweepSpec spec;
    for (const auto &point : kPoints) {
        SystemConfig cfg;
        cfg.seed = o.seed;
        cfg.core.warmupInstrs = o.warmupOr(1'000'000);
        cfg.core.measureInstrs = o.measureOr(4'000'000);
        cfg.mech = o.mechOr(mechanismByName(point.mechSpec));
        cfg.numCores = point.cores;
        cfg.llcSlices = point.slices;
        cfg.dram.channels = point.channels;
        if (point.instrs) {
            cfg.core.warmupInstrs = o.warmupOr(point.instrs);
            cfg.core.measureInstrs = o.measureOr(point.instrs);
        }
        if (point.dcache) {
            cfg.dcache.enable = true;
            cfg.dcache.sizeBytes = 4ull << 20;
            cfg.dcache.indexEntries = 512;
        }
        WorkloadMix mix = point.mix;

        auto &pt = spec.addCustom(cfg, [mix](const SystemConfig &cfg,
                                             exp::PointRecord &rec) {
            using clock = std::chrono::steady_clock;
            double best_sec = 0.0;
            std::uint64_t events = 0;
            for (int rep = 0; rep < kRepeats; ++rep) {
                System sys(cfg, mix);
                auto start = clock::now();
                sys.run();
                std::chrono::duration<double> dt = clock::now() - start;
                if (rep == 0 || dt.count() < best_sec) {
                    best_sec = dt.count();
                }
                events = sys.eventsDispatched();
            }
            rec.mechanism = cfg.mech.label;
            rec.mix = mixLabel(mix);
            rec.metrics["events"] = static_cast<double>(events);
            rec.metrics["seconds"] = best_sec;
            rec.metrics["eventsPerSec"] =
                static_cast<double>(events) / best_sec;
            rec.metrics["nsPerEvent"] =
                best_sec * 1e9 / static_cast<double>(events);
            // One extra *profiled* run after the timed repeats: its
            // attribution is recorded alongside the gate numbers
            // (informational, never gated — check_perf.py only checks
            // the schema), and it runs last so the profiler can never
            // pollute best_sec.
            if constexpr (prof::kEnabled) {
                SystemConfig pcfg = cfg;
                pcfg.profile = true;
                System psys(pcfg, mix);
                SimResult pr = psys.run();
                for (const auto &[k, v] : pr.hostProfile) {
                    rec.host["profile." + k] = v;
                }
            }
        });
        pt.tags["point"] = point.name;
        pt.tags["gate"] = point.gate ? "true" : "false";
    }
    addIngestPoint(spec, o);
    return spec;
}

void
format(const std::vector<exp::PointRecord> &records,
       const bench::HarnessOptions &o)
{
    std::printf("%-24s %-14s %12s %14s %12s\n", "point", "mechanism",
                "events", "events/sec", "ns/event");
    for (const auto &rec : records) {
        std::printf("%-24s %-14s %12.0f %14.0f %12.2f\n",
                    rec.tags.at("point").c_str(), rec.mechanism.c_str(),
                    rec.metric("events"), rec.metric("eventsPerSec"),
                    rec.metric("nsPerEvent"));
    }

    std::string out = o.posOr(0, "BENCH_host_perf.json");
    std::FILE *f = std::fopen(out.c_str(), "w");
    fatal_if(!f, "cannot write %s", out.c_str());
    std::fprintf(f, "{\n  \"bench\": \"host_perf\",\n  \"points\": [\n");
    for (std::size_t i = 0; i < records.size(); ++i) {
        const auto &rec = records[i];
        std::string prof_json = hostProfileJson(rec);
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"mechanism\": \"%s\", "
                     "\"mix\": \"%s\", \"gate\": %s, \"events\": %.0f, "
                     "\"seconds\": %.6f, \"eventsPerSec\": %.0f, "
                     "\"nsPerEvent\": %.3f",
                     rec.tags.at("point").c_str(), rec.mechanism.c_str(),
                     rec.mix.c_str(), rec.tags.at("gate").c_str(),
                     rec.metric("events"), rec.metric("seconds"),
                     rec.metric("eventsPerSec"),
                     rec.metric("nsPerEvent"));
        if (rec.metrics.count("ffSpeedup")) {
            // Ingest extras: trace-op throughput in both modes and the
            // fast-forward speedup (check_perf.py checks the schema and
            // that the speedup stays a speedup; the values are ungated).
            std::fprintf(f,
                         ", \"opsDetailed\": %.0f, "
                         "\"opsPerSecDetailed\": %.0f, "
                         "\"ffOps\": %.0f, \"ffSeconds\": %.6f, "
                         "\"opsPerSecFF\": %.0f, \"ffSpeedup\": %.2f",
                         rec.metric("opsDetailed"),
                         rec.metric("opsPerSecDetailed"),
                         rec.metric("ffOps"), rec.metric("ffSeconds"),
                         rec.metric("opsPerSecFF"),
                         rec.metric("ffSpeedup"));
        }
        if (!prof_json.empty()) {
            // Informational: the wall-time attribution of one profiled
            // run. check_perf.py checks shape and the work+stall
            // accounting identity, never the (noisy) values.
            std::fprintf(f, ", \"hostProfile\": %s", prof_json.c_str());
        }
        std::fprintf(f, "}%s\n", i + 1 < records.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    for (const auto &rec : records) {
        if (rec.metrics.count("ffSpeedup")) {
            std::printf("trace ingest: %.0f ops/sec fast-forward vs "
                        "%.0f ops/sec detailed (%.1fx)\n",
                        rec.metric("opsPerSecFF"),
                        rec.metric("opsPerSecDetailed"),
                        rec.metric("ffSpeedup"));
        }
    }
    std::printf("\nwrote %s\n", out.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Experiment e{"host_perf",
                        "simulation-kernel host speed (events/sec)",
                        buildSpec, format};
    e.serialOnly = true;  // wall-clock timing; parallelism would skew it
    bench::registerExperiment(e);
    return bench::harnessMain(argc, argv);
}
