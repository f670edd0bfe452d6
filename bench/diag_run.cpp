/**
 * @file
 * Diagnostic harness: run one workload mix under one mechanism and dump
 * every collected statistic plus derived rates. Not a paper experiment;
 * a debugging/inspection tool for the other benches.
 *
 * Usage: diag_run <mechanism> <cores> <bench1> [bench2 ...]
 *        [--warmup N] [--measure N] [harness flags]
 *
 * The mechanism is any mechanismByName() spelling: a Table 2 preset
 * ("DBI+AWB") or a composed policy spec ("dbi+dawb", "dbi+awb+ecc");
 * --mech SPEC overrides the positional mechanism either way.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "harness.hh"
#include "sim/system.hh"

using namespace dbsim;

namespace {

exp::SweepSpec
buildSpec(const bench::HarnessOptions &o)
{
    SystemConfig cfg;
    cfg.seed = o.seed;
    cfg.core.warmupInstrs = o.warmupOr(1'000'000);
    cfg.core.measureInstrs = o.measureOr(1'000'000);

    WorkloadMix mix;
    if (o.positional.size() < 3) {
        // Default inspection run so the bench loop can invoke us bare.
        cfg.mech = Mechanism::DbiAwbClb;
        cfg.numCores = 2;
        mix = {"lbm", "libquantum"};
    } else {
        cfg.mech = mechanismByName(o.positional[0]);
        cfg.numCores =
            static_cast<std::uint32_t>(o.posIntOr(1, 2));
        for (std::size_t i = 2; i < o.positional.size(); ++i) {
            mix.push_back(o.positional[i]);
        }
    }
    cfg.mech = o.mechOr(cfg.mech);
    while (mix.size() < cfg.numCores) {
        mix.push_back(mix.back());
    }

    exp::SweepSpec spec;
    spec.addCustom(cfg, [mix](const SystemConfig &cfg,
                              exp::PointRecord &rec) {
        System sys(cfg, mix);
        SimResult r = sys.run();

        rec.mechanism = cfg.mech.label;
        rec.mix = mixLabel(mix);
        rec.tags["cores"] = std::to_string(cfg.numCores);
        for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
            std::string i = std::to_string(c);
            rec.metrics["ipc" + i] = r.ipc[c];
            rec.metrics["loadsTotal" + i] = static_cast<double>(
                sys.coreMemory(c).statLoads.value());
            rec.metrics["loadsSinceSnap" + i] = static_cast<double>(
                sys.coreMemory(c).statLoads.sinceSnapshot());
        }
        rec.metrics["windowCycles"] =
            static_cast<double>(r.windowCycles);
        rec.metrics["totalInstrs"] = static_cast<double>(r.totalInstrs);
        rec.metrics["readRowHitRate"] = r.readRowHitRate;
        rec.metrics["writeRowHitRate"] = r.writeRowHitRate;
        rec.metrics["tagLookupsPki"] = r.tagLookupsPki;
        rec.metrics["wpki"] = r.wpki;
        rec.metrics["mpki"] = r.mpki;
        for (const auto &[k, v] : r.telemetry) {
            rec.metrics[k] = v;
        }
        for (const auto &[k, v] : r.metadata) {
            rec.metrics[k] = v;
        }
        if (telemetry::SimTelemetry *t = sys.telemetry()) {
            // Lifetime drain totals from both sides of the observer
            // seam; tools/check_trace.py asserts they agree exactly.
            rec.metrics["drainCyclesTraced"] =
                static_cast<double>(t->drainCyclesTraced());
            rec.metrics["drainWindowsTraced"] =
                static_cast<double>(t->drainWindowsTraced());
            rec.metrics["dramDrainCyclesTotal"] = static_cast<double>(
                sys.dram().statDrainCycles.value());
        }
        rec.stats = r.stats;
        // Host-profiler attribution rides in the non-deterministic
        // host map, mirroring what the runner does for Sim points.
        for (const auto &[k, v] : r.hostProfile) {
            rec.host["profile." + k] = v;
        }
    });
    return spec;
}

void
format(const std::vector<exp::PointRecord> &records,
       const bench::HarnessOptions &)
{
    const exp::PointRecord &rec = records.at(0);
    std::uint32_t cores =
        static_cast<std::uint32_t>(std::stoul(rec.tags.at("cores")));

    // Reconstruct the per-core benchmark names from the mix label.
    std::vector<std::string> mix;
    std::string label = rec.mix;
    std::size_t start = 0;
    while (true) {
        std::size_t plus = label.find('+', start);
        mix.push_back(label.substr(start, plus - start));
        if (plus == std::string::npos) {
            break;
        }
        start = plus + 1;
    }

    std::printf("mechanism %s, %u cores\n", rec.mechanism.c_str(),
                cores);
    for (std::uint32_t c = 0; c < cores; ++c) {
        std::string i = std::to_string(c);
        std::printf("  core %u (%s): IPC %.4f  loads(total) %llu "
                    "since-snap %llu\n", c,
                    mix[c].c_str(), rec.metric("ipc" + i),
                    static_cast<unsigned long long>(
                        rec.metric("loadsTotal" + i)),
                    static_cast<unsigned long long>(
                        rec.metric("loadsSinceSnap" + i)));
    }
    std::printf("windowCycles %llu  totalInstrs %llu\n",
                static_cast<unsigned long long>(
                    rec.metric("windowCycles")),
                static_cast<unsigned long long>(
                    rec.metric("totalInstrs")));
    std::printf("readRHR %.3f  writeRHR %.3f  tagPKI %.1f  WPKI %.2f  "
                "MPKI %.2f\n",
                rec.metric("readRowHitRate"),
                rec.metric("writeRowHitRate"),
                rec.metric("tagLookupsPki"), rec.metric("wpki"),
                rec.metric("mpki"));
    for (const auto &[name, value] : rec.stats) {
        std::printf("  %-24s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
    }

    bool any_hist = false;
    for (const auto &[name, value] : rec.metrics) {
        if (name.rfind("hist.", 0) != 0) {
            continue;
        }
        if (!any_hist) {
            std::printf("telemetry histograms:\n");
            any_hist = true;
        }
        std::printf("  %-32s %.3f\n", name.c_str(), value);
    }

    bool any_meta = false;
    for (const auto &[name, value] : rec.metrics) {
        // Unsliced machines report "ecc.*", sliced ones "s<k>.ecc.*".
        const std::size_t dot = name.find('.');
        const bool ecc = name.rfind("ecc.", 0) == 0 ||
                         (name[0] == 's' && dot != std::string::npos &&
                          name.compare(dot + 1, 4, "ecc.") == 0);
        if (!ecc) {
            continue;
        }
        if (!any_meta) {
            std::printf("metadata subsystems:\n");
            any_meta = true;
        }
        std::printf("  %-32s %.3f\n", name.c_str(), value);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bench::registerExperiment(
        {"diag_run", "single-run statistic dump (debug tool)",
         buildSpec, format});
    return bench::harnessMain(argc, argv);
}
