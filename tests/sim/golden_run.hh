/**
 * @file
 * Shared definition of the mechanism-equivalence golden runs: the exact
 * system configuration, workloads, and result serialization used both
 * by tools/gen_mechanism_golden (which captures the snapshot) and by
 * tests/sim/test_mechanism_golden (which asserts that every Table 2
 * preset, run through the composed-policy LLC, reproduces the snapshot
 * bit for bit). Keeping both sides on this one header is what makes the
 * comparison meaningful: any drift in the run setup would be shared.
 */

#ifndef DBSIM_TESTS_SIM_GOLDEN_RUN_HH
#define DBSIM_TESTS_SIM_GOLDEN_RUN_HH

#include <cstdio>
#include <string>
#include <vector>

#include "sim/system.hh"

namespace dbsim::golden {

/**
 * One golden point: a Table 2 preset, a workload mix, and the machine
 * it runs on. `machine` is empty for the unsliced machine of
 * goldenConfig(); otherwise it names a sliced variant, built from
 * slicedGoldenConfig() and reshaped by `shape` (nullptr: as is).
 */
struct GoldenRun
{
    const char *preset;
    WorkloadMix mix;
    const char *machine = "";
    void (*shape)(SystemConfig &) = nullptr;
};

/** The run's header label: the preset, plus the machine when sliced. */
inline std::string
goldenLabel(const GoldenRun &g)
{
    return *g.machine ? std::string(g.preset) + " @ " + g.machine
                      : std::string(g.preset);
}

/**
 * Preset x mix grid the snapshot covers: every preset on single- and
 * dual-core unsliced machines, then sliced machines (every preset on 4
 * slices x 4 channels, asymmetric slice/channel counts, short and long
 * fabric hops, both DRAM-cache dirty-tracking modes, and a sampled
 * run), which pin the epoch engine's fabric delivery order.
 */
inline const std::vector<GoldenRun> &
goldenRuns()
{
    static const std::vector<GoldenRun> runs = [] {
        const std::vector<const char *> presets = {
            "Baseline", "TA-DIP",  "DAWB",    "VWQ",        "SkipCache",
            "DBI",      "DBI+AWB", "DBI+CLB", "DBI+AWB+CLB",
        };
        std::vector<GoldenRun> out;
        for (const char *p : presets) {
            out.push_back({p, WorkloadMix{"lbm"}});
            out.push_back({p, WorkloadMix{"mcf"}});
            out.push_back({p, WorkloadMix{"mcf", "lbm"}});
        }

        const WorkloadMix pairs = {"mcf", "lbm", "mcf", "lbm"};
        const WorkloadMix varied = {"libquantum", "stream", "mcf", "lbm"};
        const WorkloadMix streams = {"stream", "stream", "stream",
                                     "stream"};
        for (const char *p : presets) {
            out.push_back({p, pairs, "4s4c"});
        }
        out.push_back({"DBI", varied, "4s2c",
                       [](SystemConfig &c) { c.dram.channels = 2; }});
        out.push_back({"DBI", varied, "2s4c",
                       [](SystemConfig &c) { c.llcSlices = 2; }});
        out.push_back({"TA-DIP", streams, "4s4c hop1",
                       [](SystemConfig &c) { c.shardHopLatency = 1; }});
        out.push_back({"TA-DIP", streams, "4s4c hop16",
                       [](SystemConfig &c) { c.shardHopLatency = 16; }});
        out.push_back({"TA-DIP", streams, "4s4c hop128",
                       [](SystemConfig &c) { c.shardHopLatency = 128; }});
        out.push_back({"DBI", pairs, "4s4c dcache-index",
                       [](SystemConfig &c) {
                           c.dcache.enable = true;
                           c.dcache.sizeBytes = 2ull << 20;
                           c.dcache.indexEntries = 64;
                       }});
        out.push_back({"DBI", pairs, "4s4c dcache-tags",
                       [](SystemConfig &c) {
                           c.dcache.enable = true;
                           c.dcache.sizeBytes = 2ull << 20;
                           c.dcache.indexEntries = 64;
                           c.dcache.dirtyInTags = true;
                       }});
        out.push_back({"DBI", {"mcf", "mcf", "mcf", "mcf"}, "4s4c sampled",
                       [](SystemConfig &c) {
                           c.sampling.ffOps = 50'000;
                           c.sampling.sampleOps = 5'000;
                           c.sampling.periodOps = 15'000;
                       }});
        return out;
    }();
    return runs;
}

/** The fixed configuration every golden run uses (mechanism set later). */
inline SystemConfig
goldenConfig(std::uint32_t num_cores)
{
    SystemConfig cfg;
    cfg.numCores = num_cores;
    // Small LLC so eviction/writeback paths are exercised heavily even
    // at short instruction counts.
    cfg.llcBytesPerCore = 512 * 1024;
    cfg.core.warmupInstrs = 200'000;
    cfg.core.measureInstrs = 200'000;
    cfg.seed = 1;
    cfg.auditEvery = 1024;  // audited throughout (passive, stat-free)
    return cfg;
}

/** The sliced golden machine: 4 cores, 4 LLC slices, 4 DRAM channels. */
inline SystemConfig
slicedGoldenConfig()
{
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.llcSlices = 4;
    cfg.dram.channels = 4;
    cfg.core.warmupInstrs = 40'000;
    cfg.core.measureInstrs = 30'000;
    // Short predictor epoch so Skip/CLB mechanisms train in this run.
    cfg.pred.epochCycles = 100'000;
    cfg.seed = 1;
    cfg.auditEvery = 1024;
    return cfg;
}

/** The complete configuration of one golden run. */
inline SystemConfig
goldenRunConfig(const GoldenRun &g)
{
    SystemConfig cfg =
        *g.machine
            ? slicedGoldenConfig()
            : goldenConfig(static_cast<std::uint32_t>(g.mix.size()));
    if (g.shape) {
        g.shape(cfg);
    }
    cfg.mech = mechanismByName(g.preset);
    return cfg;
}

/** Serialize one result with round-trip-exact doubles. */
inline std::string
goldenSerialize(const std::string &label, const WorkloadMix &mix,
                const SimResult &r)
{
    char buf[128];
    std::string out = "run " + label + " | " + mixLabel(mix) + "\n";
    auto emitD = [&](const char *key, double v) {
        std::snprintf(buf, sizeof(buf), "%s=%.17g\n", key, v);
        out += buf;
    };
    for (std::size_t c = 0; c < r.ipc.size(); ++c) {
        std::snprintf(buf, sizeof(buf), "ipc%zu=%.17g\n", c, r.ipc[c]);
        out += buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "windowCycles=%llu\ntotalInstrs=%llu\n",
                  static_cast<unsigned long long>(r.windowCycles),
                  static_cast<unsigned long long>(r.totalInstrs));
    out += buf;
    emitD("readRowHitRate", r.readRowHitRate);
    emitD("writeRowHitRate", r.writeRowHitRate);
    emitD("tagLookupsPki", r.tagLookupsPki);
    emitD("wpki", r.wpki);
    emitD("mpki", r.mpki);
    emitD("dramEnergyPj", r.dramEnergyPj);
    for (const auto &[k, v] : r.stats) {
        std::snprintf(buf, sizeof(buf), "stat %s=%llu\n", k.c_str(),
                      static_cast<unsigned long long>(v));
        out += buf;
    }
    return out;
}

} // namespace dbsim::golden

#endif // DBSIM_TESTS_SIM_GOLDEN_RUN_HH
