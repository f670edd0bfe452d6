/**
 * @file
 * Sliced-machine determinism: the epoch engine (common/shard.hh) must
 * reproduce a run bit for bit — every counter, every per-core IPC,
 * every derived metric — and the fabric hop must act as a real
 * simulated latency. The results themselves are pinned by the sliced
 * runs of the mechanism golden suite (sim/golden_run.hh).
 *
 * Each partitioned machine runs its epochs on one host thread; the
 * host parallelism left is sweep-level (`--jobs`), several Systems at
 * once on different threads. The thread-count tests hold that to the
 * same law: a sliced run on a thread of its own and the same run next
 * to others on a busy pool agree bit for bit, which fails if any
 * simulator state is shared between Systems.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "sim/mechanism.hh"
#include "sim/system.hh"

namespace dbsim {
namespace {

SystemConfig
slicedConfig(MechanismSpec mech)
{
    SystemConfig cfg;
    cfg.mech = mech;
    cfg.numCores = 4;
    cfg.llcSlices = 4;
    cfg.dram.channels = 4;
    cfg.core.warmupInstrs = 40'000;
    cfg.core.measureInstrs = 30'000;
    // Shorten the predictor epoch so Skip/CLB mechanisms actually train
    // inside this short run (mirrors test_system.cc).
    cfg.pred.epochCycles = 100'000;
    return cfg;
}

void
expectIdentical(const SimResult &a, const SimResult &b,
                const std::string &what)
{
    EXPECT_EQ(a.ipc, b.ipc) << what;
    EXPECT_EQ(a.stats, b.stats) << what;
    EXPECT_EQ(a.totalInstrs, b.totalInstrs) << what;
    EXPECT_EQ(a.windowCycles, b.windowCycles) << what;
    EXPECT_EQ(a.readRowHitRate, b.readRowHitRate) << what;
    EXPECT_EQ(a.writeRowHitRate, b.writeRowHitRate) << what;
    EXPECT_EQ(a.tagLookupsPki, b.tagLookupsPki) << what;
    EXPECT_EQ(a.wpki, b.wpki) << what;
    EXPECT_EQ(a.mpki, b.mpki) << what;
    EXPECT_EQ(a.dramEnergyPj, b.dramEnergyPj) << what;
    EXPECT_EQ(a.telemetry, b.telemetry) << what;
    EXPECT_EQ(a.metadata, b.metadata) << what;
}

const std::vector<WorkloadMix> kMixes = {
    {"stream", "stream", "stream", "stream"},
    {"mcf", "lbm", "mcf", "lbm"},
    {"libquantum", "stream", "mcf", "lbm"},
};

/** Host threads in the concurrent pool (the `--jobs 4` of a sweep). */
constexpr unsigned kThreads = 4;

/**
 * Run `job(i)` for every i < n on kThreads host threads at once, each
 * index on whichever thread takes it first.
 */
template <typename Job>
void
runOnThreads(std::size_t n, Job job)
{
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t) {
        pool.emplace_back([&] {
            for (std::size_t i; (i = next++) < n;)
                job(i);
        });
    }
    for (std::thread &t : pool)
        t.join();
}

/**
 * Every config run alone, then all of them on the pool at once; the
 * two must agree. Returns the results of the lone runs.
 */
std::vector<SimResult>
expectThreadCountInvariant(const std::vector<SystemConfig> &cfgs,
                           const std::vector<std::string> &names,
                           const WorkloadMix &mix)
{
    std::vector<SimResult> serial;
    for (const SystemConfig &cfg : cfgs)
        serial.push_back(runWorkload(cfg, mix));
    std::vector<SimResult> pooled(cfgs.size());
    runOnThreads(cfgs.size(), [&](std::size_t i) {
        pooled[i] = runWorkload(cfgs[i], mix);
    });
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        expectIdentical(serial[i], pooled[i], names[i]);
    return serial;
}

TEST(ShardIdentity, EveryPresetIsThreadCountInvariant)
{
    // The full Table 2 matrix x 3 mixes, alone vs on a 4-thread pool.
    for (std::size_t i = 0; i < kMixes.size(); ++i) {
        std::vector<SystemConfig> cfgs;
        std::vector<std::string> names;
        for (Mechanism m : allMechanisms()) {
            cfgs.push_back(slicedConfig(m));
            names.push_back(std::string(mechanismName(m)) + " mix " +
                            std::to_string(i));
        }
        expectThreadCountInvariant(cfgs, names, kMixes[i]);
    }
}

TEST(ShardIdentity, ShardedRunsAreDeterministicAcrossRepeats)
{
    // Same config, two runs: the epoch engine must be deterministic
    // against itself, event count included.
    SystemConfig cfg = slicedConfig(Mechanism::DbiAwb);
    const WorkloadMix mix = {"mcf", "lbm", "mcf", "lbm"};
    System a(cfg, mix);
    System b(cfg, mix);
    expectIdentical(a.run(), b.run(), "repeat");
    EXPECT_EQ(a.eventsDispatched(), b.eventsDispatched());
}

TEST(ShardIdentity, HopLatencyChangesStatsButNotIdentity)
{
    // The hop is part of the simulated machine: varying it must change
    // results (it's a real latency), while each value stays repeatable
    // — including the minimum W=1, where the epoch engine degenerates
    // to near-lockstep.
    SystemConfig cfg = slicedConfig(Mechanism::TaDip);
    const WorkloadMix mix = {"stream", "stream", "stream", "stream"};
    cfg.shardHopLatency = 64;
    SimResult base = runWorkload(cfg, mix);
    for (Cycle hop : {1u, 16u, 128u}) {
        cfg.shardHopLatency = hop;
        SimResult first = runWorkload(cfg, mix);
        SimResult again = runWorkload(cfg, mix);
        expectIdentical(first, again, "hop=" + std::to_string(hop));
        EXPECT_NE(first.windowCycles, base.windowCycles)
            << "hop latency should be a real simulated latency";
    }
}

TEST(ShardIdentity, DCacheTierIsThreadCountInvariantInBothModes)
{
    // The interposed DRAM-cache level adds per-slice state below the
    // LLC (and, in index mode, a second DBI-style structure). Both
    // dirty-tracking modes must keep a run independent of the threads
    // around it.
    std::vector<SystemConfig> cfgs;
    for (bool tags : {false, true}) {
        SystemConfig cfg = slicedConfig(Mechanism::Dbi);
        cfg.dcache.enable = true;
        cfg.dcache.sizeBytes = 2ull << 20;  // 512KB/slice: real evictions
        cfg.dcache.indexEntries = 64;
        cfg.dcache.dirtyInTags = tags;
        cfgs.push_back(cfg);
    }
    // Each mode twice, so the pool runs both modes side by side.
    cfgs.push_back(cfgs[0]);
    cfgs.push_back(cfgs[1]);
    const std::vector<std::string> names = {
        "dirty-index", "dirty-in-tags", "dirty-index (2nd)",
        "dirty-in-tags (2nd)"};
    const std::vector<SimResult> serial =
        expectThreadCountInvariant(cfgs, names, kMixes[1]);
    EXPECT_GT(serial[0].stats.at("dcache.reads"), 0u);
    EXPECT_GT(serial[1].stats.at("dcache.reads"), 0u);
}

TEST(ShardIdentity, EventCountIsThreadCountInvariant)
{
    const SystemConfig cfg = slicedConfig(Mechanism::Dbi);
    EXPECT_EQ(cfg.topology().workers, 1u);
    System alone(cfg, kMixes[0]);
    alone.run();
    std::vector<std::uint64_t> events(kThreads);
    runOnThreads(kThreads, [&](std::size_t i) {
        System pooled(cfg, kMixes[0]);
        pooled.run();
        events[i] = pooled.eventsDispatched();
    });
    for (std::uint64_t n : events)
        EXPECT_EQ(alone.eventsDispatched(), n);
}

} // namespace
} // namespace dbsim
