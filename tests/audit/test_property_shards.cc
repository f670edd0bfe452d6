/**
 * @file
 * Property suite for the sharded engine under the invariant auditor:
 * generated op streams (a locality x dirtiness x pointer-chasing knob
 * grid, replayed through file traces so every run sees the exact same
 * access sequence) drive a 4-shard audited System. Every stream must
 * (a) complete with all four per-slice auditors quiet — the auditors
 * panic on any dirty-state divergence, including cross-shard ordering
 * bugs that corrupt a slice's DBI — and (b) be bit-identical when run
 * again, auditors and final memory images included, also when several
 * Systems run at once on different host threads (sweep-level `--jobs`).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "audit/shadow_model.hh"
#include "common/rng.hh"
#include "sim/system.hh"
#include "support/temp_path.hh"
#include "workload/file_trace.hh"

namespace dbsim {
namespace {

struct StreamKnobs
{
    std::uint64_t seed;
    double writeFraction;
    double localityFraction;
    double chaseFraction;
};

/** Deterministic trace for one core: the op-stream generator. */
std::vector<TraceOp>
generateStream(const StreamKnobs &k, std::size_t count)
{
    Rng rng(k.seed);
    std::vector<TraceOp> ops;
    ops.reserve(count);
    std::vector<Addr> pool;
    for (std::size_t i = 0; i < count; ++i) {
        TraceOp op;
        op.gap = static_cast<std::uint32_t>(rng.below(24));
        op.isWrite = rng.chance(k.writeFraction);
        op.dependent = rng.chance(k.chaseFraction);
        if (!pool.empty() && rng.chance(k.localityFraction)) {
            op.addr = pool[rng.below(pool.size())];
        } else {
            op.addr = blockAlign(rng.below(64ull << 20));
            if (pool.size() < 128) {
                pool.push_back(op.addr);
            } else {
                pool[rng.below(pool.size())] = op.addr;
            }
        }
        ops.push_back(op);
    }
    return ops;
}

/** Knob grid point i: cycles the corners deterministically. */
StreamKnobs
knobsFor(int i)
{
    StreamKnobs k;
    k.seed = 0x5AD5EED + static_cast<std::uint64_t>(i) * 7919;
    k.writeFraction = 0.10 + 0.25 * (i % 4);      // 0.10 .. 0.85
    k.localityFraction = 0.30 * (i % 3);          // 0.0 .. 0.6
    k.chaseFraction = (i % 2) ? 0.3 : 0.0;
    return k;
}

/** Write 4 generated traces and return the "@path" workload mix. */
WorkloadMix
writeTraces(int stream, const std::string &dir)
{
    WorkloadMix mix;
    for (int core = 0; core < 4; ++core) {
        std::string path = dir + "/shardprop_" +
                           std::to_string(stream) + "_" +
                           std::to_string(core) + ".trace";
        FileTrace::write(path,
                         generateStream(knobsFor(stream * 4 + core),
                                        2'000));
        mix.push_back("@" + path);
    }
    return mix;
}

SystemConfig
auditedShardedConfig(MechanismSpec mech)
{
    SystemConfig cfg;
    cfg.mech = mech;
    cfg.numCores = 4;
    cfg.llcSlices = 4;
    cfg.dram.channels = 4;
    cfg.core.warmupInstrs = 8'000;
    cfg.core.measureInstrs = 8'000;
    cfg.auditEvery = 256;  // aggressive: cross-check every 256 events
    return cfg;
}

/** The mechanisms whose dirty-state plumbing differs structurally. */
const std::vector<std::string> kMechanisms = {
    "TA-DIP",
    "DBI",
    "DBI+AWB+CLB",
    "dbi+vwq",
    "dawb+clb",
};

TEST(PropertyShards, AuditedShardedRunsStayQuietAndThreadInvariant)
{
    const test::TempPath dir;
    std::filesystem::create_directories(dir.str());
    constexpr int kStreams = 6;
    for (int i = 0; i < kStreams; ++i) {
        WorkloadMix mix = writeTraces(i, dir);
        for (const std::string &name : kMechanisms) {
            const SystemConfig cfg =
                auditedShardedConfig(mechanismByName(name));
            System first(cfg, mix);
            SimResult a = first.run();  // auditor panics on divergence
            System again(cfg, mix);
            SimResult b = again.run();

            const std::string what =
                name + " stream " + std::to_string(i);
            EXPECT_EQ(a.stats, b.stats) << what;
            EXPECT_EQ(a.ipc, b.ipc) << what;
            EXPECT_EQ(a.windowCycles, b.windowCycles) << what;

            // The auditors observed real traffic on every slice, saw
            // the same event stream both times, and each slice ended
            // with the same memory image. (The run itself already
            // enforces mechanism-vs-shadow image equality per slice.)
            for (std::uint32_t s = 0; s < 4; ++s) {
                ASSERT_NE(first.sliceAuditor(s), nullptr);
                EXPECT_EQ(first.sliceAuditor(s)->eventsObserved(),
                          again.sliceAuditor(s)->eventsObserved())
                    << what << " slice " << s;
                EXPECT_GT(first.sliceAuditor(s)->checksRun(), 0u)
                    << what << " slice " << s;
                EXPECT_TRUE(first.sliceAuditor(s)->finalImage() ==
                            again.sliceAuditor(s)->finalImage())
                    << what << " slice " << s;
            }
        }
    }
}

TEST(PropertyShards, FinalImagesAreThreadCountInvariantPerSlice)
{
    // The run itself already enforces mechanism-vs-shadow image
    // equality per slice (System panics otherwise). On top of that,
    // the image each slice ends with must not depend on how many host
    // threads run Systems at once: each mechanism alone, then both
    // mechanisms twice over on four threads side by side.
    using Images = std::vector<audit::MemoryImage>;
    const test::TempPath dir;
    std::filesystem::create_directories(dir.str());
    const WorkloadMix mix = writeTraces(97, dir);
    const std::vector<std::string> names = {"DBI", "DBI+AWB+CLB"};
    std::vector<SystemConfig> cfgs;
    for (const std::string &name : names)
        cfgs.push_back(auditedShardedConfig(mechanismByName(name)));

    auto runImages = [&mix](const SystemConfig &cfg) {
        System sys(cfg, mix);
        sys.run();
        Images images;
        for (std::uint32_t s = 0; s < 4; ++s)
            images.push_back(sys.sliceAuditor(s)->finalImage());
        return images;
    };
    std::vector<Images> alone;
    for (const SystemConfig &cfg : cfgs)
        alone.push_back(runImages(cfg));
    std::vector<Images> pooled(2 * cfgs.size());
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < pooled.size(); ++t) {
        threads.emplace_back([&, t] {
            pooled[t] = runImages(cfgs[t % cfgs.size()]);
        });
    }
    for (std::thread &t : threads)
        t.join();

    for (std::size_t t = 0; t < pooled.size(); ++t) {
        const std::size_t m = t % cfgs.size();
        for (std::uint32_t s = 0; s < 4; ++s) {
            EXPECT_TRUE(alone[m][s] == pooled[t][s])
                << names[m] << " thread " << t << " slice " << s;
        }
    }
}

} // namespace
} // namespace dbsim
