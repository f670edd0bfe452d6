/**
 * @file
 * The LLC-miss path allocates nothing in steady state: once its tables
 * have reached their high-water marks, a demand miss that goes
 * CoreMemory MSHR -> LLC pending table -> (fabric hop ->) DRAM queue ->
 * fill makes no global operator new call. The binary links
 * tests/support/alloc_counter.cc, which counts every such call.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/event_queue.hh"
#include "cpu/core_memory.hh"
#include "dram/dram_controller.hh"
#include "llc/llc.hh"
#include "sim/mechanism.hh"
#include "sim/system.hh"
#include "support/alloc_counter.hh"

namespace dbsim {
namespace {

/**
 * One core's private levels over a DBI+AWB LLC slice and one DRAM
 * channel on a single queue. Each round issues a full MSHR's worth of
 * loads and stores to blocks never touched before, so every access
 * misses everywhere; stores dirty their blocks, so the round's
 * evictions also drive writebacks, DBI updates and DBI evictions, AWB
 * row sweeps and DRAM write drains.
 */
struct MissPath
{
    static constexpr std::uint32_t kMshrs = 32;

    MissPath()
        : dram(DramConfig{}, eq),
          llc(makeLlc(mechanismByName("DBI+AWB"),
                      LlcConfig{256 * 1024, 16, ReplPolicy::TaDip, 10, 24,
                                1, 11},
                      DbiConfig{}, dram, eq, nullptr)),
          mem(CoreMemoryConfig{}, *llc, 0, 1)
    {
    }

    /** One round of kMshrs misses, run to completion. */
    void
    round()
    {
        Cycle t = eq.now();
        for (std::uint32_t i = 0; i < kMshrs; ++i, ++next) {
            // Walk rows in a scattered order, a few blocks per row.
            Addr a = (next * 7919 % (1u << 20)) * 8192 +
                     (next % 4) * kBlockBytes;
            if (next % 3 == 0) {
                mem.store(a, t + i, [this](Cycle) { ++done; });
            } else {
                mem.load(a, t + i, [this](Cycle) { ++done; });
            }
        }
        eq.runAll();
    }

    EventQueue eq;
    DramController dram;
    std::unique_ptr<Llc> llc;
    CoreMemory mem;
    std::uint64_t next = 0;
    std::uint64_t done = 0;
};

TEST(MissPathAlloc, SingleShardMissesAllocateNothing)
{
    MissPath m;
    for (int r = 0; r < 400; ++r) {  // warm-up: tables reach their peak
        m.round();
    }
    const std::uint64_t misses = m.llc->statDemandMisses.value();
    const std::uint64_t wbs = m.llc->statWbToDram.value();
    const std::uint64_t before = test::heapAllocs();
    for (int r = 0; r < 200; ++r) {
        m.round();
    }
    const std::uint64_t allocs = test::heapAllocs() - before;

    EXPECT_EQ(m.done, 600u * MissPath::kMshrs);
    EXPECT_EQ(m.llc->statDemandMisses.value() - misses,
              200u * MissPath::kMshrs);
    EXPECT_GT(m.llc->statWbToDram.value(), wbs);  // writebacks ran too
    EXPECT_GT(m.dram.statDrains.value(), 0u);
    EXPECT_EQ(allocs, 0u);
}

/** Heap allocations during one System::run() and its LLC misses. */
struct RunCost
{
    std::uint64_t allocs;
    std::uint64_t misses;
};

RunCost
slicedRun(std::uint64_t measure_instrs)
{
    SystemConfig cfg;
    cfg.mech = Mechanism::DbiAwb;
    cfg.numCores = 4;
    cfg.llcSlices = 4;
    cfg.dram.channels = 4;
    cfg.auditEvery = 0;
    cfg.core.warmupInstrs = 100'000;
    cfg.core.measureInstrs = measure_instrs;
    System sys(cfg, WorkloadMix(4, "mcf"));
    const std::uint64_t before = test::heapAllocs();
    SimResult res = sys.run();
    return RunCost{test::heapAllocs() - before,
                   res.stats.at("llc.demandMisses")};
}

TEST(MissPathAlloc, SlicedMachineMissesAllocateAlmostNothing)
{
    // 4 slices, 4 channels: three quarters of all misses cross the
    // fabric twice, to the owning slice and on to the owning channel.
    // The longer run's extra misses may still push a table or a fabric
    // lane vector to a new high-water mark (a doubling, so a handful of
    // allocations), but nothing scales with the miss count.
    RunCost shorter = slicedRun(200'000);
    RunCost longer = slicedRun(600'000);
    ASSERT_GT(longer.misses, shorter.misses + 10'000);
    const std::uint64_t extra_misses = longer.misses - shorter.misses;
    const std::int64_t extra_allocs =
        static_cast<std::int64_t>(longer.allocs) -
        static_cast<std::int64_t>(shorter.allocs);
    RecordProperty("extra_misses", static_cast<int>(extra_misses));
    RecordProperty("extra_allocs", static_cast<int>(extra_allocs));
    EXPECT_LE(extra_allocs, 64) << extra_misses << " extra misses";
}

} // namespace
} // namespace dbsim
