/**
 * @file
 * Sharded-system integration tests: topology derivation and cross-axis
 * validation, the System compatibility façade on sliced machines,
 * cross-shard traffic actually flowing through the fabric, and the
 * partitioning rules (DBI rows never straddle slices or channels).
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/mechanism.hh"
#include "sim/system.hh"
#include "sim/topology.hh"

namespace dbsim {
namespace {

SystemConfig
shardedConfig(Mechanism m, std::uint32_t cores = 4)
{
    SystemConfig cfg;
    cfg.mech = m;
    cfg.numCores = cores;
    cfg.llcSlices = 4;
    cfg.dram.channels = 4;
    cfg.core.warmupInstrs = 60'000;
    cfg.core.measureInstrs = 40'000;
    return cfg;
}

WorkloadMix
mixOf(std::uint32_t cores, const std::string &bench)
{
    return WorkloadMix(cores, bench);
}

// ---- topology derivation and validation -----------------------------

TEST(Topology, Table1MachinesStayUnsharded)
{
    for (std::uint32_t cores : {1u, 2u, 4u, 8u}) {
        TopologySpec spec;
        spec.numCores = cores;
        spec.llcTotalBytes = (2ull << 20) * cores;
        spec.llcAssoc = 32;
        ShardTopology t = resolveTopology(spec);
        EXPECT_FALSE(t.sharded()) << cores << " cores";
        EXPECT_EQ(t.slices, 1u);
        EXPECT_EQ(t.channels, 1u);
        EXPECT_EQ(t.partitions, 1u);
        EXPECT_EQ(t.hopLatency, 0u);
    }
}

TEST(Topology, BigMachinesDeriveOneSlicePer16Cores)
{
    TopologySpec spec;
    spec.numCores = 64;
    spec.llcTotalBytes = (2ull << 20) * 64;
    spec.llcAssoc = 32;
    ShardTopology t = resolveTopology(spec);
    EXPECT_TRUE(t.sharded());
    EXPECT_EQ(t.slices, 4u);
    EXPECT_EQ(t.channels, 4u);  // defaults to one per slice
    EXPECT_EQ(t.partitions, 4u);
    EXPECT_EQ(t.hopLatency, 64u);
}

TEST(Topology, AsymmetricSliceChannelCountsPartitionByTheMax)
{
    TopologySpec spec;
    spec.numCores = 8;
    spec.llcSlices = 4;
    spec.dramChannels = 2;
    spec.llcTotalBytes = 2ull << 20 << 3;
    spec.llcAssoc = 32;
    ShardTopology t = resolveTopology(spec);
    EXPECT_EQ(t.partitions, 4u);
    // Channel 1 is co-resident with slice 1; channels own partitions
    // [0, channels), slices [0, slices).
    EXPECT_EQ(t.partitionOfChannel(1), 1u);
    EXPECT_EQ(t.partitionOfSlice(3), 3u);
}

TEST(Topology, NumShardsIsPureExecutionKnobClampedToPartitions)
{
    // numShards accepts only 0 and 1, and every machine runs its
    // partitions on one thread.
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.llcSlices = 2;
    for (std::uint32_t shards : {0u, 1u}) {
        cfg.numShards = shards;
        const ShardTopology t = cfg.topology();
        EXPECT_EQ(t.partitions, 2u);
        EXPECT_EQ(t.workers, 1u);
    }
}

TEST(Topology, DbiRowsNeverStraddleSlicesOrChannels)
{
    TopologySpec spec;
    spec.numCores = 4;
    spec.llcSlices = 4;
    spec.dramChannels = 2;
    spec.llcTotalBytes = 8ull << 20;
    spec.llcAssoc = 32;
    ShardTopology t = resolveTopology(spec);
    // Interleave granularity is the DRAM row: every block of a row maps
    // to that row's slice and channel, so a DBI entry (<= one row) is
    // always wholly owned by one slice and one channel.
    for (Addr row = 0; row < 64; ++row) {
        Addr base = row * t.rowBytes;
        for (Addr off = 0; off < t.rowBytes; off += kBlockBytes) {
            EXPECT_EQ(t.sliceOf(base + off), t.sliceOf(base));
            EXPECT_EQ(t.channelOf(base + off), t.channelOf(base));
        }
    }
}

TEST(TopologyDeath, RejectsBadAxisCombinations)
{
    TopologySpec spec;
    spec.numCores = 4;
    spec.llcTotalBytes = 8ull << 20;
    spec.llcAssoc = 32;

    TopologySpec bad = spec;
    bad.llcSlices = 3;
    EXPECT_DEATH(resolveTopology(bad), "power of two");

    bad = spec;
    bad.dramChannels = 6;
    EXPECT_DEATH(resolveTopology(bad), "power of two");

    bad = spec;
    bad.hopLatency = 64;  // one slice, one channel: nothing to hop
    EXPECT_DEATH(resolveTopology(bad), "one slice and one channel");

    bad = spec;
    bad.llcSlices = 64;  // 128KB slices cannot hold a 32-way set? They
    bad.llcAssoc = 4096; // can; force it with an absurd associativity.
    EXPECT_DEATH(resolveTopology(bad), "cannot hold");
}

TEST(TopologyDeath, RejectsThreadedExecution)
{
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.llcSlices = 4;
    cfg.numShards = 4;
    EXPECT_DEATH(cfg.topology(),
                 "numShards = 4: threaded execution of sliced machines "
                 "was removed");
}

TEST(TopologyDeath, SystemConfigValidatesThroughTheSameChoke)
{
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.llcSlices = 5;
    EXPECT_DEATH(cfg.topology(), "power of two");
}

TEST(Topology, DCachePagesNeverStraddleSlicesOrChannels)
{
    // An interposed DRAM-cache page must be wholly owned by one slice
    // and one channel (the same rule DBI rows obey): accepted exactly
    // when the page size divides the DRAM row.
    TopologySpec spec;
    spec.numCores = 4;
    spec.llcSlices = 4;
    spec.dramChannels = 2;
    spec.llcTotalBytes = 8ull << 20;
    spec.llcAssoc = 32;

    for (std::uint64_t page : {64ull, 2048ull, 8192ull}) {
        spec.dcachePageBytes = page;
        ShardTopology t = resolveTopology(spec);
        for (Addr base = 0; base < 64 * page; base += page) {
            for (Addr off = 0; off < page; off += kBlockBytes) {
                EXPECT_EQ(t.sliceOf(base + off), t.sliceOf(base));
                EXPECT_EQ(t.channelOf(base + off), t.channelOf(base));
            }
        }
    }
}

TEST(TopologyDeath, RejectsDCachePagesStraddlingTheInterleave)
{
    TopologySpec spec;
    spec.numCores = 4;
    spec.llcSlices = 4;
    spec.llcTotalBytes = 8ull << 20;
    spec.llcAssoc = 32;

    TopologySpec bad = spec;
    bad.dcachePageBytes = 16384;  // coarser than the 8KB row interleave
    EXPECT_DEATH(resolveTopology(bad), "straddle");

    bad = spec;
    bad.dcachePageBytes = 3072;  // fits in a row but does not divide it
    EXPECT_DEATH(resolveTopology(bad), "power of two|straddle");

    bad = spec;
    bad.dcachePageBytes = 32;  // smaller than one block
    EXPECT_DEATH(resolveTopology(bad), "power of two");

    // The System choke point applies the same rule.
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.dcache.enable = true;
    cfg.dcache.pageBytes = 16384;
    EXPECT_DEATH(cfg.topology(), "straddle");
}

// ---- the System façade on sliced machines ---------------------------

TEST(ShardedSystem, FacadeExposesSlicesChannelsAndFabric)
{
    SystemConfig cfg = shardedConfig(Mechanism::Dbi);
    System sys(cfg, mixOf(4, "stream"));
    EXPECT_EQ(sys.numSlices(), 4u);
    EXPECT_EQ(sys.numChannels(), 4u);
    EXPECT_EQ(sys.numPartitions(), 4u);
    ASSERT_NE(sys.fabric(), nullptr);
    // llc()/dram() keep meaning slice/channel 0.
    EXPECT_EQ(&sys.llc(), &sys.llcSlice(0));
    EXPECT_EQ(&sys.dram(), &sys.dramChannel(0));
    EXPECT_NE(&sys.llcSlice(1), &sys.llcSlice(0));
    // Each slice has its own DBI (slice-local policy tuple).
    EXPECT_NE(sys.llcSlice(0).dbiIndex(), nullptr);
    EXPECT_NE(sys.llcSlice(1).dbiIndex(), nullptr);
    EXPECT_NE(sys.llcSlice(0).dbiIndex(), sys.llcSlice(1).dbiIndex());
}

TEST(ShardedSystem, DefaultMachineHasNoFabric)
{
    SystemConfig cfg;
    cfg.numCores = 1;
    cfg.core.warmupInstrs = 10'000;
    cfg.core.measureInstrs = 10'000;
    System sys(cfg, {"stream"});
    EXPECT_EQ(sys.fabric(), nullptr);
    EXPECT_EQ(sys.numPartitions(), 1u);
}

TEST(ShardedSystem, CrossShardTrafficFlowsThroughTheFabric)
{
    SystemConfig cfg = shardedConfig(Mechanism::TaDip);
    System sys(cfg, mixOf(4, "mcf"));
    SimResult r = sys.run();
    // Cores touch the whole address space, so most accesses land on a
    // remote slice: the mailbox must have carried real traffic, and it
    // is drained at the end of the run.
    ASSERT_NE(sys.fabric(), nullptr);
    EXPECT_GT(sys.fabric()->statMessages.value(), 1000u);
    EXPECT_EQ(sys.fabric()->inFlight(), 0u);
    // The collected stat is measurement-window scoped; the raw counter
    // is whole-run.
    EXPECT_GT(r.stats.at("fabric.messages"), 0u);
    EXPECT_LE(r.stats.at("fabric.messages"),
              sys.fabric()->statMessages.value());
    for (std::uint32_t c = 0; c < 4; ++c) {
        EXPECT_GT(r.ipc[c], 0.0);
    }
}

TEST(ShardedSystem, EveryChannelAndSliceSeesTraffic)
{
    SystemConfig cfg = shardedConfig(Mechanism::Dbi);
    System sys(cfg, mixOf(4, "mcf"));
    sys.run();
    for (std::uint32_t c = 0; c < sys.numChannels(); ++c) {
        EXPECT_GT(sys.dramChannel(c).statReads.value(), 0u)
            << "channel " << c;
    }
    for (std::uint32_t s = 0; s < sys.numSlices(); ++s) {
        EXPECT_GT(sys.llcSlice(s).statDemandMisses.value(), 0u)
            << "slice " << s;
    }
}

TEST(ShardedSystem, ShardedRunsCompleteOnAllMechanismPresets)
{
    for (Mechanism m : allMechanisms()) {
        SystemConfig cfg = shardedConfig(m);
        SimResult r = runWorkload(cfg, mixOf(4, "stream"));
        EXPECT_GT(r.windowCycles, 0u) << mechanismName(m);
        EXPECT_GT(r.totalInstrs, 0u) << mechanismName(m);
    }
}

TEST(ShardedSystem, PerSliceAuditorsAttachOnAuditedBuilds)
{
    SystemConfig cfg = shardedConfig(Mechanism::DbiAwb);
#ifdef DBSIM_AUDIT
    System sys(cfg, mixOf(4, "lbm"));
    for (std::uint32_t s = 0; s < sys.numSlices(); ++s) {
        ASSERT_NE(sys.sliceAuditor(s), nullptr);
    }
    sys.run();
    for (std::uint32_t s = 0; s < sys.numSlices(); ++s) {
        EXPECT_GT(sys.sliceAuditor(s)->eventsObserved(), 0u)
            << "slice " << s;
    }
#else
    System sys(cfg, mixOf(4, "lbm"));
    EXPECT_EQ(sys.auditor(), nullptr);
#endif
}

TEST(ShardedSystemDeath, UnknownMechanismErrorExplainsSliceLocalTuples)
{
    // The error text teaches the sliced-machine model: one machine-wide
    // mechanism spec, instantiated per slice.
    EXPECT_DEATH(mechanismByName("no-such-mechanism"), "slice-local");
}

} // namespace
} // namespace dbsim
