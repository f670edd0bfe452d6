/**
 * @file
 * System-level telemetry tests: attaching the sampler, histograms, and
 * trace writer must not perturb the simulation (cycle- and
 * stat-identical runs), the drain-window durations traced through the
 * DramObserver seam must sum exactly to the controller's own
 * statDrainCycles, and the emitted artifacts must be well-formed. In a
 * -DDBSIM_TELEMETRY=OFF build the hooks are compiled out: the
 * perturbation checks still run, the tests that read telemetry output
 * skip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/prof.hh"
#include "sim/system.hh"
#include "support/temp_path.hh"
#include "telemetry/telemetry.hh"

namespace dbsim {
namespace {

SystemConfig
quickConfig(Mechanism m, std::uint32_t cores = 1)
{
    SystemConfig cfg;
    cfg.mech = m;
    cfg.numCores = cores;
    cfg.core.warmupInstrs = 200'000;
    cfg.core.measureInstrs = 200'000;
    return cfg;
}

TEST(TelemetrySystem, SamplingAndHistogramsDoNotPerturbTheRun)
{
    SystemConfig plain = quickConfig(Mechanism::DbiAwbClb);
    SimResult a = runWorkload(plain, {"lbm"});

    SystemConfig telem = plain;
    telem.telemetry.sampleEvery = 10'000;
    telem.telemetry.histograms = true;
    SimResult b = runWorkload(telem, {"lbm"});

    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.windowCycles, b.windowCycles);
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_TRUE(a.telemetry.empty());
    EXPECT_EQ(b.telemetry.empty(), !telemetry::kEnabled);
}

TEST(TelemetrySystem, SampleZeroAndSampleNAreStatIdentical)
{
    for (Mechanism m : {Mechanism::TaDip, Mechanism::Dawb,
                        Mechanism::SkipCache, Mechanism::DbiAwbClb}) {
        SystemConfig off = quickConfig(m);
        SystemConfig on = off;
        on.telemetry.sampleEvery = 5'000;
        SimResult a = runWorkload(off, {"mcf"});
        SimResult b = runWorkload(on, {"mcf"});
        EXPECT_EQ(a.stats, b.stats) << mechanismName(m);
        EXPECT_EQ(a.windowCycles, b.windowCycles) << mechanismName(m);
    }
}

TEST(TelemetrySystem, TracedDrainWindowsSumToDrainCycles)
{
    if (!telemetry::kEnabled) {
        GTEST_SKIP() << "telemetry compiled out";
    }
    // The observer seam credits exactly what endDrain credits, so the
    // sum of traced window durations equals the lifetime drain-cycle
    // counter. A small LLC under write-heavy lbm evicts dirty blocks
    // fast enough to fill the DRAM write queue and force drain windows.
    SystemConfig cfg = quickConfig(Mechanism::TaDip);
    cfg.llcBytesPerCore = 256 << 10;
    cfg.telemetry.histograms = true;
    System sys(cfg, {"lbm"});
    sys.run();

    ASSERT_NE(sys.telemetry(), nullptr);
    EXPECT_GT(sys.telemetry()->drainWindowsTraced(), 0u);
    EXPECT_EQ(sys.telemetry()->drainCyclesTraced(),
              sys.dram().statDrainCycles.value());
    EXPECT_EQ(sys.telemetry()->drainWindowsTraced(),
              sys.dram().statDrains.value());
    // The burst-length histogram saw every window.
    EXPECT_EQ(sys.telemetry()->drainBurstWrites().count(),
              sys.dram().statDrains.value());
}

TEST(TelemetrySystem, DirtyPerRowHistogramShowsRowLocality)
{
    if (!telemetry::kEnabled) {
        GTEST_SKIP() << "telemetry compiled out";
    }
    // Paper Fig. 2: at writeback time, the victim's DRAM row usually
    // holds several other dirty blocks. lbm (streaming writes) must
    // show samples well above 1 dirty block per row; a small LLC keeps
    // the short run eviction-heavy.
    SystemConfig cfg = quickConfig(Mechanism::TaDip);
    cfg.llcBytesPerCore = 256 << 10;
    cfg.telemetry.histograms = true;
    System sys(cfg, {"lbm"});
    sys.run();

    const telemetry::Histogram &h = sys.telemetry()->dirtyPerRowWb();
    ASSERT_GT(h.count(), 100u);
    EXPECT_GE(h.min(), 1u);  // the victim itself is always counted
    EXPECT_GT(h.percentile(50), 1u);
    // Row can't hold more dirty blocks than it has blocks.
    EXPECT_LE(h.max(), sys.dram().addrMap().blocksPerRow());
}

TEST(TelemetrySystem, ReadLatencyHistogramsSplitByClass)
{
    if (!telemetry::kEnabled) {
        GTEST_SKIP() << "telemetry compiled out";
    }
    SystemConfig cfg = quickConfig(Mechanism::DbiAwbClb);
    cfg.pred.epochCycles = 100'000;
    cfg.telemetry.histograms = true;
    System sys(cfg, {"milc"});
    sys.run();

    telemetry::SimTelemetry *t = sys.telemetry();
    EXPECT_GT(t->latReadHit().count(), 0u);
    EXPECT_GT(t->latReadMiss().count(), 0u);
    // Hits are tag+data latency; misses must be slower on average.
    EXPECT_LT(t->latReadHit().mean(), t->latReadMiss().mean());
    // With CLB trained, some predicted misses bypassed the tag store.
    std::uint64_t bypasses = sys.llc().statBypasses.value();
    EXPECT_EQ(t->latBypass().count(), bypasses);
}

TEST(TelemetrySystem, EpochRingCoversTheRun)
{
    if (!telemetry::kEnabled) {
        GTEST_SKIP() << "telemetry compiled out";
    }
    SystemConfig cfg = quickConfig(Mechanism::Dbi);
    cfg.telemetry.sampleEvery = 20'000;
    System sys(cfg, {"libquantum"});
    sys.run();

    telemetry::StatSampler *s = sys.telemetry()->sampler();
    ASSERT_NE(s, nullptr);
    ASSERT_GT(s->epochsClosed(), 2u);
    // Epochs tile the run: contiguous, strictly increasing.
    const auto &ring = s->ring();
    for (std::size_t i = 1; i < ring.size(); ++i) {
        EXPECT_EQ(ring[i].start, ring[i - 1].end);
        EXPECT_GT(ring[i].end, ring[i].start);
    }
    // DBI gauges are registered for DBI mechanisms.
    std::vector<std::string> names = s->channelNames();
    EXPECT_NE(std::find(names.begin(), names.end(), "dbiValidEntries"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "writeQueueDepth"),
              names.end());
}

TEST(TelemetrySystem, TraceFileIsWellFormedJson)
{
    if (!telemetry::kEnabled) {
        GTEST_SKIP() << "telemetry compiled out";
    }
    test::TempPath path(".trace.json");
    {
        SystemConfig cfg = quickConfig(Mechanism::DbiAwb);
        cfg.telemetry.tracePath = path;
        cfg.telemetry.sampleEvery = 50'000;
        System sys(cfg, {"lbm"});
        sys.run();
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    std::string doc = ss.str();
    while (!doc.empty() && doc.back() == '\n') {
        doc.pop_back();
    }
    // Structural checks (full parse is tools/check_trace.py's job).
    ASSERT_FALSE(doc.empty());
    EXPECT_EQ(doc.front(), '{');
    EXPECT_EQ(doc.back(), '}');
    EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(doc.find("\"otherData\":{"), std::string::npos);
    EXPECT_NE(doc.find("\"telemetry.drainCyclesTraced\":"),
              std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"M\""), std::string::npos);
}

TEST(TelemetrySystem, PointSuffixSplicesBeforeExtension)
{
    telemetry::TelemetryConfig tc;
    tc.timeseriesPath = "out/run_ts.jsonl";
    tc.tracePath = "run.trace.json";
    telemetry::TelemetryConfig p3 = tc.withPointSuffix(3);
    EXPECT_EQ(p3.timeseriesPath, "out/run_ts.pt3.jsonl");
    EXPECT_EQ(p3.tracePath, "run.trace.pt3.json");

    telemetry::TelemetryConfig bare;
    bare.tracePath = "noext";
    EXPECT_EQ(bare.withPointSuffix(0).tracePath, "noext.pt0");
    EXPECT_EQ(bare.withPointSuffix(0).timeseriesPath, "");
}

TEST(TelemetrySystem, ShardedFlightRecorderIsAnObserver)
{
    // The full flight recorder on a 4-shard machine — per-shard trace
    // streams, cross-shard flow events, the sampler, histograms, and
    // the host profiler all attached — must leave the simulation
    // bit-identical to a bare run of the same machine.
    SystemConfig plain = quickConfig(Mechanism::DbiAwbClb, 4);
    plain.core.warmupInstrs = 60'000;
    plain.core.measureInstrs = 60'000;
    plain.llcSlices = 4;
    plain.dram.channels = 4;
    WorkloadMix mix{"lbm", "libquantum", "mcf", "stream"};
    SimResult a = runWorkload(plain, mix);

    // A directory, so the per-shard streams beside the merged trace
    // are removed with it.
    test::TempPath dir;
    std::filesystem::create_directories(dir.str());
    const std::string trace = dir.str() + "/fr_neutral.trace.json";
    SystemConfig observed = plain;
    observed.telemetry.tracePath = trace;
    observed.telemetry.sampleEvery = 10'000;
    observed.telemetry.histograms = true;
    observed.profile = true;
    SimResult b = runWorkload(observed, mix);

    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.windowCycles, b.windowCycles);
    EXPECT_EQ(a.stats, b.stats);

    // The observers did report: flow totals in the trace-run telemetry,
    // host attribution in hostProfile (when the profiler is built in),
    // and the *merged* trace document at the base path.
    EXPECT_TRUE(a.hostProfile.empty());
    if (prof::kEnabled) {
        EXPECT_FALSE(b.hostProfile.empty());
        EXPECT_EQ(b.hostProfile.at("shards"), 4.0);
        EXPECT_GT(b.hostProfile.at("runMs"), 0.0);
        for (int s = 0; s < 4; ++s) {
            std::string k = "s" + std::to_string(s);
            EXPECT_GE(b.hostProfile.at(k + ".workMs"), 0.0);
            EXPECT_GE(b.hostProfile.at(k + ".stallMs"), 0.0);
            EXPECT_GT(b.hostProfile.at(k + ".epochs"), 0.0);
        }
    } else {
        EXPECT_TRUE(b.hostProfile.empty());
    }
    if (!telemetry::kEnabled) {
        return;  // no trace streams to merge
    }

    std::ifstream merged(trace);
    ASSERT_TRUE(merged.good());
    std::stringstream ss;
    ss << merged.rdbuf();
    std::string doc = ss.str();
    // Flow begin/end events and every shard's process track made it
    // into the single merged document.
    EXPECT_NE(doc.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"f\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"process_name\""), std::string::npos);
    EXPECT_NE(doc.find("shard 3"), std::string::npos);
    EXPECT_NE(doc.find("\"s0.telemetry.fabricFlowsBegun\""),
              std::string::npos);
}

TEST(TelemetrySystem, ProfileAloneKeepsResultsAndSkipsTelemetry)
{
    // --profile without telemetry: results identical, no telemetry
    // metrics, hostProfile populated iff the profiler is compiled in.
    SystemConfig plain = quickConfig(Mechanism::TaDip);
    SimResult a = runWorkload(plain, {"mcf"});

    SystemConfig prof_cfg = plain;
    prof_cfg.profile = true;
    SimResult b = runWorkload(prof_cfg, {"mcf"});

    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.windowCycles, b.windowCycles);
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_TRUE(b.telemetry.empty());
    if (prof::kEnabled) {
        EXPECT_FALSE(b.hostProfile.empty());
        // Single-partition machine: one lane, all epochs in shard 0.
        EXPECT_EQ(b.hostProfile.at("shards"), 1.0);
        EXPECT_GT(b.hostProfile.at("s0.events"), 0.0);
    }
}

TEST(TelemetrySystem, DisabledConfigAttachesNothing)
{
    SystemConfig cfg = quickConfig(Mechanism::TaDip);
    System sys(cfg, {"stream"});
    EXPECT_EQ(sys.telemetry(), nullptr);
    sys.run();
}

} // namespace
} // namespace dbsim
