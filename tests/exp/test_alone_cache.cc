/**
 * @file
 * exp::AloneIpcCache tests. The contract under test: concurrent get()
 * calls for the same benchmark perform exactly one computation (the
 * first requester computes, latecomers block on its shared future), and
 * results are stable across calls.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "exp/alone_cache.hh"

namespace dbsim::exp {
namespace {

TEST(AloneIpcCache, ComputesEachBenchmarkOnce)
{
    AloneIpcCache cache({}, [](const std::string &bench) {
        return static_cast<double>(bench.size());
    });

    EXPECT_DOUBLE_EQ(cache.get("lbm"), 3.0);
    EXPECT_DOUBLE_EQ(cache.get("lbm"), 3.0);
    EXPECT_DOUBLE_EQ(cache.get("bzip2"), 5.0);
    EXPECT_EQ(cache.computeCount(), 2u);
}

TEST(AloneIpcCache, ForMixSharesEntries)
{
    AloneIpcCache cache({}, [](const std::string &bench) {
        return static_cast<double>(bench.size());
    });

    auto v = cache.forMix({"lbm", "mcf", "lbm", "mcf"});
    ASSERT_EQ(v.size(), 4u);
    EXPECT_DOUBLE_EQ(v[0], 3.0);
    EXPECT_DOUBLE_EQ(v[1], 3.0);
    EXPECT_EQ(v[0], v[2]);
    EXPECT_EQ(v[1], v[3]);
    EXPECT_EQ(cache.computeCount(), 2u);
}

TEST(AloneIpcCache, ConcurrentRequestsComputeOnce)
{
    // A slow compute function maximizes the window in which a racy
    // implementation would duplicate work.
    std::atomic<int> in_flight{0};
    std::atomic<int> max_in_flight{0};
    AloneIpcCache cache({}, [&](const std::string &bench) {
        int now = ++in_flight;
        int seen = max_in_flight.load();
        while (now > seen &&
               !max_in_flight.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        --in_flight;
        return static_cast<double>(bench.size());
    });

    std::vector<std::thread> threads;
    std::vector<double> results(8, 0.0);
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back(
            [&cache, &results, t] { results[t] = cache.get("lbm"); });
    }
    for (auto &th : threads) {
        th.join();
    }

    EXPECT_EQ(cache.computeCount(), 1u);
    EXPECT_EQ(max_in_flight.load(), 1);
    for (double r : results) {
        EXPECT_DOUBLE_EQ(r, 3.0);
    }
}

TEST(AloneIpcCache, ConcurrentDistinctBenchmarksDoNotSerialize)
{
    // Different benchmarks must compute independently (one per
    // requester), not behind one global computation lock.
    AloneIpcCache cache({}, [](const std::string &bench) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        return static_cast<double>(bench.size());
    });

    std::vector<std::string> benches = {"a", "bb", "ccc", "dddd"};
    std::vector<std::thread> threads;
    for (const auto &b : benches) {
        threads.emplace_back([&cache, b] {
            EXPECT_DOUBLE_EQ(cache.get(b),
                             static_cast<double>(b.size()));
        });
    }
    for (auto &th : threads) {
        th.join();
    }
    EXPECT_EQ(cache.computeCount(), 4u);
}

TEST(AloneIpcCache, RealComputeIsDeterministic)
{
    // Default compute path: 1-core Baseline runs, repeated lookups
    // bit-identical.
    SystemConfig cfg;
    cfg.core.warmupInstrs = 20'000;
    cfg.core.measureInstrs = 20'000;
    AloneIpcCache a(cfg);
    AloneIpcCache b(cfg);
    EXPECT_EQ(a.get("lbm"), b.get("lbm"));
    EXPECT_EQ(a.computeCount(), 1u);
}

TEST(AloneRunConfig, PinsTheCanonicalTopology)
{
    SystemConfig base;
    base.numCores = 64;
    base.mech = Mechanism::DbiAwb;
    base.llcSlices = 4;
    base.dram.channels = 4;
    base.shardHopLatency = 64;
    base.seed = 42;
    base.core.warmupInstrs = 123;

    SystemConfig alone = aloneRunConfig(base);
    EXPECT_EQ(alone.numCores, 1u);
    EXPECT_EQ(alone.mech, MechanismSpec(Mechanism::Baseline));
    EXPECT_EQ(alone.llcSlices, 1u);
    EXPECT_EQ(alone.dram.channels, 1u);
    EXPECT_EQ(alone.shardHopLatency, 0u);
    // Scalar parameters are inherited untouched.
    EXPECT_EQ(alone.seed, 42u);
    EXPECT_EQ(alone.core.warmupInstrs, 123u);
    EXPECT_EQ(alone.llcBytesPerCore, base.llcBytesPerCore);
}

// Regression: alone runs used to inherit llcSlices/dram.channels/
// shardHopLatency from the shared machine, so sweeping --slices
// silently changed the fairness-metric denominators. The alone IPC of
// a benchmark must be one number, whatever machine the mix runs on.
TEST(AloneIpcCache, AloneIpcDoesNotDriftWithSharedTopology)
{
    SystemConfig base1;
    base1.numCores = 2;
    base1.core.warmupInstrs = 20'000;
    base1.core.measureInstrs = 15'000;

    SystemConfig base4 = base1;
    base4.llcSlices = 4;
    base4.dram.channels = 4;
    base4.shardHopLatency = 64;

    AloneIpcCache at1(base1);
    AloneIpcCache at4(base4);
    EXPECT_EQ(at1.get("mcf"), at4.get("mcf"));
}

} // namespace
} // namespace dbsim::exp
