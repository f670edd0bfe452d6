/**
 * @file
 * Sampling differentials. Two laws and one estimator bound:
 *
 *  1. Sampling disabled is not a mode — a zeroed SamplingConfig must be
 *     bit-identical to a config that never mentions sampling, across
 *     the mechanism matrix.
 *  2. An all-detailed sampling config (sampleOps == periodOps, no
 *     fast-forward) measures every op: it must also be bit-identical
 *     to the plain run, proving the wrapper adds nothing when it has
 *     nothing to skip.
 *  3. Seeded fast-forward + periodic sampling is an IPC *estimator*:
 *     on a stationary trace its IPC must land within a bounded
 *     relative error of the full detailed run over the same trace.
 *
 * A sampled sliced run is pinned by the mechanism golden suite.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "sim/mechanism.hh"
#include "sim/system.hh"
#include "support/temp_path.hh"
#include "workload/champsim_trace.hh"
#include "workload/sampled_trace.hh"

namespace dbsim {
namespace {

/**
 * Deterministic stationary trace: a hot 256KB working set with a 10%
 * cold stream and 30% stores. Statistically uniform over its length,
 * so any window is representative — the property the estimator bound
 * leans on.
 */
void
writeStationaryTrace(const std::string &path)
{
    std::vector<ChampSimRecord> recs;
    recs.reserve(120'000);
    std::uint64_t rng = 0x2545f4914f6cdd1dull;
    std::uint64_t ip = 0x400000;
    for (int n = 0; n < 120'000; ++n) {
        rng ^= rng >> 12;
        rng ^= rng << 25;
        rng ^= rng >> 27;
        std::uint64_t r = rng * 0x9e3779b97f4a7c15ull;
        ip += 4;
        ChampSimRecord cr{};
        cr.ip = ip;
        if ((r >> 8) % 5 == 0) {
            cr.isBranch = 1;
            cr.branchTaken = (r >> 9) & 1;
        } else {
            std::uint64_t addr =
                (r >> 40) % 10 == 0
                    ? 0x80000000ull +
                          ((r >> 16) * 64 & ((64ull << 20) - 1))
                    : 0x10000000ull + ((r >> 16) * 64 & ((256 << 10) - 1));
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

/** The trace, written once per test process and removed at its exit. */
struct StationaryTrace
{
    test::TempPath path{".champsim"};
    StationaryTrace() { writeStationaryTrace(path); }
};

const std::string &
tracePath()
{
    static const StationaryTrace trace;
    return trace.path;
}

SystemConfig
traceConfig(MechanismSpec mech)
{
    SystemConfig cfg;
    cfg.mech = mech;
    cfg.numCores = 1;
    cfg.traceFile = tracePath();
    cfg.core.warmupInstrs = 20'000;
    cfg.core.measureInstrs = 60'000;
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
    EXPECT_EQ(a.wpki, b.wpki) << what;
    EXPECT_EQ(a.mpki, b.mpki) << what;
    EXPECT_EQ(a.dramEnergyPj, b.dramEnergyPj) << what;
}

TEST(Sampling, DisabledConfigIsBitIdenticalAcrossMechanisms)
{
    // A SamplingConfig left at its defaults must not exist as far as
    // results are concerned, for every Table 2 preset.
    for (Mechanism m : allMechanisms()) {
        SystemConfig plain = traceConfig(m);
        SystemConfig zeroed = traceConfig(m);
        zeroed.sampling = SamplingConfig{};
        ASSERT_FALSE(zeroed.sampling.enabled());
        SimResult a = runWorkload(plain, {"mcf"});
        SimResult b = runWorkload(zeroed, {"mcf"});
        expectIdentical(a, b, std::string(mechanismName(m)));
    }
}

TEST(Sampling, AllDetailedWindowIsBitIdenticalToPlainRun)
{
    // sampleOps == periodOps with no fast-forward: every window is
    // measured, nothing is warmed, and the wrapper must be invisible.
    for (Mechanism m :
         {Mechanism::TaDip, Mechanism::Dbi, Mechanism::DbiAwbClb}) {
        SystemConfig plain = traceConfig(m);
        SystemConfig sampled = traceConfig(m);
        sampled.sampling.sampleOps = 5'000;
        sampled.sampling.periodOps = 5'000;
        ASSERT_TRUE(sampled.sampling.enabled());
        SimResult a = runWorkload(plain, {"mcf"});
        SimResult b = runWorkload(sampled, {"mcf"});
        expectIdentical(a, b, std::string(mechanismName(m)));
    }
}

TEST(Sampling, SampledRunsAreDeterministicAcrossRepeats)
{
    SystemConfig cfg = traceConfig(Mechanism::DbiAwb);
    cfg.sampling.ffOps = 100'000;
    cfg.sampling.sampleOps = 5'000;
    cfg.sampling.periodOps = 20'000;
    SimResult a = runWorkload(cfg, {"mcf"});
    SimResult b = runWorkload(cfg, {"mcf"});
    expectIdentical(a, b, "sampled repeat");
}

TEST(Sampling, SampledIpcTracksFullRunWithinBound)
{
    // The estimator bound. The reference must itself be a steady-state
    // measurement: the trace is 120k records and loops, so a detailed
    // warmup past one full loop leaves every block the trace ever
    // touches resident — measuring earlier would time the cold-start
    // transient and compare the estimator against a non-stationary
    // number. Fast-forward + periodic sampling on the same trace must
    // then land within 20% relative error. The bound is deliberately
    // loose — SMARTS-style sampling has cold-start bias at window
    // entry (the unwarmed L1/L2) — but it is the difference between
    // an estimator and a random number.
    SystemConfig full = traceConfig(Mechanism::DbiAwb);
    full.core.warmupInstrs = 150'000;
    full.core.measureInstrs = 100'000;
    SimResult ref = runWorkload(full, {"mcf"});

    SystemConfig sampled = traceConfig(Mechanism::DbiAwb);
    sampled.core.warmupInstrs = 10'000;
    sampled.core.measureInstrs = 60'000;
    sampled.sampling.ffOps = 100'000;
    sampled.sampling.sampleOps = 10'000;
    sampled.sampling.periodOps = 30'000;
    SimResult est = runWorkload(sampled, {"mcf"});

    ASSERT_GT(ref.ipc.at(0), 0.0);
    double rel = (est.ipc.at(0) - ref.ipc.at(0)) / ref.ipc.at(0);
    EXPECT_LT(rel < 0 ? -rel : rel, 0.20)
        << "sampled IPC " << est.ipc.at(0) << " vs full "
        << ref.ipc.at(0);
}

TEST(Sampling, FastForwardSkipsAheadInTheTrace)
{
    // Pure fast-forward with no periodic windows: the detailed portion
    // must start 200k ops into the trace, not at the beginning, and
    // the warmed count must be exactly the configured span.
    SystemConfig cfg = traceConfig(Mechanism::Dbi);
    cfg.sampling.ffOps = 200'000;
    System sys(cfg, {"mcf"});
    sys.run();
    auto &st = dynamic_cast<SampledTrace &>(sys.traceSource(0));
    EXPECT_EQ(st.opsWarmed(), 200'000u);
    EXPECT_GT(st.opsMeasured(), 0u);
}

} // namespace
} // namespace dbsim
