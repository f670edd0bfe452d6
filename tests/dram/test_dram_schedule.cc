/**
 * @file
 * Scheduling-identity test for the DRAM controller: a seeded stream of
 * reads and writes at random cycles, digested over every completion
 * cycle and every counter. The digest is pinned, so any change to how
 * the controller stores, decodes or picks requests must reproduce the
 * FR-FCFS order ("oldest row hit, else oldest"), write forwarding,
 * coalescing and the drain windows exactly.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "common/event_queue.hh"
#include "common/rng.hh"
#include "dram/dram_controller.hh"

namespace dbsim {
namespace {

/** FNV-1a over 64-bit words. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
};

struct ScheduleCase
{
    std::uint32_t banks;
    std::uint32_t channels;
    bool writeWhenIdle;
    std::uint32_t lowWatermark;
};

/**
 * Drive `ops` requests through one controller. Addresses come from a
 * few rows per bank and a few blocks per row, so the stream mixes row
 * hits, row conflicts, forwarded reads and coalesced writes; arrivals
 * are at or shortly after the current cycle, with idle gaps long
 * enough for the queues to drain now and then.
 */
std::uint64_t
scheduleDigest(const ScheduleCase &c, std::uint64_t seed, int ops)
{
    DramConfig cfg;
    cfg.numBanks = c.banks;
    cfg.channels = c.channels;
    cfg.writeWhenIdle = c.writeWhenIdle;
    cfg.writeBufEntries = 24;
    cfg.drainLowWatermark = c.lowWatermark;
    EventQueue eq;
    DramController ctrl(cfg, eq);
    Rng rng(seed);
    Digest d;

    const std::uint64_t rows = std::uint64_t{c.banks} * c.channels * 4;
    Cycle t = 0;
    for (int op = 0; op < ops; ++op) {
        t += rng.chance(0.02) ? 200 + rng.below(400) : rng.below(60);
        eq.runUntil(t);
        Addr a = rng.below(rows) * cfg.rowBytes +
                 rng.below(12) * kBlockBytes;
        Cycle when = t + rng.below(4);
        if (rng.chance(0.6)) {
            auto id = static_cast<std::uint64_t>(op);
            ctrl.enqueueRead(a, when, [&d, id](Cycle done) {
                d.add(id);
                d.add(done);
            });
        } else {
            ctrl.enqueueWrite(a, when);
        }
        d.add(ctrl.pendingReads());
        d.add(ctrl.pendingWrites());
        d.add(ctrl.draining());
    }
    eq.runAll();
    // The stream must exercise what the digest guards.
    EXPECT_GT(ctrl.statReadRowHits.value(), 0u);
    EXPECT_LT(ctrl.statReadRowHits.value(), ctrl.statReads.value());
    EXPECT_GT(ctrl.statForwards.value(), 0u);
    EXPECT_GT(ctrl.statCoalesced.value(), 0u);
    EXPECT_GT(ctrl.statWrites.value(), 0u);
    for (const Counter *k :
         {&ctrl.statReads, &ctrl.statWrites, &ctrl.statReadRowHits,
          &ctrl.statWriteRowHits, &ctrl.statActivates, &ctrl.statDrains,
          &ctrl.statDrainCycles, &ctrl.statForwards, &ctrl.statCoalesced}) {
        d.add(k->value());
    }
    d.add(ctrl.pendingReads());
    d.add(ctrl.pendingWrites());
    d.add(eq.now());
    return d.h;
}

TEST(DramScheduler, OpStreamDigestIsPinned)
{
    // Pinned on the single-queue controller that re-decoded every
    // queued address at each pick; every later queue organisation must
    // reproduce them.
    struct Pinned
    {
        ScheduleCase c;
        std::uint64_t digest;
    };
    const Pinned cases[] = {
        {{1, 1, false, 0}, 0x5bc7b69d0c891e28ull},
        {{1, 1, false, 16}, 0xb54aaf705c64c88dull},
        {{1, 1, true, 0}, 0x275d84658c5db983ull},
        {{1, 1, true, 16}, 0xba7ff2d2e0303f17ull},
        {{1, 4, false, 0}, 0x98def721dcb1e56bull},
        {{1, 4, false, 16}, 0xe2658e7cd03b4a72ull},
        {{1, 4, true, 0}, 0xd81dc93722a6b466ull},
        {{1, 4, true, 16}, 0xa5a74971157e0bf7ull},
        {{8, 1, false, 0}, 0x505b6202707d326full},
        {{8, 1, false, 16}, 0xa2b5a222f4584feeull},
        {{8, 1, true, 0}, 0xdaf4b6b1732bf3eaull},
        {{8, 1, true, 16}, 0x21e0c875c7b953c2ull},
        {{8, 4, false, 0}, 0x23cb36850f86dcc7ull},
        {{8, 4, false, 16}, 0x9999900996be0b2dull},
        {{8, 4, true, 0}, 0xb83d7f452ec9db82ull},
        {{8, 4, true, 16}, 0xb0441c4c4c8867f3ull},
    };
    for (const Pinned &p : cases) {
        SCOPED_TRACE(testing::Message()
                     << "banks " << p.c.banks << " channels "
                     << p.c.channels << " writeWhenIdle "
                     << p.c.writeWhenIdle << " lowWatermark "
                     << p.c.lowWatermark);
        std::uint64_t got = scheduleDigest(p.c, 0x5eed + p.c.banks, 20'000);
        EXPECT_EQ(got, p.digest);
    }
}

} // namespace
} // namespace dbsim
