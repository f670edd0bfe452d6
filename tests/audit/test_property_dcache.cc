/**
 * @file
 * Property suite for the two-level dirty hierarchy: generated op
 * streams (the same locality x dirtiness knob grid the LLC property
 * suite uses) drive machines with the die-stacked DRAM cache
 * interposed between the LLC and backing DDR, in both dirty-tracking
 * modes (exact SRAM index and the per-page dirty-in-tags ablation).
 * Each level runs under its own shadow-model auditor — the LLC's
 * InvariantAuditor (I1-I4) and the DCacheAuditor (D1-D5) — which panic
 * on any divergence, so a quiet run certifies the dirty bookkeeping at
 * both levels simultaneously. The suite closes with full-System runs:
 * audited, dcache-enabled, sharded machines must stay quiet and remain
 * bit-identical across worker counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "audit/dcache_auditor.hh"
#include "dcache/dcache.hh"
#include "dram/dram_controller.hh"
#include "sim/system.hh"
#include "support/composition.hh"
#include "support/opgen.hh"

namespace dbsim {
namespace {

using test::Op;
using test::OpGenConfig;

/** Small dcache under the 64KB test LLC: 512B pages, 2-way, 16 sets,
 *  16-entry 4-way dirty index — every structure overflows under the
 *  1MB generated address space. */
DCacheConfig
propDCache(bool dirty_in_tags)
{
    DCacheConfig cfg;
    cfg.enable = true;
    cfg.pageBytes = 512;
    cfg.assoc = 2;
    cfg.sizeBytes = 512ull * 2 * 16;
    cfg.dirtyInTags = dirty_in_tags;
    cfg.indexEntries = 16;
    cfg.indexAssoc = 4;
    return cfg;
}

/** Knob grid for stream i (mirrors the LLC property suite). */
OpGenConfig
knobsFor(int i)
{
    OpGenConfig cfg;
    cfg.seed = 0xDCAC4E + static_cast<std::uint64_t>(i) * 131;
    cfg.count = 700;
    cfg.writebackFraction = 0.15 + 0.20 * (i % 4);  // 0.15 .. 0.75
    cfg.localityFraction = 0.225 * (i % 5);         // 0.0 .. 0.9
    cfg.hotPoolBlocks = (i % 3 == 0) ? 16 : 64;
    return cfg;
}

TEST(PropertyDCache, AuditedStreamsStayQuietInBothModes)
{
    // The DRAM cache alone, fed raw LLC-style traffic. The auditor
    // cross-checks every 64 operations and panics on divergence; on a
    // quiet run we additionally assert the end-of-run differential by
    // hand: the mechanism's flush set equals ground truth exactly in
    // index mode and covers it (page-footprint-equal) in tags mode.
    constexpr int kStreams = 24;
    for (int i = 0; i < kStreams; ++i) {
        const std::vector<Op> ops = test::generateOps(knobsFor(i));
        for (bool tags : {false, true}) {
            EventQueue eq;
            DramController ddr(DramConfig{}, eq);
            DramCache dc(propDCache(tags), ddr, eq);
            audit::AuditConfig ac;
            ac.checkEvery = 64;
            audit::DCacheAuditor aud(dc, ac);

            int n = 0;
            for (const Op &op : ops) {
                if (op.isWriteback) {
                    dc.write(op.addr, eq.now());
                } else {
                    dc.read(op.addr, eq.now(), [](Cycle) {});
                }
                if (++n % 256 == 0) {
                    eq.runAll();
                }
            }
            eq.runAll();
            aud.checkNow();
            aud.checkFinal();

            EXPECT_GT(aud.eventsObserved(), 0u);
            EXPECT_GT(aud.checksRun(), 0u);

            std::vector<Addr> flush = aud.mechanismFlushBlocks();
            std::vector<Addr> truth = aud.shadowDirtyBlocks();
            if (!tags) {
                EXPECT_EQ(flush, truth) << "stream " << i;
            } else {
                EXPECT_GE(flush.size(), truth.size()) << "stream " << i;
                EXPECT_TRUE(std::includes(flush.begin(), flush.end(),
                                          truth.begin(), truth.end()))
                    << "stream " << i;
            }
        }
    }
}

TEST(PropertyDCache, BothDirtyLevelsStayQuietUnderOneStream)
{
    // The composed two-level hierarchy: a DBI-organized LLC whose
    // backing port is the DRAM cache, each level under its own shadow
    // auditor. The LLC's writebacks become the dcache's writes and the
    // LLC's misses its reads, so one stream exercises I1-I4 at the LLC
    // and D1-D5 at the dcache at the same time.
    constexpr int kStreams = 12;
    const std::vector<std::string> kSpecs = {"TA-DIP", "DBI",
                                             "dbi+dawb"};
    for (int i = 0; i < kStreams; ++i) {
        const std::vector<Op> ops = test::generateOps(knobsFor(100 + i));
        for (bool tags : {false, true}) {
            for (const std::string &spec_name : kSpecs) {
                EventQueue eq;
                DramController ddr(DramConfig{}, eq);
                DramCache dc(propDCache(tags), ddr, eq);

                MechanismSpec spec = mechanismByName(spec_name);
                std::shared_ptr<MissPredictor> pred;
                if (spec.needsPredictor()) {
                    pred = std::make_shared<test::AlwaysMissPredictor>();
                }
                std::unique_ptr<Llc> llc = makeLlc(
                    spec, test::smallLlc(), test::smallDbi(), dc, eq,
                    pred);

                audit::AuditConfig ac;
                ac.checkEvery = 128;
                audit::InvariantAuditor llc_aud(*llc, ac);
                audit::DCacheAuditor dc_aud(dc, ac);

                int n = 0;
                for (const Op &op : ops) {
                    if (op.isWriteback) {
                        llc->writeback(op.addr, 0, eq.now());
                    } else {
                        llc->read(op.addr, 0, eq.now(), [](Cycle) {});
                    }
                    if (++n % 256 == 0) {
                        eq.runAll();
                    }
                }
                eq.runAll();
                llc_aud.checkNow();
                dc_aud.checkNow();
                dc_aud.checkFinal();

                const std::string what = spec_name + " stream " +
                                         std::to_string(i) +
                                         (tags ? " tags" : " index");
                EXPECT_GT(llc_aud.eventsObserved(), 0u) << what;
                EXPECT_GT(dc_aud.eventsObserved(), 0u) << what;
                // The mechanism image must match ground truth with the
                // dcache interposed, exactly as without it.
                EXPECT_TRUE(llc_aud.finalImage() ==
                            llc_aud.shadow().finalImage())
                    << what;
            }
        }
    }
}

TEST(PropertyDCache, AuditedShardedSystemsStayQuietAndThreadInvariant)
{
    // Whole-machine closure: 4 cores / 4 slices / 4 channels with the
    // dcache tier enabled, auditors on at both levels, run twice.
    // System::run panics on any divergence and checkFinal runs at
    // result assembly, so quiet, repeatable runs are the whole claim.
    for (bool tags : {false, true}) {
        SystemConfig cfg;
        cfg.mech = mechanismByName("DBI");
        cfg.numCores = 4;
        cfg.llcSlices = 4;
        cfg.dram.channels = 4;
        cfg.core.warmupInstrs = 8'000;
        cfg.core.measureInstrs = 8'000;
        cfg.auditEvery = 256;
        // Shrink both levels so this short run drives real dirty
        // evictions all the way to backing DDR.
        cfg.llcBytesPerCore = 64 << 10;
        cfg.dcache.enable = true;
        cfg.dcache.sizeBytes = 256ull << 10;  // 64KB per slice
        cfg.dcache.indexEntries = 16;
        cfg.dcache.dirtyInTags = tags;
        WorkloadMix mix = {"mcf", "lbm", "stream", "libquantum"};

        System first(cfg, mix);
        SimResult a = first.run();
        System again(cfg, mix);
        SimResult b = again.run();

        const std::string what = tags ? "dirty-in-tags" : "dirty-index";
        EXPECT_EQ(a.stats, b.stats) << what;
        EXPECT_EQ(a.ipc, b.ipc) << what;
        EXPECT_EQ(a.windowCycles, b.windowCycles) << what;

        for (std::uint32_t s = 0; s < 4; ++s) {
            ASSERT_NE(first.sliceAuditor(s), nullptr) << what;
            ASSERT_NE(first.dcacheAuditor(s), nullptr) << what;
            EXPECT_GT(first.dcacheAuditor(s)->eventsObserved(), 0u)
                << what << " slice " << s;
            EXPECT_EQ(first.dcacheAuditor(s)->eventsObserved(),
                      again.dcacheAuditor(s)->eventsObserved())
                << what << " slice " << s;
        }
        EXPECT_GT(a.stats.at("dcache.ddrWrites"), 0u) << what;
    }
}

} // namespace
} // namespace dbsim
