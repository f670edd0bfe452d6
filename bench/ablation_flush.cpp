/**
 * @file
 * Section 7 extensions: cache flushing and DMA coherence queries. After
 * warming a write-heavy workload, flush the whole cache (the power-down
 * / persistence scenario) and run bulk DMA dirty-queries, comparing the
 * lookup cost of the conventional brute-force tag sweep against the
 * DBI's compact per-row answers. Runs on one LLC slice only.
 *
 * Usage: ablation_flush [benchmark] [harness flags]
 */

#include <cstdio>
#include <string>

#include "common/logging.hh"
#include "harness.hh"
#include "sim/system.hh"

using namespace dbsim;

namespace {

exp::SweepSpec
buildSpec(const bench::HarnessOptions &o)
{
    std::string bench_name = o.posOr(0, "lbm");
    SystemConfig cfg;
    cfg.seed = o.seed;
    cfg.core.warmupInstrs = o.warmupOr(1'500'000);
    cfg.core.measureInstrs = o.measureOr(500'000);

    exp::SweepSpec spec;
    for (Mechanism m : {Mechanism::TaDip, Mechanism::DbiAwb}) {
        cfg.mech = m;
        auto &pt = spec.addCustom(cfg, [bench_name](const SystemConfig &cfg,
                                                    exp::PointRecord &rec) {
            // Llc::flushRegion and queryRegionDirty act on one slice,
            // and the Section 7 study assumes one monolithic LLC.
            const std::uint32_t slices = cfg.topology().slices;
            fatal_if(slices > 1,
                     "ablation_flush: the Section 7 flush study needs one "
                     "LLC slice, not %u (drop --slices)",
                     slices);
            System sys(cfg, {bench_name});
            sys.run();

            Llc &llc = sys.llc();
            // The benchmark's write-stream region: core 0's address-
            // space slice, stream-write sub-region (see SyntheticTrace's
            // layout).
            Addr base = (Addr{1} << 40) + (Addr{4} << 32);
            std::uint64_t span = 256ull << 20;  // stream footprint
            // DMA coherence query first (read-only)...
            auto query = llc.queryRegionDirty(base, span);
            // ...then flush the same span.
            auto flush = llc.flushRegion(base, span, 0);

            rec.mechanism = cfg.mech.label;
            rec.mix = bench_name;
            rec.stats["flushLookups"] = flush.lookups;
            rec.stats["flushWritebacks"] = flush.writebacks;
            rec.stats["queryLookups"] = query.lookups;
        });
        pt.tags["bench"] = bench_name;
    }
    return spec;
}

void
format(const std::vector<exp::PointRecord> &records,
       const bench::HarnessOptions &o)
{
    std::printf("Section 7: cache flush & DMA coherence on '%s'\n\n",
                o.posOr(0, "lbm").c_str());
    std::printf("%-14s %15s %12s %18s\n", "mechanism", "flush lookups",
                "writebacks", "DMA query lookups");

    for (const auto &rec : records) {
        std::printf("%-14s %15llu %12llu %18llu\n",
                    rec.mechanism.c_str(),
                    static_cast<unsigned long long>(
                        rec.stat("flushLookups")),
                    static_cast<unsigned long long>(
                        rec.stat("flushWritebacks")),
                    static_cast<unsigned long long>(
                        rec.stat("queryLookups")));
    }

    std::printf("\nThe conventional cache must look up every block of "
                "the range; the DBI answers each DRAM-row region with "
                "one access\nand spends tag lookups only on blocks that "
                "are actually dirty.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bench::registerExperiment(
        {"ablation_flush",
         "cache flush and DMA coherence query costs (Section 7)",
         buildSpec, format});
    return bench::harnessMain(argc, argv);
}
