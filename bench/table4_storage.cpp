/**
 * @file
 * Table 4 reproduction: bit storage cost reduction of the cache with
 * DBI compared to the conventional organization, for DBI sizes
 * alpha = 1/4 and 1/2, with and without ECC. Also prints the absolute
 * bit budgets behind the percentages and the Section 6.3 area estimates
 * from CACTI-lite (8%/5% overall cache area reduction at 16MB).
 *
 * Usage: table4_storage [harness flags]
 */

#include <cstdio>

#include "harness.hh"
#include "model/cacti_lite.hh"
#include "model/storage_model.hh"

using namespace dbsim;

namespace {

exp::SweepSpec
buildSpec(const bench::HarnessOptions &)
{
    exp::SweepSpec spec;
    for (double alpha : {0.25, 0.5}) {
        auto &pt = spec.addCustom({}, [alpha](const SystemConfig &,
                                              exp::PointRecord &rec) {
            rec.mechanism = "DBI";
            rec.mix = "analytic";

            StorageParams p;
            p.alpha = alpha;
            p.withEcc = false;
            StorageModel no_ecc(p);
            p.withEcc = true;
            StorageModel ecc(p);

            rec.metrics["alpha"] = alpha;
            rec.metrics["tagStoreReduction"] =
                no_ecc.tagStoreReduction();
            rec.metrics["cacheReduction"] = no_ecc.cacheReduction();
            rec.metrics["tagStoreReductionEcc"] =
                ecc.tagStoreReduction();
            rec.metrics["cacheReductionEcc"] = ecc.cacheReduction();

            // Section 6.3 area estimate (always with ECC).
            CactiLite cacti;
            auto base = ecc.baseline();
            auto dbi = ecc.withDbi();
            double base_area =
                cacti.estimate(base.tagStoreBits).areaMm2 +
                cacti.estimate(base.dataStoreBits).areaMm2;
            double dbi_area =
                cacti.estimate(dbi.tagStoreBits).areaMm2 +
                cacti.estimate(dbi.dbiBits).areaMm2 +
                cacti.estimate(dbi.dataStoreBits).areaMm2;
            rec.metrics["areaReduction"] = 1.0 - dbi_area / base_area;

            // Absolute budgets (printed for alpha = 1/4 only, but
            // cheap enough to record for every point).
            rec.metrics["baseTagStoreBits"] =
                static_cast<double>(base.tagStoreBits);
            rec.metrics["baseDataStoreBits"] =
                static_cast<double>(base.dataStoreBits);
            rec.metrics["dbiTagStoreBits"] =
                static_cast<double>(dbi.tagStoreBits);
            rec.metrics["dbiBits"] = static_cast<double>(dbi.dbiBits);
            rec.metrics["dbiDataStoreBits"] =
                static_cast<double>(dbi.dataStoreBits);
            rec.metrics["numDbiEntries"] =
                static_cast<double>(ecc.numDbiEntries());
            rec.metrics["dbiEntryBits"] =
                static_cast<double>(ecc.dbiEntryBits());
        });
        pt.tags["alpha"] = alpha == 0.25 ? "0.25" : "0.5";
    }
    return spec;
}

void
format(const std::vector<exp::PointRecord> &records,
       const bench::HarnessOptions &)
{
    std::printf("Table 4: bit storage cost reduction vs conventional "
                "cache (16MB, 32-way, 40-bit physical addresses)\n\n");
    std::printf("%-10s %12s %10s %14s %10s\n", "DBI (a)",
                "TagStore", "Cache", "TagStore+ECC", "Cache+ECC");
    for (const auto &rec : records) {
        std::printf("%-10.2g %11.1f%% %9.2f%% %13.1f%% %9.1f%%\n",
                    rec.metric("alpha"),
                    100.0 * rec.metric("tagStoreReduction"),
                    100.0 * rec.metric("cacheReduction"),
                    100.0 * rec.metric("tagStoreReductionEcc"),
                    100.0 * rec.metric("cacheReductionEcc"));
    }

    const exp::PointRecord &quarter = records.at(0);
    std::printf("\nAbsolute budgets (alpha = 1/4, with ECC):\n");
    std::printf("  baseline: tag store %10.2f Mbit, data %8.1f Mbit\n",
                quarter.metric("baseTagStoreBits") / 1048576.0,
                quarter.metric("baseDataStoreBits") / 1048576.0);
    std::printf("  with DBI: tag store %10.2f Mbit, DBI %6.2f Mbit, "
                "data %8.1f Mbit\n",
                quarter.metric("dbiTagStoreBits") / 1048576.0,
                quarter.metric("dbiBits") / 1048576.0,
                quarter.metric("dbiDataStoreBits") / 1048576.0);
    std::printf("  DBI entries: %llu of %llu bits each\n",
                static_cast<unsigned long long>(
                    quarter.metric("numDbiEntries")),
                static_cast<unsigned long long>(
                    quarter.metric("dbiEntryBits")));

    std::printf("\nSection 6.3 (CACTI-lite): overall 16MB cache area "
                "reduction\n");
    std::printf("  alpha = 1/4: %4.1f%%   (paper: 8%%)\n",
                100.0 * records.at(0).metric("areaReduction"));
    std::printf("  alpha = 1/2: %4.1f%%   (paper: 5%%)\n",
                100.0 * records.at(1).metric("areaReduction"));
}

} // namespace

int
main(int argc, char **argv)
{
    bench::registerExperiment(
        {"table4_storage",
         "storage cost reduction and area estimates (Table 4, S6.3)",
         buildSpec, format});
    return bench::harnessMain(argc, argv);
}
