/**
 * @file
 * Micro-benchmarks of the DBI structure itself: isDirty lookups,
 * setDirty updates (with and without evictions), and the single-query
 * row listing that AWB relies on — compared against the tag-store sweep
 * a DAWB-style implementation needs for the same answer (Section 2: the
 * DBI answers row queries in one access, the tag store in
 * blocks-per-row accesses).
 *
 * Timing is manual (calibrated wall-clock loops, no external benchmark
 * library). The experiment is serial-only: interleaving timing loops
 * with other runs on the pool would perturb the numbers, so the harness
 * pins it to --jobs 1.
 *
 * Usage: micro_dbi_ops [harness flags]
 */

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "cache/tag_store.hh"
#include "common/rng.hh"
#include "dbi/dbi.hh"
#include "harness.hh"

using namespace dbsim;

namespace {

constexpr std::uint64_t kCacheBlocks = 262144;  // 16MB / 64B

DbiConfig
benchConfig()
{
    DbiConfig cfg;
    cfg.alpha = 0.25;
    cfg.granularity = 64;
    cfg.assoc = 16;
    return cfg;
}

/** Prevent the optimizer from discarding a computed value. */
template <typename T>
inline void
doNotOptimize(T const &value)
{
    asm volatile("" : : "r,m"(value) : "memory");
}

/**
 * Time `op` with google-benchmark-style calibration: grow the batch
 * size until one batch takes >= 10ms of wall clock, then report the
 * per-iteration time of the final batch.
 */
double
timeNsPerOp(const std::function<void(std::uint64_t)> &op)
{
    using clock = std::chrono::steady_clock;
    std::uint64_t iters = 1024;
    while (true) {
        auto start = clock::now();
        op(iters);
        auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      clock::now() - start)
                      .count();
        if (ns >= 10'000'000 || iters >= (1ull << 30)) {
            return static_cast<double>(ns) / static_cast<double>(iters);
        }
        iters *= 4;
    }
}

struct Micro
{
    std::string name;
    std::function<double()> run;  // returns ns/op
};

const std::vector<Micro> kMicros = {
    {"DbiIsDirty",
     [] {
         Dbi dbi(benchConfig(), kCacheBlocks);
         Rng rng(1);
         for (int i = 0; i < 4096; ++i) {
             dbi.setDirty(rng.below(1u << 30) * kBlockBytes);
         }
         Rng probe(2);
         return timeNsPerOp([&](std::uint64_t n) {
             for (std::uint64_t i = 0; i < n; ++i) {
                 doNotOptimize(
                     dbi.isDirty(probe.below(1u << 30) * kBlockBytes));
             }
         });
     }},
    {"DbiSetDirtySteadyState",
     [] {
         Dbi dbi(benchConfig(), kCacheBlocks);
         Rng rng(3);
         return timeNsPerOp([&](std::uint64_t n) {
             for (std::uint64_t i = 0; i < n; ++i) {
                 auto wbs = dbi.setDirty(rng.below(1u << 30) *
                                         kBlockBytes);
                 doNotOptimize(wbs.data());
             }
         });
     }},
    {"DbiRowQuery",
     [] {
         // One DBI query lists every dirty block of a DRAM row.
         Dbi dbi(benchConfig(), kCacheBlocks);
         for (std::uint32_t i = 0; i < 64; ++i) {
             dbi.setDirty(static_cast<Addr>(i) * kBlockBytes);
         }
         return timeNsPerOp([&](std::uint64_t n) {
             for (std::uint64_t i = 0; i < n; ++i) {
                 auto blocks = dbi.dirtyBlocksInRegion(0);
                 doNotOptimize(blocks.data());
             }
         });
     }},
    {"TagStoreRowSweep",
     [] {
         // The DAWB equivalent: look up all 128 row blocks in the tag
         // store.
         CacheGeometry geo{16ull << 20, 32, ReplPolicy::Lru, 1, 9};
         TagStore tags(geo);
         for (std::uint32_t i = 0; i < 64; ++i) {
             tags.insert(static_cast<Addr>(i) * kBlockBytes, 0, true);
         }
         return timeNsPerOp([&](std::uint64_t n) {
             for (std::uint64_t it = 0; it < n; ++it) {
                 int dirty = 0;
                 for (std::uint32_t i = 0; i < 128; ++i) {
                     TagStore::Slot s =
                         tags.find(static_cast<Addr>(i) * kBlockBytes);
                     if (s != TagStore::kNoSlot && tags.dirtyAt(s)) {
                         ++dirty;
                     }
                 }
                 doNotOptimize(dirty);
             }
         });
     }},
    {"DbiClearDirty",
     [] {
         Dbi dbi(benchConfig(), kCacheBlocks);
         Rng rng(5);
         return timeNsPerOp([&](std::uint64_t n) {
             for (std::uint64_t i = 0; i < n; ++i) {
                 Addr a = rng.below(1u << 20) * kBlockBytes;
                 dbi.setDirty(a);
                 dbi.clearDirty(a);
             }
         });
     }},
};

exp::SweepSpec
buildSpec(const bench::HarnessOptions &)
{
    exp::SweepSpec spec;
    for (const auto &micro : kMicros) {
        auto &pt = spec.addCustom({}, [&micro](const SystemConfig &,
                                               exp::PointRecord &rec) {
            rec.mechanism = "micro";
            rec.mix = micro.name;
            rec.metrics["nsPerOp"] = micro.run();
        });
        pt.tags["op"] = micro.name;
    }
    return spec;
}

void
format(const std::vector<exp::PointRecord> &records,
       const bench::HarnessOptions &)
{
    std::printf("%-24s %14s\n", "operation", "time");
    for (const auto &rec : records) {
        std::printf("%-24s %11.1f ns\n", rec.tags.at("op").c_str(),
                    rec.metric("nsPerOp"));
    }
    std::printf("\nTagStoreRowSweep is the DAWB-style answer to the "
                "question DbiRowQuery answers in one access.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Experiment e{"micro_dbi_ops",
                        "DBI structure operation micro-benchmarks",
                        buildSpec, format};
    e.serialOnly = true;  // wall-clock timing; parallelism would skew it
    bench::registerExperiment(e);
    return bench::harnessMain(argc, argv);
}
