/**
 * @file
 * Benchmark profiles. The paper drives its evaluation with Pinpoint
 * traces of SPEC CPU2006 and STREAM; those traces are not available, so
 * each benchmark is modeled as a parameterized synthetic generator that
 * reproduces the characteristics the evaluated mechanisms differentiate
 * on: memory intensity (MPKI), write intensity (WPKI), LLC reuse, and
 * the spatial/DRAM-row locality of the read and write streams. See
 * DESIGN.md for the substitution rationale.
 *
 * Access behaviour is a mixture over four region types:
 *  - hot:    small region that fits in L1/L2 (near hits)
 *  - warm:   region comparable to the LLC (partial LLC reuse)
 *  - stream: sequential sweep over a huge region (compulsory misses,
 *            high DRAM-row locality)
 *  - cold:   uniform random over a huge region (misses, low locality)
 */

#ifndef DBSIM_WORKLOAD_PROFILES_HH
#define DBSIM_WORKLOAD_PROFILES_HH

#include <cstdint>
#include <string>
#include <vector>

namespace dbsim {

/** Probability mixture over region types (must sum to 1). */
struct Mixture
{
    double hot = 0.0;
    double warm = 0.0;
    double stream = 0.0;
    double cold = 0.0;
};

/** Low/medium/high intensity classes (workload-mix methodology). */
enum class Intensity : std::uint8_t { Low, Medium, High };

/** One benchmark's generative parameters. */
struct BenchProfile
{
    std::string name;
    double memFrac;    ///< memory ops per instruction
    double writeFrac;  ///< stores per memory op
    double depFrac;    ///< fraction of loads dependent on the prior op
    Mixture readMix;
    Mixture writeMix;
    std::uint64_t hotBytes;
    std::uint64_t warmBytes;
    std::uint64_t coldBytes;
    std::uint64_t streamBytes;
    /**
     * Concurrently active DRAM rows in the read/write streams. 1 means
     * a pure sequential sweep; larger values interleave blocks of many
     * rows, which is what scatters the baseline's writeback order (and
     * what AWB/DBI re-coalesce).
     */
    std::uint32_t readStreamRows;
    std::uint32_t writeStreamRows;
    Intensity readClass;   ///< read intensity class (for mixes)
    Intensity writeClass;  ///< write intensity class (for mixes)
};

/** All modeled benchmarks (SPEC CPU2006 subset + STREAM, Figure 6). */
const std::vector<BenchProfile> &allBenchmarks();

/** Look up a profile by name; fatal() if unknown. */
const BenchProfile &benchmarkByName(const std::string &name);

} // namespace dbsim

#endif // DBSIM_WORKLOAD_PROFILES_HH
