/**
 * @file
 * Deterministic synthetic trace generator implementing a BenchProfile's
 * mixture model (see profiles.hh). Each core gets a disjoint address
 * space so multi-programmed workloads contend only for shared hardware,
 * not for data, matching the paper's multi-programmed methodology.
 *
 * Streaming accesses model a set of concurrently-active DRAM rows: each
 * cache block is written/read contiguously (word by word), then the
 * generator hops to another active row. With many active rows the
 * baseline cache's eviction-order writebacks interleave blocks of many
 * rows (low write row-hit rate, Figure 6b) while DBI/AWB/DAWB can
 * re-coalesce them per row.
 */

#ifndef DBSIM_WORKLOAD_SYNTHETIC_TRACE_HH
#define DBSIM_WORKLOAD_SYNTHETIC_TRACE_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "cpu/trace.hh"
#include "workload/profiles.hh"

namespace dbsim {

/** Synthetic trace source driven by a benchmark profile. */
class SyntheticTrace : public TraceSource
{
  public:
    /**
     * @param profile the benchmark's generative parameters.
     * @param core_id selects the disjoint address-space slice.
     * @param seed base RNG seed (combined with core and name hash).
     */
    SyntheticTrace(const BenchProfile &profile, std::uint32_t core_id,
                   std::uint64_t seed);

    TraceOp next() override;

  private:
    /** Multi-row streaming state for one direction (read or write). */
    struct Stream
    {
        /** Byte offset of each active row within the stream region. */
        std::vector<std::uint64_t> rowBase;
        /** Next block index to touch within each active row. */
        std::vector<std::uint32_t> rowBlock;
        std::uint32_t curRow = 0;       ///< active-row slot in use
        std::uint32_t byteInBlock = 0;  ///< word cursor within the block
        std::uint64_t nextRowOffset;    ///< allocator for fresh rows
    };

    /** Pick a byte address from a mixture for a read or write. */
    Addr pickAddr(const Mixture &mix, bool is_write);

    /** Next streaming address for one direction. */
    Addr streamNext(Stream &st, Addr region_base);

    void initStream(Stream &st, std::uint32_t rows);

    const BenchProfile &prof;
    Addr base;  ///< this core's address-space base
    Rng rng;

    Stream readStream;
    Stream writeStream;

    // Region base offsets within the core's slice.
    static constexpr Addr kHotBase = 0;
    static constexpr Addr kWarmBase = Addr{1} << 32;
    static constexpr Addr kColdBase = Addr{2} << 32;
    static constexpr Addr kStreamRBase = Addr{3} << 32;
    static constexpr Addr kStreamWBase = Addr{4} << 32;

    static constexpr std::uint64_t kRowBytes = 8192;
    static constexpr std::uint32_t kBlocksPerRow = 128;

    /** Gaps are uniform in [0, gapSpan): mean (1 - memFrac) / memFrac. */
    std::uint64_t gapSpan;
};

} // namespace dbsim

#endif // DBSIM_WORKLOAD_SYNTHETIC_TRACE_HH
