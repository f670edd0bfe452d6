/**
 * @file
 * Shard topology: how the simulated machine is partitioned (LLC slices,
 * DRAM channels), plus the single place every cross-axis combination of
 * the SystemConfig sharding knobs is derived and validated. The
 * partitioning is part of the machine: changing it changes timing and
 * statistics, exactly like changing the cache size would. All
 * partitions run on one host thread (see System::runSharded).
 *
 * One shard (partition) p owns LLC slice p (for p < slices), DRAM
 * channel p (for p < channels), and the cores {c : c % partitions == p}.
 * Addresses interleave across slices and channels at DRAM-row
 * granularity so a DBI row never straddles a slice or channel.
 */

#ifndef DBSIM_SIM_TOPOLOGY_HH
#define DBSIM_SIM_TOPOLOGY_HH

#include <bit>
#include <cstdint>

#include "common/types.hh"

namespace dbsim {

/** Raw sharding knobs, as configured (0 = derive). */
struct TopologySpec
{
    std::uint32_t numCores = 1;
    std::uint32_t llcSlices = 0;    ///< 0: derive from numCores
    std::uint32_t dramChannels = 0; ///< 0: one per LLC slice
    Cycle hopLatency = 0;           ///< 0: derive (64 when sharded)
    std::uint64_t rowBytes = 8192;
    std::uint64_t llcTotalBytes = 2ull << 20;
    std::uint32_t llcAssoc = 16;

    /**
     * Allocation granularity of an interposed backing level (the
     * DRAM-cache page), 0 when no level is interposed. Must divide
     * rowBytes: addresses interleave across slices and channels at
     * DRAM-row granularity, so any coarser or non-dividing granularity
     * would let one page straddle two slices' address partitions
     * (mirroring the DBI-rows-never-straddle-slices guarantee).
     */
    std::uint64_t dcachePageBytes = 0;
};

/** The resolved, validated machine partitioning. */
struct ShardTopology
{
    std::uint32_t slices = 1;
    std::uint32_t channels = 1;
    std::uint32_t partitions = 1;  ///< max(slices, channels)
    Cycle hopLatency = 0;          ///< cross-shard latency == epoch window
    /**
     * Host threads running the epochs: always 1. Kept only because the
     * host-speed benchmark prints it; goes with the next benchmark
     * change.
     */
    std::uint32_t workers = 1;
    std::uint64_t rowBytes = 8192;

    bool sharded() const { return partitions > 1; }

    // slices, channels and rowBytes are validated powers of two (see
    // resolveTopology), so routing is a shift and a mask.

    /** LLC slice owning the address (DRAM-row interleaved). */
    std::uint32_t
    sliceOf(Addr addr) const
    {
        return static_cast<std::uint32_t>(
            (addr >> std::countr_zero(rowBytes)) & (slices - 1));
    }

    /** DRAM channel owning the address (DRAM-row interleaved). */
    std::uint32_t
    channelOf(Addr addr) const
    {
        return static_cast<std::uint32_t>(
            (addr >> std::countr_zero(rowBytes)) & (channels - 1));
    }

    std::uint32_t partitionOfSlice(std::uint32_t s) const { return s; }
    std::uint32_t partitionOfChannel(std::uint32_t c) const { return c; }

    std::uint32_t
    partitionOfCore(std::uint32_t core) const
    {
        return core % partitions;
    }
};

/**
 * Derive the 0-valued knobs (mirroring the Table-1 "derive from
 * numCores" style of SystemConfig::resolveLlc) and validate every
 * cross-axis combination; fatal() on an invalid machine. This is the
 * only place sharding knobs are interpreted.
 */
ShardTopology resolveTopology(const TopologySpec &spec);

} // namespace dbsim

#endif // DBSIM_SIM_TOPOLOGY_HH
