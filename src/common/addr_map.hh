/**
 * @file
 * DRAM address mapping. Translates physical block addresses into
 * (row, bank, column) coordinates under the row-interleaved mapping the
 * paper's memory controller uses (Table 1), and provides the DBI's notion
 * of a "DBI row" — a granularity-sized group of consecutive blocks within
 * one DRAM row.
 */

#ifndef DBSIM_COMMON_ADDR_MAP_HH
#define DBSIM_COMMON_ADDR_MAP_HH

#include <cstdint>

#include "logging.hh"
#include "types.hh"

namespace dbsim {

/**
 * Row-interleaved DRAM address map.
 *
 * Physical address layout (low to high):
 *   [block offset | column | channel | bank | row]
 * so one DRAM row occupies rowBytes contiguous physical bytes within a
 * bank, consecutive rows rotate across channels first and then across
 * the banks of each channel. This matches the "open row, row
 * interleaving" controller configuration of Table 1 (one channel) and
 * extends it to multi-channel machines: whole DRAM rows stay within one
 * channel, so DBI rows never straddle channels.
 */
class DramAddrMap
{
  public:
    /**
     * @param row_bytes size of one DRAM row (row buffer), e.g. 8KB.
     * @param num_banks number of banks per rank.
     * @param num_channels channels rows interleave over (default 1,
     *        the Table 1 machine; with 1 the map is unchanged).
     */
    DramAddrMap(std::uint64_t row_bytes, std::uint32_t num_banks,
                std::uint32_t num_channels = 1)
        : rowBytes_(row_bytes), numBanks_(num_banks),
          numChannels_(num_channels),
          blocksPerRow_(static_cast<std::uint32_t>(row_bytes / kBlockBytes))
    {
        fatal_if(!isPowerOf2(row_bytes) || row_bytes < kBlockBytes,
                 "DRAM row size must be a power-of-two multiple of the "
                 "block size");
        fatal_if(!isPowerOf2(num_banks), "bank count must be a power of 2");
        fatal_if(!isPowerOf2(num_channels) || num_channels == 0,
                 "channel count must be a power of 2");
        rowShift_ = floorLog2(row_bytes);
        channelShift_ = floorLog2(num_channels);
        bankShift_ = floorLog2(num_banks);
    }

    std::uint64_t rowBytes() const { return rowBytes_; }
    std::uint32_t numBanks() const { return numBanks_; }
    std::uint32_t numChannels() const { return numChannels_; }
    std::uint32_t blocksPerRow() const { return blocksPerRow_; }

    // Every divisor below is a validated power of two, so the
    // coordinates are shifts and masks (this map sits on the DRAM
    // scheduler's and the DBI's per-request paths).

    /** Global row identifier (unique across channels and banks). */
    std::uint64_t
    rowId(Addr addr) const
    {
        return addr >> rowShift_;
    }

    /** Channel the address maps to. */
    std::uint32_t
    channel(Addr addr) const
    {
        return static_cast<std::uint32_t>(rowId(addr) & (numChannels_ - 1));
    }

    /** Bank the address maps to (within its channel). */
    std::uint32_t
    bank(Addr addr) const
    {
        return static_cast<std::uint32_t>((rowId(addr) >> channelShift_) &
                                          (numBanks_ - 1));
    }

    /** Row index within the bank (what the row decoder sees). */
    std::uint64_t
    rowInBank(Addr addr) const
    {
        return rowId(addr) >> (channelShift_ + bankShift_);
    }

    /** Index of the block within its DRAM row: 0..blocksPerRow-1. */
    std::uint32_t
    blockInRow(Addr addr) const
    {
        return static_cast<std::uint32_t>((addr & (rowBytes_ - 1)) >>
                                          kBlockShift);
    }

    /** First byte address of the row containing addr. */
    Addr
    rowBase(Addr addr) const
    {
        return addr & ~(rowBytes_ - 1);
    }

    /** Byte address of block `idx` within the row containing addr. */
    Addr
    blockInRowAddr(Addr addr, std::uint32_t idx) const
    {
        panic_if(idx >= blocksPerRow_, "block index %u out of row", idx);
        return rowBase(addr) + static_cast<Addr>(idx) * kBlockBytes;
    }

  private:
    std::uint64_t rowBytes_;
    std::uint32_t numBanks_;
    std::uint32_t numChannels_;
    std::uint32_t blocksPerRow_;
    std::uint32_t rowShift_ = 0;      ///< log2(rowBytes_)
    std::uint32_t channelShift_ = 0;  ///< log2(numChannels_)
    std::uint32_t bankShift_ = 0;     ///< log2(numBanks_)
};

/**
 * The DBI's region map: a "DBI row" is `granularity` consecutive blocks
 * aligned within a DRAM row (granularity == blocksPerRow tracks whole
 * rows; smaller granularities split a row into multiple DBI rows, per
 * Section 4.2).
 */
class DbiRegionMap
{
  public:
    /** @param granularity blocks tracked per DBI entry (power of two). */
    explicit DbiRegionMap(std::uint32_t granularity)
        : gran(granularity),
          regionBytes(static_cast<std::uint64_t>(granularity) * kBlockBytes)
    {
        fatal_if(!isPowerOf2(granularity) || granularity == 0 ||
                 granularity > 128,
                 "DBI granularity %u must be a power of two in [1,128]",
                 granularity);
    }

    std::uint32_t granularity() const { return gran; }

    /** Region tag: identifies the DBI row containing addr. */
    std::uint64_t
    regionTag(Addr addr) const
    {
        return addr / regionBytes;
    }

    /** Bit position of addr's block within its DBI row. */
    std::uint32_t
    blockIndex(Addr addr) const
    {
        return static_cast<std::uint32_t>((addr % regionBytes) >>
                                          kBlockShift);
    }

    /** Byte address of block `idx` within region `tag`. */
    Addr
    blockAddr(std::uint64_t tag, std::uint32_t idx) const
    {
        panic_if(idx >= gran, "block index %u out of region", idx);
        return tag * regionBytes + static_cast<Addr>(idx) * kBlockBytes;
    }

  private:
    std::uint32_t gran;
    std::uint64_t regionBytes;
};

} // namespace dbsim

#endif // DBSIM_COMMON_ADDR_MAP_HH
