/**
 * @file
 * The Dirty-Block Index (Section 2) — the paper's primary contribution.
 *
 * The DBI removes dirty bits from the cache tag store and organizes them
 * in a small set-associative structure whose entries each track one
 * granularity-sized group of blocks within a DRAM row: a valid bit, a
 * row tag, and a dirty-bit vector. The DBI semantics are authoritative:
 *
 *   a cache block is dirty <=> the DBI holds a valid entry for the
 *   block's region AND the block's bit in that entry's vector is set.
 *
 * Inserting a new entry may evict an existing one (a "DBI eviction",
 * Section 2.2.4): every block the victim entry marks dirty must then be
 * written back to memory (the blocks themselves stay cached, transitioning
 * dirty -> clean). setDirty() therefore returns the list of block
 * addresses the caller must write back.
 *
 * Five replacement policies from Section 4.3 are provided; the paper
 * finds LRW (least-recently-written) comparable or better than the rest.
 */

#ifndef DBSIM_DBI_DBI_HH
#define DBSIM_DBI_DBI_HH

#include <cstdint>
#include <vector>

#include "common/addr_map.hh"
#include "common/bitvec.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace dbsim {

/** DBI replacement policies (Section 4.3). */
enum class DbiReplPolicy : std::uint8_t
{
    Lrw,       ///< least recently written (the paper's default)
    LrwBip,    ///< LRW with bimodal insertion
    Rrip,      ///< rewrite-interval prediction (RRIP-like)
    MaxDirty,  ///< evict the entry with the most dirty blocks
    MinDirty,  ///< evict the entry with the fewest dirty blocks
};

/** DBI design parameters (Section 4, Table 1). */
struct DbiConfig
{
    /** Size alpha: blocks trackable by the DBI / blocks in the cache. */
    double alpha = 0.25;
    /** Blocks tracked per entry (<= blocks per DRAM row). */
    std::uint32_t granularity = 64;
    std::uint32_t assoc = 16;
    DbiReplPolicy repl = DbiReplPolicy::Lrw;
    /** Access latency in cycles (Table 1: 4). */
    std::uint32_t latency = 4;
    std::uint64_t seed = 7;
};

/**
 * The Dirty-Block Index structure. Standalone and cache-agnostic: the
 * owning cache keeps the resident/dirty invariant (every block the DBI
 * marks dirty is resident in the cache).
 */
class Dbi
{
  public:
    /**
     * @param config design parameters.
     * @param cache_blocks number of blocks in the cache the DBI serves;
     *        together with alpha this fixes the entry count.
     */
    Dbi(const DbiConfig &config, std::uint64_t cache_blocks);

    const DbiConfig &config() const { return cfg; }
    std::uint64_t numEntries() const { return nEntries; }
    std::uint32_t numSets() const { return nSets; }
    std::uint32_t granularity() const { return cfg.granularity; }
    std::uint32_t latency() const { return cfg.latency; }

    /** Cumulative number of blocks the DBI can track. */
    std::uint64_t
    trackableBlocks() const
    {
        return nEntries * cfg.granularity;
    }

    /** Is this block dirty? (the authoritative query) */
    bool isDirty(Addr block_addr) const;

    /**
     * Same answer as isDirty() but bumps no counters — for policy
     * filters and passive observers that must leave the DBI's stats
     * exactly as a run without them would (cf. countDirtyInRange()).
     */
    bool probeDirty(Addr block_addr) const;

    /**
     * Mark a block dirty (on a writeback request into the cache,
     * Section 2.2.2). May trigger a DBI eviction. With `account` false
     * the state change is identical but no counters move — the
     * functional-warming variant, so fast-forwarded ops never leak into
     * registered statistics.
     * @param evicted replaced with the block addresses the caller must
     *        write back to memory because their entry was evicted
     *        (usually none). Caller-owned, so once it has grown the
     *        eviction path allocates nothing.
     */
    void setDirty(Addr block_addr, std::vector<Addr> &evicted,
                  bool account = true);

    /** setDirty() returning a fresh list (allocates; tests and tools). */
    std::vector<Addr>
    setDirty(Addr block_addr, bool account = true)
    {
        std::vector<Addr> evicted;
        setDirty(block_addr, evicted, account);
        return evicted;
    }

    /**
     * Mark a block clean (after its writeback, Section 2.2.3). If it was
     * the last dirty block of its entry, the entry is invalidated.
     * No-op if the block is not marked dirty. `account` as in
     * setDirty().
     */
    void clearDirty(Addr block_addr, bool account = true);

    /**
     * All blocks currently marked dirty in the region containing
     * block_addr — the single-query row listing that enables AWB
     * (Section 3.1). `out` is replaced with the list, in block order.
     */
    void dirtyBlocksInRegion(Addr block_addr, std::vector<Addr> &out) const;

    /** dirtyBlocksInRegion() into a fresh list (tests and tools). */
    std::vector<Addr>
    dirtyBlocksInRegion(Addr block_addr) const
    {
        std::vector<Addr> out;
        dirtyBlocksInRegion(block_addr, out);
        return out;
    }

    /** Number of blocks currently marked dirty across the DBI. */
    std::uint64_t countDirtyBlocks() const;

    /**
     * Dirty blocks in [base, base+bytes). Unlike the access-path queries
     * above this bumps no counters — it exists for passive observers
     * (telemetry's dirty-blocks-per-row histogram), which must leave the
     * DBI's stats exactly as a run without them would.
     */
    std::uint64_t countDirtyInRange(Addr base, std::uint64_t bytes) const;

    /**
     * Invoke fn(block_addr) for every block marked dirty anywhere in the
     * DBI (used for flush operations and invariant checks).
     */
    template <typename Fn>
    void
    forEachDirtyBlock(Fn &&fn) const
    {
        for (std::size_t i = 0; i < entries.size(); ++i) {
            if (regionTags[i] == kInvalidAddr) {
                continue;
            }
            entries[i].dirty.forEachSet([&](std::uint32_t idx) {
                fn(regionMap.blockAddr(regionTags[i], idx));
            });
        }
    }

    /** Number of valid entries. */
    std::uint64_t countValidEntries() const;

    /** True if the region containing block_addr has a valid entry. */
    bool hasEntryFor(Addr block_addr) const;

    /**
     * Fast dirty-status queries (Section 7): "does DRAM row R have any
     * dirty blocks?" — answered from the row's entries alone.
     */
    bool rowHasDirty(Addr row_base_addr, const DramAddrMap &map) const;

    /**
     * "Does DRAM bank X have any dirty blocks?" (Section 7) — used by
     * rank/bank-idle writeback schedulers. One pass over the (small)
     * DBI instead of the whole tag store.
     */
    bool bankHasDirty(std::uint32_t bank, const DramAddrMap &map) const;

    /** Register counters for snapshotting. */
    void registerStats(StatSet &set);

    Counter statLookups;     ///< isDirty / region queries
    Counter statUpdates;     ///< setDirty / clearDirty
    Counter statInserts;     ///< new entries allocated
    Counter statEvictions;   ///< DBI evictions (entry displaced)
    Counter statEvictionWbs; ///< writebacks generated by DBI evictions

  private:
    /** Per-entry state beyond the region tag (held in regionTags). */
    struct Entry
    {
        BitVec dirty{128};
        std::uint64_t lastWrite = 0;  ///< LRW timestamp
        std::uint8_t rrpv = 0;
    };

    std::uint32_t setIndexOf(std::uint64_t region_tag) const;
    Entry *findEntry(std::uint64_t region_tag);
    const Entry *findEntry(std::uint64_t region_tag) const;
    std::uint32_t victimWay(std::uint32_t set);

    /** Replace `out` with entry i's dirty blocks as writeback addresses. */
    void drainEntry(std::size_t i, std::vector<Addr> &out) const;

    Entry &at(std::uint32_t set, std::uint32_t way);
    const Entry &at(std::uint32_t set, std::uint32_t way) const;

    DbiConfig cfg;
    DbiRegionMap regionMap;
    std::uint64_t nEntries;
    std::uint32_t nSets;
    std::vector<Entry> entries;

    /**
     * Region tag of entries[i], kInvalidAddr when invalid: the only
     * copy of both, so findEntry — the access-path lookup — scans a
     * flat array instead of striding Entry structs that each drag a
     * BitVec along.
     */
    std::vector<std::uint64_t> regionTags;

    /** Total dirty bits set across valid entries (kept incrementally). */
    std::uint64_t dirtyBits = 0;

    std::uint64_t writeClock = 1;
    Rng rng;

    static constexpr std::uint8_t kRrpvMax = 3;
    static constexpr double kBipEpsilon = 1.0 / 64.0;
};

} // namespace dbsim

#endif // DBSIM_DBI_DBI_HH
