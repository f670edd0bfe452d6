/**
 * @file
 * Die-stacked DRAM cache: the first interposed BackingPort level,
 * sitting between an LLC slice and its backing DDR (a DramController
 * directly, or a ShardMemRouter on partitioned machines).
 *
 * Organization (Gemini-style):
 *  - set-mapped, page-granular allocation with a per-page block-valid
 *    bitmask (blocks are fetched individually; a page fill does not
 *    fetch the whole page);
 *  - tags live in the stacked DRAM: every access pays `tagLatency`
 *    before hit/miss is known, then `dataLatency` on a hit;
 *  - writebacks from the LLC are write-allocate-no-fetch: the incoming
 *    block is a full line, so a missing page is installed without
 *    reading backing DDR.
 *
 * Dirty tracking comes in two flavors (the PR's ablation):
 *  - **dirty index** (default): a small SRAM structure with one
 *    DBI-style entry per page (region granularity = blocks per page).
 *    It is authoritative and exact — a block is dcache-dirty iff its
 *    bit is set. Index-entry evictions write the victim page's dirty
 *    blocks back in one batch; since a page never straddles a DDR row,
 *    the batch is row-local at the backing controller (TicToc-style
 *    scheduled cleaning).
 *  - **dirty-in-tags** (ablation): one dirty bit per page, stored with
 *    the in-DRAM tags. Evicting a dirty page must write back every
 *    valid block — the exact overfetch the decoupled index avoids.
 */

#ifndef DBSIM_DCACHE_DCACHE_HH
#define DBSIM_DCACHE_DCACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitvec.hh"
#include "common/event_queue.hh"
#include "common/event_queue.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dbi/dbi.hh"
#include "dcache/dcache_config.hh"
#include "mem/backing_port.hh"

namespace dbsim {

/**
 * Observer of the DRAM cache's dirty-state and residency transitions
 * (src/audit) — the second dirty level the shadow model tracks. The
 * contract mirrors LlcAuditObserver: notifications are synchronous,
 * passive (no timing or stat effect), and must not re-enter the cache.
 */
class DCacheObserver
{
  public:
    virtual ~DCacheObserver() = default;

    /** A block was fetched clean from backing DDR into the cache. */
    virtual void onFill(Addr block_addr, Cycle when) = 0;

    /** A writeback from the LLC landed: the block is resident+dirty. */
    virtual void onWritebackIn(Addr block_addr, Cycle when) = 0;

    /** A block's data was written to backing DDR (it becomes clean). */
    virtual void onBlockCleaned(Addr block_addr, Cycle when) = 0;

    /**
     * A page is being evicted at `when`. Fires after the eviction's
     * writebacks (onBlockCleaned) and before residency is dropped, so
     * the shadow must hold no dirty block inside the page.
     */
    virtual void onPageEvict(Addr page_base, Cycle when) = 0;

    /** One operation (read or write) finished settling state. */
    virtual void onOperationEnd() = 0;
};

/**
 * The DRAM cache. A BackingPort toward the LLC above; issues its own
 * misses and writebacks through the BackingPort below.
 */
class DramCache : public BackingPort
{
  public:
    /**
     * @param config per-slice parameters (sizeBytes already divided).
     * @param below the level this cache fills from and cleans into.
     *        The caller keeps ownership; it must outlive the cache.
     */
    DramCache(const DCacheConfig &config, BackingPort &below,
              EventQueue &event_queue);
    ~DramCache() override = default;

    // -- BackingPort (the LLC-facing side) ----------------------------

    void read(Addr block_addr, Cycle when, ReadCallback cb) override;
    void write(Addr block_addr, Cycle when) override;
    const DramAddrMap &addrMap() const override { return down.addrMap(); }

    /**
     * Functional-warming access (see BackingPort): mirrors the state
     * change of read()/write() — residency, dirty index, LRU — with no
     * events, no backing-DDR traffic, and no registered-counter
     * movement. The audit observer stays in the loop so the shadow
     * model tracks warmed state.
     */
    void functionalAccess(Addr block_addr, bool is_write) override;

    const DCacheConfig &config() const { return cfg; }
    std::uint32_t numSets() const { return nSets; }
    std::uint32_t blocksPerPage() const { return blocksPer; }

    /** The SRAM dirty index (nullptr in dirty-in-tags mode). */
    Dbi *dirtyIndex() { return index.get(); }
    const Dbi *dirtyIndex() const { return index.get(); }

    /** True when dirty tracking is exact (index mode). */
    bool dirtyExact() const { return !cfg.dirtyInTags; }

    /** Attach (or detach, with nullptr) the passive audit observer. */
    void attachObserver(DCacheObserver *observer) { obs = observer; }

    /** Register counters for snapshotting. */
    void registerStats(StatSet &set);

    // -- Stat-free probes for passive observers -----------------------

    /** Is the block resident (page present and block valid)? */
    bool probeResident(Addr block_addr) const;

    /**
     * Is the block dirty as far as the mechanism knows? Exact in index
     * mode; in tags mode this is the page dirty bit qualified by the
     * block's valid bit (the over-approximation the ablation measures).
     */
    bool probeDirty(Addr block_addr) const;

    /** Resident blocks across the cache. */
    std::uint64_t countValidBlocks() const;

    /** Blocks the mechanism would write back on a full flush. */
    std::uint64_t countDirtyBlocks() const;

    /** Invoke fn(page_base) for every page whose mechanism dirty state
     *  is set (tags mode) or that has any dirty block (index mode). */
    template <typename Fn>
    void
    forEachDirtyPage(Fn &&fn) const
    {
        for (const Page &pg : pages) {
            if (pg.valid && pageIsDirty(pg)) {
                fn(pg.tag * cfg.pageBytes);
            }
        }
    }

    /** Invoke fn(block_addr) for every block a full flush would write
     *  back (exact dirty set in index mode; all valid blocks of dirty
     *  pages in tags mode). */
    template <typename Fn>
    void
    forEachFlushBlock(Fn &&fn) const
    {
        if (index) {
            index->forEachDirtyBlock(fn);
            return;
        }
        for (const Page &pg : pages) {
            if (!pg.valid || !pg.dirty) {
                continue;
            }
            const Addr base = pg.tag * cfg.pageBytes;
            pg.blocks.forEachSet([&](std::uint32_t idx) {
                fn(base + static_cast<Addr>(idx) * kBlockBytes);
            });
        }
    }

    Counter statReads;          ///< reads from the LLC
    Counter statReadHits;
    Counter statWrites;         ///< writebacks from the LLC
    Counter statWriteHits;      ///< writebacks that found their page
    Counter statFills;          ///< blocks fetched from backing DDR
    Counter statPageAllocs;
    Counter statPageEvictions;
    Counter statDirtyPageEvictions;
    Counter statDdrWrites;      ///< blocks written to backing DDR
    Counter statEvictionWbs;    ///< DDR writes caused by page evictions
    Counter statIndexWbs;       ///< DDR writes caused by index evictions

  private:
    struct Page
    {
        bool valid = false;
        std::uint64_t tag = 0;      ///< page number (addr / pageBytes)
        BitVec blocks{128};         ///< per-block valid bits
        bool dirty = false;         ///< tags-mode page dirty bit
        std::uint64_t lastUse = 0;  ///< LRU timestamp
    };

    std::uint32_t setOf(std::uint64_t page_tag) const;
    Page *findPage(std::uint64_t page_tag);
    const Page *findPage(std::uint64_t page_tag) const;
    std::uint32_t blockIndexOf(Addr block_addr) const;

    bool pageIsDirty(const Page &pg) const;

    /**
     * Ensure `page_tag`'s page is present, evicting the set's LRU page
     * if allocation is needed. Returns the page (touched for LRU).
     */
    Page &allocPage(std::uint64_t page_tag, Cycle when);

    /** Write back what the eviction requires and drop the page. */
    void evictPage(Page &pg, Cycle when);

    /** Record a block dirty; index evictions batch-clean here. */
    void markDirty(Addr block_addr, Cycle when);

    // Quiet twins of allocPage/evictPage/markDirty for the functional
    // path: same state transitions, no stats, no DDR writes.
    Page &functionalAllocPage(std::uint64_t page_tag);
    void functionalEvictPage(Page &pg);
    void functionalMarkDirty(Addr block_addr);

    void
    endAuditOp()
    {
        if (obs) {
            obs->onOperationEnd();
        }
    }

    DCacheConfig cfg;
    BackingPort &down;
    EventQueue &eq;

    std::uint32_t blocksPer;
    std::uint32_t nSets;
    std::vector<Page> pages;         ///< nSets * assoc, set-major
    std::unique_ptr<Dbi> index;      ///< nullptr in tags mode
    std::vector<Addr> indexBlocks;   ///< index listing scratch (reused)
    std::uint64_t useClock = 1;
    DCacheObserver *obs = nullptr;
};

} // namespace dbsim

#endif // DBSIM_DCACHE_DCACHE_HH
