/**
 * @file
 * The three policy axes the LLC is composed from (Table 2 decomposed):
 *
 *   DirtyStore      — where dirty-block metadata lives and how writeback
 *                     requests update it: in-tag dirty bits, a
 *                     write-through store (never dirty), or the
 *                     Dirty-Block Index.
 *   WritebackPolicy — what extra writebacks a dirty eviction triggers:
 *                     none (evict order), a DAWB full-row sweep, a VWQ
 *                     SSV-filtered sweep, or DBI aggressive writeback.
 *   LookupPolicy    — whether a demand read may bypass the tag lookup:
 *                     never, Skip-Cache predicted-miss bypass, or the
 *                     DBI cache lookup bypass (CLB).
 *
 * Each Table 2 mechanism is one tuple over these axes (see
 * sim/mechanism.hh for the preset registry); the cross-product the
 * paper's Section 3 argues for (e.g. DAWB sweeps over a DBI store, or
 * CLB beside a DAWB writeback policy) falls out for free.
 *
 * Policies are constructed unbound, handed to the Llc, and bound to it
 * once in Llc's constructor. They act on the cache exclusively through
 * Llc's public surface (occupyPort/fillBlock/writebackToDram/...), so
 * every port-arbitration, stat, audit, and telemetry side effect flows
 * through the same single points it always did.
 */

#ifndef DBSIM_LLC_POLICIES_HH
#define DBSIM_LLC_POLICIES_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "dbi/dbi.hh"
#include "pred/miss_predictor.hh"

namespace dbsim {

class Llc;

/** The three dirty-metadata organizations (DirtyStore::kind()). */
enum class DirtyStoreKind : std::uint8_t
{
    InTag,        ///< conventional: dirty bits in the tag store
    WriteThrough, ///< Skip Cache: no block is ever dirty
    Dbi,          ///< the Dirty-Block Index is authoritative
};

/**
 * Where dirty-block metadata lives. The store owns the semantics of a
 * writeback request from the private levels (writebackIn) and of the
 * dirty half of an eviction (victimDirty / onVictimWrittenBack); the
 * Llc core sequences them so all stores see identical call order.
 */
class DirtyStore
{
  public:
    virtual ~DirtyStore() = default;

    /** Bind to the owning cache (called once, from Llc's ctor). */
    virtual void bind(Llc &owner) { llc = &owner; }

    virtual DirtyStoreKind kind() const = 0;
    virtual const char *name() const = 0;

    /** Handle one (block-aligned) writeback request from an L2. */
    virtual void writebackIn(Addr block_addr, std::uint32_t core,
                             Cycle when) = 0;

    /**
     * Functional (zero-time) form of writebackIn() for fast-forward
     * warming: produces the same final tag/dirty state but arbitrates
     * no port, schedules no events, and moves no registered counters.
     */
    virtual void functionalWritebackIn(Addr block_addr,
                                       std::uint32_t core) = 0;

    /**
     * Is this block dirty? Authoritative query — a DBI-backed store
     * accounts it as a DBI lookup, exactly like the access path.
     */
    virtual bool isDirty(Addr block_addr) const = 0;

    /**
     * Same answer as isDirty() but guaranteed stat-free, for sweep
     * filters and passive observers.
     */
    virtual bool probeDirty(Addr block_addr) const = 0;

    /** Transition a resident block dirty -> clean (after writeback). */
    virtual void clean(Addr block_addr) = 0;

    /**
     * Must the displaced victim be written back? `tag_dirty` is the
     * dirty bit the tag store evicted with the entry; stores that keep
     * dirtiness elsewhere consult their own metadata (and may account
     * the query).
     */
    virtual bool victimDirty(Addr block_addr, bool tag_dirty) = 0;

    /**
     * The victim's data reached memory; drop any dirty metadata still
     * held for it. (The tag entry itself is already gone.)
     */
    virtual void onVictimWrittenBack(Addr block_addr) { (void)block_addr; }

    /**
     * Stat-free victimDirty() for functional evictions. The default
     * (trust the evicted tag bit) is right for in-tag and write-through
     * stores; the DBI store probes its index quietly.
     */
    virtual bool functionalVictimDirty(Addr block_addr, bool tag_dirty)
    {
        (void)block_addr;
        return tag_dirty;
    }

    /** Stat-free onVictimWrittenBack() for functional evictions. */
    virtual void functionalVictimWrittenBack(Addr block_addr)
    {
        (void)block_addr;
    }

    /**
     * Dirty blocks in the victim's DRAM row, as sampled for telemetry's
     * Fig. 2 histogram (stat-free; includes the victim itself).
     */
    virtual std::uint64_t dirtyInVictimRow(Addr block_addr) const = 0;

    /** The DBI, if this store is DBI-backed (else nullptr). */
    virtual Dbi *dbiIndex() { return nullptr; }
    virtual const Dbi *dbiIndex() const { return nullptr; }

    virtual void registerStats(StatSet &set) { (void)set; }

    /** Sanity checks on internal invariants (debug/test aid). */
    virtual void checkInvariants() const {}

  protected:
    Llc *llc = nullptr;
};

/** Conventional organization: dirty bits live in the tag store. */
class TagDirtyStore final : public DirtyStore
{
  public:
    DirtyStoreKind kind() const override { return DirtyStoreKind::InTag; }
    const char *name() const override { return "tag"; }
    void writebackIn(Addr block_addr, std::uint32_t core,
                     Cycle when) override;
    void functionalWritebackIn(Addr block_addr,
                               std::uint32_t core) override;
    bool isDirty(Addr block_addr) const override;
    bool probeDirty(Addr block_addr) const override;
    void clean(Addr block_addr) override;
    bool victimDirty(Addr block_addr, bool tag_dirty) override;
    std::uint64_t dirtyInVictimRow(Addr block_addr) const override;
};

/**
 * Skip Cache organization [44]: write-through, so no block is ever
 * dirty; writeback requests forward straight to memory, no allocate.
 */
class WriteThroughStore final : public DirtyStore
{
  public:
    DirtyStoreKind
    kind() const override
    {
        return DirtyStoreKind::WriteThrough;
    }
    const char *name() const override { return "wt"; }
    void writebackIn(Addr block_addr, std::uint32_t core,
                     Cycle when) override;
    void functionalWritebackIn(Addr block_addr,
                               std::uint32_t core) override;
    bool isDirty(Addr) const override { return false; }
    bool probeDirty(Addr) const override { return false; }
    void clean(Addr) override {}
    bool victimDirty(Addr, bool) override { return false; }
    std::uint64_t dirtyInVictimRow(Addr) const override { return 0; }
};

/**
 * The Dirty-Block Index organization (Sections 2 and 3): the tag store
 * carries no dirty bits; all dirtiness lives in the row-organized DBI.
 * DBI evictions write back a whole entry's dirty blocks together, which
 * is how even the plain DBI gets DRAM-aware writebacks "for free"
 * (Section 6.2).
 */
class DbiDirtyStore final : public DirtyStore
{
  public:
    explicit DbiDirtyStore(const DbiConfig &dbi_config);

    void bind(Llc &owner) override;

    DirtyStoreKind kind() const override { return DirtyStoreKind::Dbi; }
    const char *name() const override { return "dbi"; }
    void writebackIn(Addr block_addr, std::uint32_t core,
                     Cycle when) override;
    void functionalWritebackIn(Addr block_addr,
                               std::uint32_t core) override;
    bool isDirty(Addr block_addr) const override;
    bool probeDirty(Addr block_addr) const override;
    void clean(Addr block_addr) override;
    bool victimDirty(Addr block_addr, bool tag_dirty) override;
    void onVictimWrittenBack(Addr block_addr) override;
    bool functionalVictimDirty(Addr block_addr, bool tag_dirty) override;
    void functionalVictimWrittenBack(Addr block_addr) override;
    std::uint64_t dirtyInVictimRow(Addr block_addr) const override;
    Dbi *dbiIndex() override { return index.get(); }
    const Dbi *dbiIndex() const override { return index.get(); }
    void registerStats(StatSet &set) override;
    void checkInvariants() const override;

    Counter statAwbWritebacks;  ///< extra row writebacks from AWB
    Counter statDbiEvictionWbs; ///< writebacks from DBI evictions

  private:
    /** Write back the blocks a DBI eviction drained (they stay cached). */
    void drainDbiEviction(const std::vector<Addr> &blocks, Cycle when);

    DbiConfig cfg;
    std::unique_ptr<Dbi> index;  ///< built at bind() (needs numBlocks)
    std::vector<Addr> drained;   ///< setDirty() eviction list (reused)
};

/**
 * What a dirty eviction triggers beyond the victim's own writeback.
 * afterDirtyEviction() runs after the victim has been written back and
 * its dirty metadata dropped.
 */
class WritebackPolicy
{
  public:
    virtual ~WritebackPolicy() = default;

    /** Bind to the owning cache (called once, from Llc's ctor). */
    virtual void bind(Llc &owner) { llc = &owner; }

    virtual const char *name() const = 0;

    /** A dirty victim at block_addr was just written back. */
    virtual void afterDirtyEviction(Addr block_addr, Cycle when) = 0;

    virtual void registerStats(StatSet &set) { (void)set; }

  protected:
    Llc *llc = nullptr;
};

/** Write back dirty blocks only as they are evicted (the baseline). */
class EvictOrderPolicy final : public WritebackPolicy
{
  public:
    const char *name() const override { return "evict-order"; }
    void afterDirtyEviction(Addr, Cycle) override {}
};

/**
 * DRAM-Aware Writeback [27]: sweep every other block of the victim's
 * DRAM row through the tag store (each a full tag lookup, dirty or not
 * — the source of DAWB's 1.95x lookup overhead) and write back those
 * found dirty, cleaning them in place.
 */
class DawbSweepPolicy final : public WritebackPolicy
{
  public:
    const char *name() const override { return "dawb"; }
    void afterDirtyEviction(Addr block_addr, Cycle when) override;
};

/**
 * Virtual Write Queue [51]: like DAWB, but a Set State Vector (SSV)
 * records whether each set holds a dirty block among its LRU ways; row
 * sweeps skip sets whose SSV bit is clear, and only write back dirty
 * blocks found in the LRU ways. Cheaper than DAWB per sweep but still
 * performs many unnecessary lookups (Section 3.1).
 */
class VwqSweepPolicy final : public WritebackPolicy
{
  public:
    explicit VwqSweepPolicy(std::uint32_t lru_ways = 4);

    void bind(Llc &owner) override;
    const char *name() const override { return "vwq"; }
    void afterDirtyEviction(Addr block_addr, Cycle when) override;

  private:
    /** Is a dirty block present among `set`'s LRU ways? */
    bool setFlagged(std::uint32_t set) const;

    /** Sets covered by one (coarse) SSV bit. */
    static constexpr std::uint32_t kSsvGroupSets = 4;

    std::uint32_t lruWays;
};

/**
 * DBI Aggressive Writeback (Section 3.1, Figure 3): on a dirty
 * eviction, write back every other dirty block of the same DBI row.
 * The DBI lists them in one query; tag lookups are spent only on
 * blocks that are actually dirty. Requires a DBI-backed DirtyStore.
 */
class DbiAwbPolicy final : public WritebackPolicy
{
  public:
    void bind(Llc &owner) override;
    const char *name() const override { return "awb"; }
    void afterDirtyEviction(Addr block_addr, Cycle when) override;

  private:
    DbiDirtyStore *store = nullptr;  ///< the bound cache's DBI store
    std::vector<Addr> rowDirty;      ///< the victim row's list (reused)
};

/**
 * Whether a demand read may skip the tag lookup. tryBypass() returns
 * true if it fully handled the access; recordOutcome() feeds the miss
 * predictor from the normal lookup path.
 */
class LookupPolicy
{
  public:
    using Callback = std::function<void(Cycle)>;

    virtual ~LookupPolicy() = default;

    /** Bind to the owning cache (called once, from Llc's ctor). */
    virtual void bind(Llc &owner) { llc = &owner; }

    virtual const char *name() const = 0;

    /** Hook before the normal read path; true = fully handled. */
    virtual bool tryBypass(Addr block_addr, std::uint32_t core, Cycle when,
                           Callback &cb) = 0;

    /** Outcome feed for miss predictors. Default: none. */
    virtual void recordOutcome(Addr, std::uint32_t, bool, Cycle) {}

    virtual void registerStats(StatSet &set) { (void)set; }

  protected:
    Llc *llc = nullptr;
};

/** Every read performs the tag lookup (no predictor, no bypass). */
class AlwaysLookup final : public LookupPolicy
{
  public:
    const char *name() const override { return "always"; }
    bool tryBypass(Addr, std::uint32_t, Cycle, Callback &) override
    {
        return false;
    }
};

/**
 * Skip Cache bypass [44]: predicted-miss reads go straight to memory
 * without a tag lookup and do not allocate. Safe only over a
 * write-through store (no block is ever dirty).
 */
class SkipBypassLookup final : public LookupPolicy
{
  public:
    explicit SkipBypassLookup(std::shared_ptr<MissPredictor> predictor);

    void bind(Llc &owner) override;
    const char *name() const override { return "skip"; }
    bool tryBypass(Addr block_addr, std::uint32_t core, Cycle when,
                   Callback &cb) override;
    void recordOutcome(Addr block_addr, std::uint32_t core, bool hit,
                       Cycle when) override;

  private:
    std::shared_ptr<MissPredictor> pred;
};

/**
 * DBI Cache Lookup Bypass (Section 3.2, Figure 4): predicted-miss
 * reads check the small DBI instead of the tag store; clean predicted
 * misses forward straight to memory. Requires a DBI-backed DirtyStore.
 */
class ClbBypassLookup final : public LookupPolicy
{
  public:
    explicit ClbBypassLookup(std::shared_ptr<MissPredictor> predictor);

    void bind(Llc &owner) override;
    const char *name() const override { return "clb"; }
    bool tryBypass(Addr block_addr, std::uint32_t core, Cycle when,
                   Callback &cb) override;
    void recordOutcome(Addr block_addr, std::uint32_t core, bool hit,
                       Cycle when) override;

  private:
    Dbi *index = nullptr;  ///< the bound cache's DBI
    std::shared_ptr<MissPredictor> pred;
};

} // namespace dbsim

#endif // DBSIM_LLC_POLICIES_HH
