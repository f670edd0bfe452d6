/**
 * @file
 * Generic set-associative tag store with pluggable replacement and
 * insertion policies: LRU, TA-DIP (thread-aware dynamic insertion with
 * set dueling and bimodal insertion), DRRIP (SRRIP/BRRIP dueling), and
 * Random. Used for the private L1/L2 caches (LRU) and the shared LLC
 * (TA-DIP or DRRIP per Table 2 / Section 6.5).
 *
 * The tag store carries a per-entry dirty bit for conventional
 * organizations. DBI organizations never set it — the DBI is the
 * authoritative source of dirtiness (asserted by the LLC variants).
 */

#ifndef DBSIM_CACHE_TAG_STORE_HH
#define DBSIM_CACHE_TAG_STORE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace dbsim {

/** Replacement/insertion policy of a tag store. */
enum class ReplPolicy : std::uint8_t
{
    Lru,     ///< least-recently-used
    TaDip,   ///< thread-aware dynamic insertion policy [18, 42]
    Drrip,   ///< dynamic re-reference interval prediction [19]
    Random,  ///< random victim
};

/** Tag store geometry and policy. */
struct CacheGeometry
{
    std::uint64_t sizeBytes = 2ull << 20;
    std::uint32_t assoc = 16;
    ReplPolicy repl = ReplPolicy::Lru;
    std::uint32_t numThreads = 1;  ///< for TA-DIP per-thread selectors
    std::uint64_t seed = 1;        ///< for BIP/BRRIP/Random draws
};

/**
 * Set-associative tag store. Data contents are not stored — dbsim is a
 * timing simulator — but the full state needed for replacement and
 * dirtiness decisions is, exactly once per block (DESIGN.md §11.2).
 */
class TagStore
{
  public:
    /** One way of one set: set * assoc() + way. */
    using Slot = std::size_t;
    static constexpr Slot kNoSlot = ~Slot{0};

    /** Result of an insertion: the displaced entry, if any. */
    struct Eviction
    {
        bool valid = false;  ///< an entry was displaced
        Addr block = kInvalidAddr;
        bool dirty = false;
    };

    explicit TagStore(const CacheGeometry &geometry);

    std::uint32_t numSets() const { return nSets; }
    std::uint32_t assoc() const { return geo.assoc; }
    std::uint64_t numBlocks() const
    {
        return static_cast<std::uint64_t>(nSets) * geo.assoc;
    }

    /** Set index of a block address. */
    std::uint32_t setIndex(Addr block_addr) const;

    /** True if the block is present (no replacement-state update). */
    bool contains(Addr block_addr) const
    {
        return find(block_addr) != kNoSlot;
    }

    /** Slot holding block_addr, or kNoSlot. */
    Slot find(Addr block_addr) const;

    /**
     * One scan of a block's set, answering both tag decisions: where
     * the block is, or where a fill would go.
     */
    struct Probe
    {
        Addr block;  ///< the block-aligned address probed
        Slot slot;   ///< hit: the block's slot; miss: first free way,
                     ///< or kNoSlot when the set is full
        bool hit;
    };

    /** Probe block_addr's set (no replacement-state update). */
    Probe probe(Addr block_addr) const;

    Slot slotOf(std::uint32_t set, std::uint32_t way) const
    {
        return static_cast<Slot>(set) * geo.assoc + way;
    }

    /**
     * Per-slot state, for sweeps and audits: an invalid slot reads
     * blockAt() == kInvalidAddr and dirtyAt() == false.
     */
    Addr blockAt(Slot s) const { return tags[s]; }
    bool validAt(Slot s) const { return tags[s] != kInvalidAddr; }
    bool dirtyAt(Slot s) const { return meta[s].dirty; }

    /** Promote on hit (updates LRU / RRPV state). */
    void touch(Addr block_addr, std::uint32_t thread);

    /**
     * Promote a slot already located via find() — same effect as
     * touch() without re-scanning the set. @pre the slot is valid.
     */
    void touchSlot(Slot s);

    /**
     * Insert a block, selecting and displacing a victim if the set is
     * full. Updates set-dueling state on this miss.
     * @param dirty initial dirty state of the inserted block.
     * @return the displaced entry (valid=false if a free way was used).
     */
    Eviction insert(Addr block_addr, std::uint32_t thread, bool dirty);

    /**
     * insert() for a block probe() just missed, reusing that scan.
     * @pre p came from probe() with no store mutation since, p.hit false.
     */
    Eviction fill(const Probe &p, std::uint32_t thread, bool dirty);

    /** Remove a block if present. */
    void invalidate(Addr block_addr);

    /** Set/clear the entry's dirty bit. @pre block present. */
    void markDirty(Addr block_addr);
    void markClean(Addr block_addr);

    /**
     * Set the dirty bit of a slot located via find(), keeping the
     * store's dirty count coherent. @pre the slot is valid.
     */
    void setSlotDirty(Slot s, bool dirty)
    {
        nDirty += static_cast<std::uint64_t>(dirty);
        nDirty -= static_cast<std::uint64_t>(meta[s].dirty);
        meta[s].dirty = dirty;
    }

    /** Dirty bit of a resident block. @pre block present. */
    bool isDirty(Addr block_addr) const;

    /**
     * LRU recency rank of the entry holding block_addr within its set:
     * 0 = LRU-most. Used by the VWQ Set State Vector.
     */
    std::uint32_t lruRank(Addr block_addr) const;

    /** True if any entry within the `ways` LRU-most ways is dirty. */
    bool anyDirtyInLruWays(std::uint32_t set, std::uint32_t ways) const;

    /**
     * Count of valid dirty entries. O(1): maintained incrementally at
     * every dirty-bit transition (the auditor cross-checks it against
     * the authoritative per-slot bits every audit interval).
     */
    std::uint64_t countDirty() const { return nDirty; }

    /** Policy actually used for the last insertion (for tests). */
    bool lastInsertUsedBimodal() const { return lastBimodal; }

    Counter statHits;
    Counter statMisses;
    Counter statInsertions;
    Counter statEvictions;

  private:
    /** Per-slot state that lookups never read. */
    struct Meta
    {
        bool dirty = false;
        std::uint8_t rrpv = 0;  ///< DRRIP re-reference value
    };

    /** Valid slots of s's set whose last touch is older than s's. */
    std::uint32_t olderInSet(Slot s) const;

    /** Victim way in a full set, per the replacement policy. */
    std::uint32_t victimWay(std::uint32_t set);

    /** DIP/DRRIP set-dueling: kind of leader this set is for `thread`. */
    enum class LeaderKind { None, Primary, Bimodal };
    LeaderKind leaderKind(std::uint32_t set, std::uint32_t thread) const;

    /** Should this thread's insertion use the bimodal variant? */
    bool useBimodal(std::uint32_t set, std::uint32_t thread);

    CacheGeometry geo;
    std::uint32_t nSets;

    /**
     * The only copy of each block's state, carved from one allocation:
     * `tags[i]` (block address, kInvalidAddr = invalid) is all find()
     * scans, `touches[i]` (last-touch clock) is all the LRU victim scan
     * reads, and `meta[i]` holds the rest — 18 bytes per block.
     */
    std::unique_ptr<std::byte[]> slab;
    Addr *tags = nullptr;
    std::uint64_t *touches = nullptr;
    Meta *meta = nullptr;

    std::uint64_t touchClock = 1;
    std::uint64_t nDirty = 0;  ///< valid entries with dirty == true
    Rng rng;

    /** Per-thread 10-bit policy selectors (TA-DIP / DRRIP dueling). */
    std::vector<std::uint32_t> psel;
    static constexpr std::uint32_t kPselMax = 1023;
    static constexpr std::uint32_t kPselInit = 512;

    /** BIP/BRRIP bimodal probability: 1/64 and 1/32 respectively. */
    static constexpr double kBipEpsilon = 1.0 / 64.0;
    static constexpr double kBrripEpsilon = 1.0 / 32.0;

    static constexpr std::uint8_t kRrpvMax = 3;  ///< 2-bit RRPV

    bool lastBimodal = false;
};

} // namespace dbsim

#endif // DBSIM_CACHE_TAG_STORE_HH
