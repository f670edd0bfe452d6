#include "llc/policies.hh"

#include "common/logging.hh"
#include "llc/llc.hh"

namespace dbsim {

// ---------------------------------------------------------------------
// TagDirtyStore
// ---------------------------------------------------------------------

void
TagDirtyStore::writebackIn(Addr block_addr, std::uint32_t core, Cycle when)
{
    Cycle start = llc->occupyPort(when);
    Cycle tag_done = start + llc->config().tagLatency;

    TagStore::Probe p = llc->tags().probe(block_addr);
    if (p.hit) {
        llc->tags().setSlotDirty(p.slot, true);
    } else {
        // Writeback-allocate: insert the incoming dirty block.
        llc->fillBlock(p, core, true, tag_done);
    }
}

void
TagDirtyStore::functionalWritebackIn(Addr block_addr, std::uint32_t core)
{
    // writebackIn() minus the port/stat traffic: mark or
    // writeback-allocate dirty.
    TagStore::Probe p = llc->tags().probe(block_addr);
    if (p.hit) {
        llc->tags().setSlotDirty(p.slot, true);
    } else {
        llc->functionalFill(p, core, true);
    }
}

bool
TagDirtyStore::isDirty(Addr block_addr) const
{
    const TagStore &tags = llc->tags();
    TagStore::Slot s = tags.find(block_addr);
    return s != TagStore::kNoSlot && tags.dirtyAt(s);
}

bool
TagDirtyStore::probeDirty(Addr block_addr) const
{
    return isDirty(block_addr);
}

void
TagDirtyStore::clean(Addr block_addr)
{
    llc->tags().markClean(block_addr);
}

bool
TagDirtyStore::victimDirty(Addr block_addr, bool tag_dirty)
{
    (void)block_addr;
    return tag_dirty;
}

std::uint64_t
TagDirtyStore::dirtyInVictimRow(Addr block_addr) const
{
    // The victim itself has already been displaced from the tag store,
    // hence the +1.
    return llc->countStoreDirtyInRow(block_addr) + 1;
}

// ---------------------------------------------------------------------
// WriteThroughStore
// ---------------------------------------------------------------------

void
WriteThroughStore::writebackIn(Addr block_addr, std::uint32_t core,
                               Cycle when)
{
    (void)core;
    // Write-through: the block (if present) is updated but stays clean,
    // and the write goes straight to memory. No write-allocate.
    Cycle start = llc->occupyPort(when);
    llc->writebackToDram(block_addr, start + llc->config().tagLatency);
}

void
WriteThroughStore::functionalWritebackIn(Addr block_addr,
                                         std::uint32_t core)
{
    (void)core;
    // Write-through: the data goes straight down; nothing allocates.
    llc->functionalWbToDram(block_addr);
}

// ---------------------------------------------------------------------
// DbiDirtyStore
// ---------------------------------------------------------------------

DbiDirtyStore::DbiDirtyStore(const DbiConfig &dbi_config) : cfg(dbi_config)
{
}

void
DbiDirtyStore::bind(Llc &owner)
{
    DirtyStore::bind(owner);
    index = std::make_unique<Dbi>(cfg, llc->tags().numBlocks());
}

void
DbiDirtyStore::registerStats(StatSet &set)
{
    index->registerStats(set);
    set.add("llc.awbWritebacks", statAwbWritebacks);
    set.add("llc.dbiEvictionWbs", statDbiEvictionWbs);
}

void
DbiDirtyStore::writebackIn(Addr block_addr, std::uint32_t core, Cycle when)
{
    Cycle start = llc->occupyPort(when);
    Cycle tag_done = start + llc->config().tagLatency;

    // 1) Insert/update the block in the cache (never via the tag store's
    //    dirty bit — the DBI is authoritative).
    if (TagStore::Probe p = llc->tags().probe(block_addr); !p.hit) {
        llc->fillBlock(p, core, false, tag_done);
    }

    // 2) Update the DBI. A DBI eviction writes back the victim entry's
    //    blocks (which remain cached, now clean).
    index->setDirty(block_addr, drained);
    drainDbiEviction(drained, tag_done);
}

void
DbiDirtyStore::drainDbiEviction(const std::vector<Addr> &blocks, Cycle when)
{
    Cycle cursor = when;
    Cycle last = when;
    for (Addr b : blocks) {
        panic_if(!llc->tags().contains(b),
                 "DBI invariant violated: dirty block %llx not cached",
                 static_cast<unsigned long long>(b));
        // One tag lookup per block to read its data for the writeback —
        // every lookup useful, unlike DAWB's speculative sweeps.
        Cycle start = llc->occupyPort(cursor);
        ++llc->statSweepLookups;
        cursor = start + 1;
        last = start + llc->config().tagLatency;
        llc->writebackToDram(b, last);
        ++statDbiEvictionWbs;
        llc->notifyMetaCleaned(b, last);
    }
    if constexpr (telemetry::kEnabled) {
        if (telemetry::SimTelemetry *telem = llc->telemetrySink();
            telem && !blocks.empty()) {
            telem->dbiEvictionDrain(when, last, blocks.size());
        }
    }
}

void
DbiDirtyStore::functionalWritebackIn(Addr block_addr, std::uint32_t core)
{
    // Mirror writebackIn(): allocate clean if absent, then mark dirty
    // in the DBI. A DBI eviction still drains its blocks (they become
    // clean), but with no lookups, cycles, or counters accounted.
    if (TagStore::Probe p = llc->tags().probe(block_addr); !p.hit) {
        llc->functionalFill(p, core, false);
    }
    index->setDirty(block_addr, drained, /*account=*/false);
    for (Addr b : drained) {
        panic_if(!llc->tags().contains(b),
                 "DBI invariant violated: dirty block %llx not cached",
                 static_cast<unsigned long long>(b));
        llc->functionalWbToDram(b);
    }
}

bool
DbiDirtyStore::isDirty(Addr block_addr) const
{
    return index->isDirty(block_addr);
}

bool
DbiDirtyStore::probeDirty(Addr block_addr) const
{
    return index->probeDirty(block_addr);
}

void
DbiDirtyStore::clean(Addr block_addr)
{
    index->clearDirty(block_addr);
}

bool
DbiDirtyStore::victimDirty(Addr block_addr, bool tag_dirty)
{
    panic_if(tag_dirty, "DBI cache must not use tag-store dirty bits");
    return index->isDirty(block_addr);
}

void
DbiDirtyStore::onVictimWrittenBack(Addr block_addr)
{
    index->clearDirty(block_addr);
}

bool
DbiDirtyStore::functionalVictimDirty(Addr block_addr, bool tag_dirty)
{
    panic_if(tag_dirty, "DBI cache must not use tag-store dirty bits");
    return index->probeDirty(block_addr);
}

void
DbiDirtyStore::functionalVictimWrittenBack(Addr block_addr)
{
    index->clearDirty(block_addr, /*account=*/false);
}

std::uint64_t
DbiDirtyStore::dirtyInVictimRow(Addr block_addr) const
{
    // Fig. 2 sample: the victim is still marked in the DBI here, so the
    // range count includes it (no +1 needed, unlike the in-tag store).
    const DramAddrMap &map = llc->addrMap();
    return index->countDirtyInRange(map.rowBase(block_addr),
                                    map.rowBytes());
}

void
DbiDirtyStore::checkInvariants() const
{
    // Every DBI-dirty block must be resident, and the tag store must
    // carry no dirty bits.
    index->forEachDirtyBlock([this](Addr b) {
        panic_if(!llc->tags().contains(b),
                 "DBI-dirty block %llx not resident",
                 static_cast<unsigned long long>(b));
    });
    panic_if(llc->tags().countDirty() != 0,
             "tag store of a DBI cache has dirty bits set");
}

// ---------------------------------------------------------------------
// DawbSweepPolicy
// ---------------------------------------------------------------------

void
DawbSweepPolicy::afterDirtyEviction(Addr block_addr, Cycle when)
{
    // Sweep every other block of the victim's DRAM row through the tag
    // store, writing back (and cleaning) the ones found dirty. Most of
    // these lookups are wasted — the blocks are clean or absent — which
    // is exactly DAWB's overhead (Section 3.1).
    const DramAddrMap &map = llc->addrMap();
    DirtyStore &ds = llc->dirtyStore();
    std::uint32_t victim_idx = map.blockInRow(block_addr);
    Cycle cursor = when;
    for (std::uint32_t i = 0; i < map.blocksPerRow(); ++i) {
        if (i == victim_idx) {
            continue;
        }
        Addr b = map.blockInRowAddr(block_addr, i);
        Cycle start = llc->occupyPort(cursor);
        ++llc->statSweepLookups;
        cursor = start + 1;
        if (llc->tags().contains(b) && ds.probeDirty(b)) {
            ds.clean(b);
            llc->writebackToDram(b, start + llc->config().tagLatency);
            llc->notifyMetaCleaned(b, start + llc->config().tagLatency);
        }
    }
}

// ---------------------------------------------------------------------
// VwqSweepPolicy
// ---------------------------------------------------------------------

VwqSweepPolicy::VwqSweepPolicy(std::uint32_t lru_ways) : lruWays(lru_ways)
{
}

void
VwqSweepPolicy::bind(Llc &owner)
{
    WritebackPolicy::bind(owner);
    fatal_if(lruWays == 0 || lruWays > llc->config().assoc,
             "VWQ LRU-way window out of range");
    fatal_if(llc->tags().numSets() < kSsvGroupSets,
             "cache too small for the SSV grouping");
}

bool
VwqSweepPolicy::setFlagged(std::uint32_t set) const
{
    const TagStore &tags = llc->tags();
    if (llc->dirtyStore().kind() == DirtyStoreKind::InTag) {
        return tags.anyDirtyInLruWays(set, lruWays);
    }
    // Generic SSV emulation for stores that keep dirtiness outside the
    // tag entries: probe the store for each LRU-way block of the set.
    const DirtyStore &ds = llc->dirtyStore();
    for (std::uint32_t way = 0; way < tags.assoc(); ++way) {
        Addr b = tags.blockAt(tags.slotOf(set, way));
        if (b != kInvalidAddr && tags.lruRank(b) < lruWays &&
            ds.probeDirty(b)) {
            return true;
        }
    }
    return false;
}

void
VwqSweepPolicy::afterDirtyEviction(Addr block_addr, Cycle when)
{
    // Like DAWB, but consult the Set State Vector first: only sets that
    // report a dirty block among their LRU ways are looked up, and only
    // LRU-way blocks are eligible for proactive writeback.
    const DramAddrMap &map = llc->addrMap();
    DirtyStore &ds = llc->dirtyStore();
    std::uint32_t victim_idx = map.blockInRow(block_addr);
    Cycle cursor = when;
    for (std::uint32_t i = 0; i < map.blocksPerRow(); ++i) {
        if (i == victim_idx) {
            continue;
        }
        Addr b = map.blockInRowAddr(block_addr, i);
        std::uint32_t set = llc->tags().setIndex(b);
        // The SSV is coarse: one bit covers a small group of sets, so a
        // dirty LRU block anywhere in the group forces the lookup. This
        // imprecision is why VWQ is "not significantly more efficient"
        // than DAWB (Section 3.1).
        std::uint32_t group = set & ~(kSsvGroupSets - 1);
        bool flagged = false;
        for (std::uint32_t g = 0; g < kSsvGroupSets; ++g) {
            if (setFlagged(group + g)) {
                flagged = true;
                break;
            }
        }
        if (!flagged) {
            continue;  // SSV filtered: no tag lookup spent
        }
        Cycle start = llc->occupyPort(cursor);
        ++llc->statSweepLookups;
        cursor = start + 1;
        if (llc->tags().contains(b) && ds.probeDirty(b) &&
            llc->tags().lruRank(b) < lruWays) {
            ds.clean(b);
            llc->writebackToDram(b, start + llc->config().tagLatency);
            llc->notifyMetaCleaned(b, start + llc->config().tagLatency);
        }
    }
}

// ---------------------------------------------------------------------
// DbiAwbPolicy
// ---------------------------------------------------------------------

void
DbiAwbPolicy::bind(Llc &owner)
{
    WritebackPolicy::bind(owner);
    store = dynamic_cast<DbiDirtyStore *>(&llc->dirtyStore());
    fatal_if(!store, "aggressive writeback requires a DBI dirty store");
}

void
DbiAwbPolicy::afterDirtyEviction(Addr block_addr, Cycle when)
{
    // Write back every other dirty block of the victim's DBI row
    // (Section 3.1, Figure 3). The DBI lists them in one query; tag
    // lookups are spent only on blocks that are actually dirty.
    Dbi &index = *store->dbiIndex();
    index.dirtyBlocksInRegion(block_addr, rowDirty);
    Cycle cursor = when;
    Cycle last = when;
    std::uint64_t burst = 0;
    for (Addr b : rowDirty) {
        if (b == block_addr) {
            continue;
        }
        panic_if(!llc->tags().contains(b),
                 "DBI invariant violated: dirty block %llx not cached",
                 static_cast<unsigned long long>(b));
        Cycle start = llc->occupyPort(cursor);
        ++llc->statSweepLookups;
        cursor = start + 1;
        last = start + llc->config().tagLatency;
        llc->writebackToDram(b, last);
        ++store->statAwbWritebacks;
        ++burst;
        index.clearDirty(b);
        llc->notifyMetaCleaned(b, last);
    }
    if constexpr (telemetry::kEnabled) {
        if (telemetry::SimTelemetry *telem = llc->telemetrySink();
            telem && burst > 0) {
            telem->awbBurst(when, last, burst);
        }
    }
}

// ---------------------------------------------------------------------
// SkipBypassLookup
// ---------------------------------------------------------------------

SkipBypassLookup::SkipBypassLookup(std::shared_ptr<MissPredictor> predictor)
    : pred(std::move(predictor))
{
    fatal_if(!pred, "the Skip-Cache bypass needs a miss predictor");
}

void
SkipBypassLookup::bind(Llc &owner)
{
    LookupPolicy::bind(owner);
    fatal_if(llc->dirtyStore().kind() != DirtyStoreKind::WriteThrough,
             "the Skip-Cache bypass is only safe over a write-through "
             "store (no block may ever be dirty)");
}

bool
SkipBypassLookup::tryBypass(Addr block_addr, std::uint32_t core,
                            Cycle when, Callback &cb)
{
    std::uint32_t set = llc->tags().setIndex(block_addr);
    if (!pred->predictMiss(set, core, when)) {
        return false;
    }
    // Write-through guarantees no dirty blocks, so bypassing is always
    // safe. Bypassed misses do not allocate.
    ++llc->statBypasses;
    if constexpr (telemetry::kEnabled) {
        cb = llc->wrapReadLatency(telemetry::ReadClass::Bypass, when,
                                  std::move(cb));
    }
    llc->dramRead(block_addr, when, std::move(cb));
    return true;
}

void
SkipBypassLookup::recordOutcome(Addr block_addr, std::uint32_t core,
                                bool hit, Cycle when)
{
    pred->recordOutcome(llc->tags().setIndex(block_addr), core, hit, when);
}

// ---------------------------------------------------------------------
// ClbBypassLookup
// ---------------------------------------------------------------------

ClbBypassLookup::ClbBypassLookup(std::shared_ptr<MissPredictor> predictor)
    : pred(std::move(predictor))
{
    fatal_if(!pred, "CLB requires a miss predictor");
}

void
ClbBypassLookup::bind(Llc &owner)
{
    LookupPolicy::bind(owner);
    index = llc->dbiIndex();
    fatal_if(!index, "CLB requires a DBI dirty store");
}

bool
ClbBypassLookup::tryBypass(Addr block_addr, std::uint32_t core, Cycle when,
                           Callback &cb)
{
    std::uint32_t set = llc->tags().setIndex(block_addr);
    if (!pred->predictMiss(set, core, when)) {
        return false;
    }

    // Check the (small, fast) DBI: a dirty block must take the normal
    // path; a clean predicted miss forwards straight to memory without
    // touching the tag store (Figure 4).
    ++llc->statDbiChecks;
    Cycle checked = when + index->latency();
    if (index->isDirty(block_addr)) {
        if constexpr (telemetry::kEnabled) {
            if (telemetry::SimTelemetry *telem = llc->telemetrySink()) {
                telem->clbDecision(block_addr, checked, true);
            }
        }
        llc->normalRead(block_addr, core, checked, std::move(cb));
        return true;
    }
    ++llc->statBypasses;
    if constexpr (telemetry::kEnabled) {
        if (telemetry::SimTelemetry *telem = llc->telemetrySink()) {
            telem->clbDecision(block_addr, checked, false);
        }
        cb = llc->wrapReadLatency(telemetry::ReadClass::Bypass, when,
                                  std::move(cb));
    }
    llc->dramRead(block_addr, checked, std::move(cb));
    return true;
}

void
ClbBypassLookup::recordOutcome(Addr block_addr, std::uint32_t core,
                               bool hit, Cycle when)
{
    pred->recordOutcome(llc->tags().setIndex(block_addr), core, hit, when);
}

} // namespace dbsim
