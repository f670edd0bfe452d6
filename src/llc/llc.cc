#include "llc.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dbsim {

Llc::Llc(const LlcConfig &config, BackingPort &backing_port,
         EventQueue &event_queue, std::unique_ptr<DirtyStore> dirty_store,
         std::unique_ptr<WritebackPolicy> writeback_policy,
         std::unique_ptr<LookupPolicy> lookup_policy)
    : cfg(config), backing(backing_port), eq(event_queue),
      store(CacheGeometry{config.sizeBytes, config.assoc, config.repl,
                          config.numCores, config.seed}),
      dirtyStorePtr(dirty_store ? std::move(dirty_store)
                                : std::make_unique<TagDirtyStore>()),
      wbPolicy(writeback_policy ? std::move(writeback_policy)
                                : std::make_unique<EvictOrderPolicy>()),
      lookupPol(lookup_policy ? std::move(lookup_policy)
                              : std::make_unique<AlwaysLookup>())
{
    // Bind order matters: the DirtyStore first (it may build the DBI the
    // other components look up during their own bind).
    dirtyStorePtr->bind(*this);
    wbPolicy->bind(*this);
    lookupPol->bind(*this);
}

void
Llc::registerStats(StatSet &set)
{
    set.add("llc.tagLookups", statTagLookups);
    set.add("llc.demandHits", statDemandHits);
    set.add("llc.demandMisses", statDemandMisses);
    set.add("llc.writebacksIn", statWritebacksIn);
    set.add("llc.wbToDram", statWbToDram);
    set.add("llc.sweepLookups", statSweepLookups);
    set.add("llc.bypasses", statBypasses);
    set.add("llc.dbiChecks", statDbiChecks);
    dirtyStorePtr->registerStats(set);
    wbPolicy->registerStats(set);
    lookupPol->registerStats(set);
    if (meta) {
        meta->registerStats(set);
    }
}

Cycle
Llc::occupyPort(Cycle when)
{
    Cycle start = std::max(when, portFreeAt);
    portFreeAt = start + 1;  // pipelined: one lookup per cycle
    ++statTagLookups;
    return start;
}

void
Llc::writeback(Addr block_addr, std::uint32_t core, Cycle when)
{
    Addr a = blockAlign(block_addr);
    ++statWritebacksIn;
    if (auditor) {
        auditor->onWritebackIn(a, when);
    }
    dirtyStorePtr->writebackIn(a, core, when);
    if (meta && dirtyStorePtr->kind() != DirtyStoreKind::WriteThrough) {
        // The block is now dirty under the store's bookkeeping (a
        // write-through store never dirties anything, so skip it there).
        meta->onDirty(a, core, when);
    }
    endAuditOp();
}

void
Llc::functionalAccess(Addr block_addr, std::uint32_t core, bool is_write)
{
    Addr a = blockAlign(block_addr);
    Cycle now = eq.now();

    // Demand access: train the predictor with the true outcome, then
    // touch or warm-fill. Misses also warm the level below.
    TagStore::Probe p = store.probe(a);
    lookupPol->recordOutcome(a, core, p.hit, now);
    if (p.hit) {
        store.touchSlot(p.slot);
    } else {
        functionalFill(p, core, false);
        backing.functionalAccess(a, false);
    }

    if (is_write) {
        // A store being warmed dirties the block here directly — the
        // unwarmed L1/L2 would have delivered it as a writeback
        // eventually. functionalWritebackIn() re-allocates if the fill
        // above was itself evicted (single-set pathologies).
        if (auditor) {
            auditor->onWritebackIn(a, now);
        }
        dirtyStorePtr->functionalWritebackIn(a, core);
    }
    endAuditOp();
}

void
Llc::functionalFill(const TagStore::Probe &p, std::uint32_t core,
                    bool dirty)
{
    Cycle now = eq.now();
    Addr block_addr = p.block;
    if (p.hit) {
        store.touchSlot(p.slot);
        if (dirty) {
            store.setSlotDirty(p.slot, true);
        }
        if (auditor) {
            auditor->onFill(block_addr, dirty, now);
        }
        return;
    }
    TagStore::Eviction ev = store.fill(p, core, dirty);
    if (auditor) {
        auditor->onFill(block_addr, dirty, now);
    }
    if (ev.valid) {
        if (dirtyStorePtr->functionalVictimDirty(ev.block, ev.dirty)) {
            // Dirty functional eviction: the data reaches memory and
            // the metadata is dropped, exactly like the timed path —
            // minus the WritebackPolicy's proactive row sweep, which
            // is a timing optimization warming deliberately skips.
            functionalWbToDram(ev.block);
            dirtyStorePtr->functionalVictimWrittenBack(ev.block);
        }
        if (auditor) {
            auditor->onEviction(ev.block, now);
        }
    }
}

void
Llc::functionalWbToDram(Addr block_addr)
{
    if (auditor) {
        auditor->onWbToDram(block_addr, eq.now());
    }
    backing.functionalAccess(block_addr, true);
}

void
Llc::writebackToDram(Addr block_addr, Cycle when)
{
    dramWrite(block_addr, when);
    ++statWbToDram;
    if (auditor) {
        auditor->onWbToDram(block_addr, when);
    }
}

void
Llc::notifyMetaCleaned(Addr block_addr, Cycle when)
{
    if (meta) {
        meta->onCleaned(block_addr, when);
    }
}

void
Llc::read(Addr block_addr, std::uint32_t core, Cycle when, Callback cb)
{
    Addr a = blockAlign(block_addr);

    if (lookupPol->tryBypass(a, core, when, cb)) {
        return;
    }
    normalRead(a, core, when, std::move(cb));
}

void
Llc::normalRead(Addr block_addr, std::uint32_t core, Cycle when,
                Callback cb)
{
    Addr a = block_addr;
    Cycle start = occupyPort(when);
    Cycle tag_done = start + cfg.tagLatency;

    TagStore::Probe p = store.probe(a);
    lookupPol->recordOutcome(a, core, p.hit, when);
    if (meta) {
        meta->onRead(a, core, p.hit, when);
    }

    if (p.hit) {
        ++statDemandHits;
        store.touchSlot(p.slot);
        Cycle done = tag_done + cfg.dataLatency;
        if constexpr (telemetry::kEnabled) {
            if (telem) {
                telem->readLatency(telemetry::ReadClass::Hit, done - when);
            }
        }
        eq.schedule(done, [cb = std::move(cb), done] { cb(done); },
                    prof::Llc);
        return;
    }

    ++statDemandMisses;
    if constexpr (telemetry::kEnabled) {
        cb = wrapReadLatency(telemetry::ReadClass::Miss, when,
                             std::move(cb));
    }
    missToDram(a, core, tag_done, std::move(cb));
}

Llc::Callback
Llc::wrapReadLatency(telemetry::ReadClass cls, Cycle when, Callback cb)
{
    if constexpr (telemetry::kEnabled) {
        if (telem && telem->histogramsEnabled()) {
            return [this, cls, when, cb = std::move(cb)](Cycle done) {
                telem->readLatency(cls, done > when ? done - when : 0);
                cb(done);
            };
        }
    }
    return cb;
}

std::uint64_t
Llc::countStoreDirtyInRow(Addr block_addr) const
{
    const DramAddrMap &map = backing.addrMap();
    Addr base = map.rowBase(block_addr);
    std::uint64_t dirty = 0;
    for (std::uint32_t i = 0; i < map.blocksPerRow(); ++i) {
        TagStore::Slot s = store.find(base + Addr{i} * kBlockBytes);
        if (s != TagStore::kNoSlot && store.dirtyAt(s)) {
            ++dirty;
        }
    }
    return dirty;
}

void
Llc::missToDram(Addr block_addr, std::uint32_t core, Cycle when,
                Callback cb)
{
    std::uint32_t slot = pendingIndex.find(block_addr);
    if (slot != AddrIndex::kNone) {
        // Merge with the in-flight request for the same block.
        pending[slot].cbs.push_back(std::move(cb));
        return;
    }

    if (freePending.empty()) {
        slot = static_cast<std::uint32_t>(pending.size());
        pending.emplace_back();
    } else {
        slot = freePending.back();
        freePending.pop_back();
    }
    Pending &p = pending[slot];
    p.block = block_addr;
    p.core = core;
    if (p.cbs.capacity() == 0 && !cbPool.empty()) {
        p.cbs = std::move(cbPool.back());
        cbPool.pop_back();
    }
    p.cbs.push_back(std::move(cb));
    pendingIndex.insert(block_addr, slot);

    dramRead(block_addr, when,
             [this, slot](Cycle done) { completeMiss(slot, done); });
}

void
Llc::completeMiss(std::uint32_t slot, Cycle done)
{
    Pending &p = pending[slot];
    Addr block_addr = p.block;
    std::uint32_t core = p.core;
    // Take the requesters out first: they may issue new misses that
    // reuse this slot.
    std::vector<Callback> cbs = std::move(p.cbs);
    p.cbs.clear();
    bool indexed = pendingIndex.erase(block_addr);
    panic_if(!indexed, "orphan DRAM completion");
    freePending.push_back(slot);
    // Fill, then complete all merged requesters.
    fillBlock(block_addr, core, false, done);
    endAuditOp();
    for (auto &waiting : cbs) {
        waiting(done);
    }
    cbs.clear();
    cbPool.push_back(std::move(cbs));
}

Llc::RegionOpResult
Llc::flushRegion(Addr base, std::uint64_t bytes, Cycle when)
{
    RegionOpResult res;
    Cycle cursor = when;
    if (Dbi *index = dbiIndex()) {
        // One DBI query per granularity-sized region; tag lookups only
        // for the blocks that are actually dirty (their data must be
        // read out).
        std::uint64_t region_bytes =
            static_cast<std::uint64_t>(index->granularity()) * kBlockBytes;
        Addr start = base - base % region_bytes;
        for (Addr r = start; r < base + bytes; r += region_bytes) {
            ++res.lookups;  // the DBI access
            index->dirtyBlocksInRegion(r, regionDirty);
            for (Addr b : regionDirty) {
                if (b < base || b >= base + bytes) {
                    continue;  // outside the requested range
                }
                Cycle t = occupyPort(cursor);
                cursor = t + 1;
                ++res.lookups;
                res.anyDirty = true;
                ++res.writebacks;
                writebackToDram(b, t + cfg.tagLatency);
                index->clearDirty(b);
                notifyMetaCleaned(b, t + cfg.tagLatency);
            }
        }
        endAuditOp();
        return res;
    }

    // Conventional organization: brute force — one tag lookup per block
    // of the range to find the dirty ones.
    Addr start = blockAlign(base);
    for (Addr a = start; a < base + bytes; a += kBlockBytes) {
        Cycle t = occupyPort(cursor);
        cursor = t + 1;
        ++res.lookups;
        if (store.contains(a) && dirtyStorePtr->probeDirty(a)) {
            res.anyDirty = true;
            ++res.writebacks;
            writebackToDram(a, t + cfg.tagLatency);
            dirtyStorePtr->clean(a);
            notifyMetaCleaned(a, t + cfg.tagLatency);
        }
    }
    endAuditOp();
    return res;
}

Llc::RegionOpResult
Llc::queryRegionDirty(Addr base, std::uint64_t bytes)
{
    RegionOpResult res;
    if (const Dbi *index = dbiIndex()) {
        std::uint64_t region_bytes =
            static_cast<std::uint64_t>(index->granularity()) * kBlockBytes;
        Addr start = base - base % region_bytes;
        for (Addr r = start; r < base + bytes; r += region_bytes) {
            ++res.lookups;  // one DBI access answers the whole region
            index->dirtyBlocksInRegion(r, regionDirty);
            for (Addr b : regionDirty) {
                if (b >= base && b < base + bytes) {
                    res.anyDirty = true;
                }
            }
        }
        return res;
    }

    Addr start = blockAlign(base);
    for (Addr a = start; a < base + bytes; a += kBlockBytes) {
        ++res.lookups;
        ++statTagLookups;
        if (store.contains(a) && dirtyStorePtr->probeDirty(a)) {
            res.anyDirty = true;
        }
    }
    return res;
}

void
Llc::handleEviction(Addr block_addr, bool tag_dirty, Cycle when)
{
    if (!dirtyStorePtr->victimDirty(block_addr, tag_dirty)) {
        return;  // clean eviction: nothing to write back
    }
    if constexpr (telemetry::kEnabled) {
        // Fig. 2 sample: dirty blocks co-resident in the victim's DRAM
        // row, including the victim itself (the store accounts for
        // whether its metadata still covers the displaced entry).
        if (telem && telem->histogramsEnabled()) {
            telem->dirtyRowWriteback(
                dirtyStorePtr->dirtyInVictimRow(block_addr));
        }
    }
    // Dirty eviction: write the victim back, drop its dirty metadata,
    // then let the writeback policy piggyback further writebacks.
    writebackToDram(block_addr, when);
    dirtyStorePtr->onVictimWrittenBack(block_addr);
    wbPolicy->afterDirtyEviction(block_addr, when);
}

void
Llc::fillBlock(const TagStore::Probe &p, std::uint32_t core, bool dirty,
               Cycle when)
{
    Addr block_addr = p.block;
    if (p.hit) {
        // Already filled by a racing writeback-allocate: promote, and
        // merge the incoming dirty state. Dropping it here would turn a
        // dirty writeback silently clean and lose a memory update.
        store.touchSlot(p.slot);
        if (dirty) {
            store.setSlotDirty(p.slot, true);
        }
        if (auditor) {
            auditor->onFill(block_addr, dirty, when);
        }
        if (meta) {
            meta->onFill(block_addr, core, dirty, when);
        }
        return;
    }
    TagStore::Eviction ev = store.fill(p, core, dirty);
    if (auditor) {
        auditor->onFill(block_addr, dirty, when);
    }
    if (meta) {
        meta->onFill(block_addr, core, dirty, when);
    }
    if (ev.valid) {
        handleEviction(ev.block, ev.dirty, when);
        if (auditor) {
            auditor->onEviction(ev.block, when);
        }
        if (meta) {
            meta->onEviction(ev.block, when);
        }
    }
}

} // namespace dbsim
