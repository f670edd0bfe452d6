#include "core_memory.hh"

#include "common/logging.hh"

namespace dbsim {

CoreMemory::CoreMemory(const CoreMemoryConfig &config, LlcPort &shared_llc,
                       std::uint32_t core_id, std::uint64_t seed)
    : cfg(config), llc(shared_llc), coreId(core_id),
      l1(CacheGeometry{config.l1.sizeBytes, config.l1.assoc,
                       ReplPolicy::Lru, 1, seed}),
      l2(CacheGeometry{config.l2.sizeBytes, config.l2.assoc,
                       ReplPolicy::Lru, 1, seed + 1})
{
}

void
CoreMemory::registerStats(StatSet &set)
{
    set.add("core.loads", statLoads);
    set.add("core.stores", statStores);
    set.add("core.l1Hits", statL1Hits);
    set.add("core.l2Hits", statL2Hits);
    set.add("core.llcAccesses", statLlcAccesses);
    set.add("core.mshrMerges", statMshrMerges);
}

void
CoreMemory::fillL1(Addr block_addr, bool dirty, Cycle when)
{
    TagStore::Probe p = l1.probe(block_addr);
    if (p.hit) {
        l1.touchSlot(p.slot);
        if (dirty) {
            l1.setSlotDirty(p.slot, true);
        }
        return;
    }
    TagStore::Eviction ev = l1.fill(p, 0, dirty);
    if (ev.valid && ev.dirty) {
        // L1 dirty victim spills into L2.
        fillL2(ev.block, true, when);
    }
}

void
CoreMemory::fillL2(Addr block_addr, bool dirty, Cycle when)
{
    TagStore::Probe p = l2.probe(block_addr);
    if (p.hit) {
        l2.touchSlot(p.slot);
        if (dirty) {
            l2.setSlotDirty(p.slot, true);
        }
        return;
    }
    TagStore::Eviction ev = l2.fill(p, 0, dirty);
    if (ev.valid && ev.dirty) {
        // L2 dirty victim becomes a writeback request to the LLC
        // (Section 2.2.2).
        llc.writeback(ev.block, coreId, when);
    }
}

void
CoreMemory::functionalAccess(Addr addr, bool is_write)
{
    // Long-history structures only: every warmed op reaches the LLC's
    // functional port unfiltered. The L1/L2 filter would thin the
    // stream the LLC sees, but on fast-forward spans (millions of ops)
    // the LLC recency and DBI dirty state it converges to is the same,
    // and skipping two private-tag-store updates per op is most of the
    // fast-forward speedup.
    llc.functionalAccess(blockAlign(addr), coreId, is_write);
}

Cycle
CoreMemory::llcAccessTime(Cycle when) const
{
    return when + cfg.l1.latency + cfg.l2.latency;
}

CoreMemory::Result
CoreMemory::accessBelowL2(Addr block_addr, bool is_write, Cycle when,
                          Callback on_done)
{
    // MSHR merge: a secondary miss to a block already being filled
    // waits for that fill instead of issuing another LLC access.
    if (std::uint32_t i = mshrIndex.find(block_addr);
        i != AddrIndex::kNone) {
        ++statMshrMerges;
        mshrWaiters[i].push_back(Waiter{is_write, std::move(on_done)});
        return Result{true, 0};
    }
    std::uint32_t slot;
    if (!freeMshrs.empty()) {
        slot = freeMshrs.back();
        freeMshrs.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(mshrBlock.size());
        mshrBlock.push_back(kInvalidAddr);
        mshrWaiters.emplace_back();
    }

    // Recycle retired waiter vectors: their capacity survives the round
    // trip through the pool, so the steady state allocates nothing.
    std::vector<Waiter> &waiters = mshrWaiters[slot];
    if (waiters.capacity() == 0 && !waiterPool.empty()) {
        waiters = std::move(waiterPool.back());
        waiterPool.pop_back();
    }
    waiters.push_back(Waiter{is_write, std::move(on_done)});
    mshrBlock[slot] = block_addr;
    mshrIndex.insert(block_addr, slot);

    ++statLlcAccesses;
    llc.read(block_addr, coreId, llcAccessTime(when),
             [this, slot](Cycle done) { completeFill(slot, done); });
    return Result{true, 0};
}

void
CoreMemory::completeFill(std::uint32_t slot, Cycle done)
{
    Addr block_addr = mshrBlock[slot];
    panic_if(block_addr == kInvalidAddr,
             "fill completion without MSHR entry");
    // Free the slot before waking anyone: a woken access may miss again
    // and take it.
    std::vector<Waiter> waiters = std::move(mshrWaiters[slot]);
    mshrWaiters[slot].clear();
    mshrBlock[slot] = kInvalidAddr;
    mshrIndex.erase(block_addr);
    freeMshrs.push_back(slot);

    bool any_write = false;
    for (const auto &w : waiters) {
        any_write |= w.isWrite;
    }
    fillL2(block_addr, false, done);
    fillL1(block_addr, any_write, done);
    for (auto &w : waiters) {
        w.onDone(done);
    }
    waiters.clear();
    waiterPool.push_back(std::move(waiters));
    if (mshrFreedFn) {
        mshrFreedFn();
    }
}

CoreMemory::Result
CoreMemory::load(Addr addr, Cycle when, Callback on_done)
{
    ++statLoads;
    Addr a = blockAlign(addr);

    if (TagStore::Slot s = l1.find(a); s != TagStore::kNoSlot) {
        ++statL1Hits;
        l1.touchSlot(s);
        return Result{false, cfg.l1.latency};
    }
    if (TagStore::Slot s = l2.find(a); s != TagStore::kNoSlot) {
        ++statL2Hits;
        l2.touchSlot(s);
        bool dirty = l2.dirtyAt(s);
        // Move the block up; L2 keeps its copy clean once L1 owns the
        // dirty state (exclusive dirty ownership avoids double
        // writebacks).
        l2.setSlotDirty(s, false);
        fillL1(a, dirty, when);
        return Result{false, cfg.l1.latency + cfg.l2.latency};
    }
    return accessBelowL2(a, false, when, std::move(on_done));
}

CoreMemory::Result
CoreMemory::store(Addr addr, Cycle when, Callback on_done)
{
    ++statStores;
    Addr a = blockAlign(addr);

    if (TagStore::Slot s = l1.find(a); s != TagStore::kNoSlot) {
        ++statL1Hits;
        l1.touchSlot(s);
        l1.setSlotDirty(s, true);
        return Result{false, 1};
    }
    if (TagStore::Slot s = l2.find(a); s != TagStore::kNoSlot) {
        ++statL2Hits;
        l2.touchSlot(s);
        l2.setSlotDirty(s, false);
        fillL1(a, true, when);
        return Result{false, 1};
    }
    // Write-allocate: fetch the block, then dirty it in L1 on arrival.
    return accessBelowL2(a, true, when, std::move(on_done));
}

} // namespace dbsim
