#include "dcache.hh"

#include "common/logging.hh"

namespace dbsim {

DramCache::DramCache(const DCacheConfig &config, BackingPort &below,
                     EventQueue &event_queue)
    : cfg(config), down(below), eq(event_queue)
{
    fatal_if(!isPowerOf2(cfg.pageBytes) || cfg.pageBytes < kBlockBytes,
             "dcache.pageBytes (%u) must be a power of two >= one block",
             cfg.pageBytes);
    fatal_if(cfg.pageBytes > 8192,
             "dcache.pageBytes (%u) exceeds the largest supported page "
             "(8192: one 128-block dirty vector)",
             cfg.pageBytes);
    blocksPer = cfg.pageBytes / kBlockBytes;
    fatal_if(cfg.assoc == 0 || !isPowerOf2(cfg.assoc),
             "dcache.assoc (%u) must be a power of two", cfg.assoc);
    const std::uint64_t page_cap =
        std::uint64_t(cfg.pageBytes) * cfg.assoc;
    fatal_if(cfg.sizeBytes < page_cap || cfg.sizeBytes % page_cap != 0,
             "dcache slice capacity %llu is not a multiple of one "
             "%u-page set",
             static_cast<unsigned long long>(cfg.sizeBytes), cfg.assoc);
    const std::uint64_t sets = cfg.sizeBytes / page_cap;
    fatal_if(!isPowerOf2(sets),
             "dcache set count %llu must be a power of two",
             static_cast<unsigned long long>(sets));
    nSets = static_cast<std::uint32_t>(sets);
    pages.resize(std::uint64_t(nSets) * cfg.assoc);
    for (Page &pg : pages) {
        pg.blocks = BitVec(blocksPer);
    }

    if (!cfg.dirtyInTags) {
        fatal_if(!isPowerOf2(cfg.indexEntries) ||
                 !isPowerOf2(cfg.indexAssoc) ||
                 cfg.indexEntries < cfg.indexAssoc,
                 "dcache.indexEntries (%u) and indexAssoc (%u) must be "
                 "powers of two with entries >= assoc",
                 cfg.indexEntries, cfg.indexAssoc);
        // One entry per page: region granularity = blocks per page, and
        // alpha = 1 over indexEntries * blocksPer "cache blocks" sizes
        // the structure to exactly indexEntries entries.
        DbiConfig ic;
        ic.alpha = 1.0;
        ic.granularity = blocksPer;
        ic.assoc = cfg.indexAssoc;
        ic.repl = DbiReplPolicy::Lrw;
        ic.latency = 0;  // SRAM index consulted in the tag-probe shadow
        ic.seed = cfg.seed + 17;
        index = std::make_unique<Dbi>(
            ic, std::uint64_t(cfg.indexEntries) * blocksPer);
    }
}

std::uint32_t
DramCache::setOf(std::uint64_t page_tag) const
{
    return static_cast<std::uint32_t>(page_tag % nSets);
}

std::uint32_t
DramCache::blockIndexOf(Addr block_addr) const
{
    return static_cast<std::uint32_t>((block_addr % cfg.pageBytes) >>
                                      kBlockShift);
}

DramCache::Page *
DramCache::findPage(std::uint64_t page_tag)
{
    Page *base = &pages[std::uint64_t(setOf(page_tag)) * cfg.assoc];
    for (std::uint32_t w = 0; w < cfg.assoc; ++w) {
        if (base[w].valid && base[w].tag == page_tag) {
            return &base[w];
        }
    }
    return nullptr;
}

const DramCache::Page *
DramCache::findPage(std::uint64_t page_tag) const
{
    return const_cast<DramCache *>(this)->findPage(page_tag);
}

bool
DramCache::pageIsDirty(const Page &pg) const
{
    if (!index) {
        return pg.dirty;
    }
    return index->countDirtyInRange(pg.tag * cfg.pageBytes,
                                    cfg.pageBytes) > 0;
}

void
DramCache::read(Addr block_addr, Cycle when, ReadCallback cb)
{
    ++statReads;
    const std::uint64_t tag = block_addr / cfg.pageBytes;
    const Cycle probed = when + cfg.tagLatency;
    Page *pg = findPage(tag);
    if (pg && pg->blocks.test(blockIndexOf(block_addr))) {
        ++statReadHits;
        pg->lastUse = useClock++;
        const Cycle done = probed + cfg.dataLatency;
        // Hit completions are events (never synchronous) so the caller
        // sees the same asynchronous contract DramController gives it.
        eq.schedule(done, [cb = std::move(cb), done] { cb(done); },
                    prof::Dram);
        endAuditOp();
        return;
    }
    // Miss: fetch the block from backing DDR, then install it. The
    // install happens in the read-completion callback — the same
    // fill-from-callback pattern the LLC uses — so any page eviction
    // its allocation triggers issues writes at the fill cycle.
    down.read(block_addr, probed,
              [this, block_addr, cb = std::move(cb)](Cycle done) {
                  Page &fill = allocPage(block_addr / cfg.pageBytes,
                                         done);
                  const std::uint32_t bi = blockIndexOf(block_addr);
                  if (!fill.blocks.test(bi)) {
                      // A write (or a second miss) that arrived while
                      // this fetch was in flight already installed the
                      // block; its data is newer, so the stale fill is
                      // squashed rather than clobbering it.
                      ++statFills;
                      fill.blocks.set(bi);
                      if (obs) {
                          obs->onFill(block_addr, done);
                      }
                  }
                  endAuditOp();
                  cb(done);
              });
}

void
DramCache::write(Addr block_addr, Cycle when)
{
    ++statWrites;
    const std::uint64_t tag = block_addr / cfg.pageBytes;
    const Cycle probed = when + cfg.tagLatency;
    Page *pg = findPage(tag);
    if (pg) {
        ++statWriteHits;
        pg->lastUse = useClock++;
    } else {
        // Write-allocate-no-fetch: the writeback carries a full block,
        // so the page is installed without touching backing DDR.
        pg = &allocPage(tag, probed);
    }
    pg->blocks.set(blockIndexOf(block_addr));
    if (obs) {
        obs->onWritebackIn(block_addr, probed);
    }
    markDirty(block_addr, probed);
    endAuditOp();
}

DramCache::Page &
DramCache::allocPage(std::uint64_t page_tag, Cycle when)
{
    Page *base = &pages[std::uint64_t(setOf(page_tag)) * cfg.assoc];
    for (std::uint32_t w = 0; w < cfg.assoc; ++w) {
        if (base[w].valid && base[w].tag == page_tag) {
            base[w].lastUse = useClock++;
            return base[w];
        }
    }
    Page *victim = nullptr;
    for (std::uint32_t w = 0; w < cfg.assoc; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (!victim || base[w].lastUse < victim->lastUse) {
            victim = &base[w];
        }
    }
    if (victim->valid) {
        evictPage(*victim, when);
    }
    ++statPageAllocs;
    victim->valid = true;
    victim->tag = page_tag;
    victim->blocks.clear();
    victim->dirty = false;
    victim->lastUse = useClock++;
    return *victim;
}

void
DramCache::evictPage(Page &pg, Cycle when)
{
    ++statPageEvictions;
    const Addr base = pg.tag * cfg.pageBytes;
    if (index) {
        // Exact dirty set from the index; writebacks are row-local by
        // construction (a page never straddles a DDR row).
        index->dirtyBlocksInRegion(base, indexBlocks);
        if (!indexBlocks.empty()) {
            ++statDirtyPageEvictions;
        }
        for (Addr a : indexBlocks) {
            index->clearDirty(a);
            down.write(a, when);
            ++statDdrWrites;
            ++statEvictionWbs;
            if (obs) {
                obs->onBlockCleaned(a, when);
            }
        }
    } else if (pg.dirty) {
        // One dirty bit for the whole page: every valid block must be
        // treated as dirty and written back.
        ++statDirtyPageEvictions;
        pg.blocks.forEachSet([&](std::uint32_t idx) {
            const Addr a = base + static_cast<Addr>(idx) * kBlockBytes;
            down.write(a, when);
            ++statDdrWrites;
            ++statEvictionWbs;
            if (obs) {
                obs->onBlockCleaned(a, when);
            }
        });
    }
    if (obs) {
        obs->onPageEvict(base, when);
    }
    pg.valid = false;
    pg.dirty = false;
    pg.blocks.clear();
}

void
DramCache::markDirty(Addr block_addr, Cycle when)
{
    if (!index) {
        Page *pg = findPage(block_addr / cfg.pageBytes);
        pg->dirty = true;
        return;
    }
    // The index may displace another page's entry: its dirty blocks are
    // written back in one batch (they stay resident, now clean) — the
    // TicToc-style scheduled cleaning the decoupled index enables.
    index->setDirty(block_addr, indexBlocks);
    for (Addr a : indexBlocks) {
        down.write(a, when);
        ++statDdrWrites;
        ++statIndexWbs;
        if (obs) {
            obs->onBlockCleaned(a, when);
        }
    }
}

void
DramCache::functionalAccess(Addr block_addr, bool is_write)
{
    const Cycle now = eq.now();
    const std::uint64_t tag = block_addr / cfg.pageBytes;
    Page *pg = findPage(tag);
    if (!pg) {
        // A read miss would fetch-and-install; a write allocates
        // without fetching. Either way the page ends up resident.
        pg = &functionalAllocPage(tag);
    }
    pg->lastUse = useClock++;
    const std::uint32_t bi = blockIndexOf(block_addr);
    if (is_write) {
        pg->blocks.set(bi);
        if (obs) {
            obs->onWritebackIn(block_addr, now);
        }
        functionalMarkDirty(block_addr);
    } else if (!pg->blocks.test(bi)) {
        pg->blocks.set(bi);
        if (obs) {
            obs->onFill(block_addr, now);
        }
    }
    endAuditOp();
}

DramCache::Page &
DramCache::functionalAllocPage(std::uint64_t page_tag)
{
    Page *base = &pages[std::uint64_t(setOf(page_tag)) * cfg.assoc];
    Page *victim = nullptr;
    for (std::uint32_t w = 0; w < cfg.assoc; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (!victim || base[w].lastUse < victim->lastUse) {
            victim = &base[w];
        }
    }
    if (victim->valid) {
        functionalEvictPage(*victim);
    }
    victim->valid = true;
    victim->tag = page_tag;
    victim->blocks.clear();
    victim->dirty = false;
    victim->lastUse = useClock++;
    return *victim;
}

void
DramCache::functionalEvictPage(Page &pg)
{
    const Cycle now = eq.now();
    const Addr base = pg.tag * cfg.pageBytes;
    if (index) {
        index->dirtyBlocksInRegion(base, indexBlocks);
        for (Addr a : indexBlocks) {
            index->clearDirty(a, /*account=*/false);
            if (obs) {
                obs->onBlockCleaned(a, now);
            }
        }
    } else if (pg.dirty) {
        pg.blocks.forEachSet([&](std::uint32_t idx) {
            const Addr a = base + static_cast<Addr>(idx) * kBlockBytes;
            if (obs) {
                obs->onBlockCleaned(a, now);
            }
        });
    }
    if (obs) {
        obs->onPageEvict(base, now);
    }
    pg.valid = false;
    pg.dirty = false;
    pg.blocks.clear();
}

void
DramCache::functionalMarkDirty(Addr block_addr)
{
    if (!index) {
        Page *pg = findPage(block_addr / cfg.pageBytes);
        pg->dirty = true;
        return;
    }
    index->setDirty(block_addr, indexBlocks, /*account=*/false);
    for (Addr a : indexBlocks) {
        if (obs) {
            obs->onBlockCleaned(a, eq.now());
        }
    }
}

bool
DramCache::probeResident(Addr block_addr) const
{
    const Page *pg = findPage(block_addr / cfg.pageBytes);
    return pg && pg->blocks.test(blockIndexOf(block_addr));
}

bool
DramCache::probeDirty(Addr block_addr) const
{
    if (index) {
        return index->probeDirty(block_addr);
    }
    const Page *pg = findPage(block_addr / cfg.pageBytes);
    return pg && pg->dirty && pg->blocks.test(blockIndexOf(block_addr));
}

std::uint64_t
DramCache::countValidBlocks() const
{
    std::uint64_t n = 0;
    for (const Page &pg : pages) {
        if (pg.valid) {
            n += pg.blocks.count();
        }
    }
    return n;
}

std::uint64_t
DramCache::countDirtyBlocks() const
{
    if (index) {
        return index->countDirtyBlocks();
    }
    std::uint64_t n = 0;
    for (const Page &pg : pages) {
        if (pg.valid && pg.dirty) {
            n += pg.blocks.count();
        }
    }
    return n;
}

void
DramCache::registerStats(StatSet &set)
{
    set.add("dcache.reads", statReads);
    set.add("dcache.readHits", statReadHits);
    set.add("dcache.writes", statWrites);
    set.add("dcache.writeHits", statWriteHits);
    set.add("dcache.fills", statFills);
    set.add("dcache.pageAllocs", statPageAllocs);
    set.add("dcache.pageEvictions", statPageEvictions);
    set.add("dcache.dirtyPageEvictions", statDirtyPageEvictions);
    set.add("dcache.ddrWrites", statDdrWrites);
    set.add("dcache.evictionWbs", statEvictionWbs);
    set.add("dcache.indexWbs", statIndexWbs);
    if (index) {
        set.add("dcache.index.evictions", index->statEvictions);
        set.add("dcache.index.evictionWbs", index->statEvictionWbs);
        set.add("dcache.index.inserts", index->statInserts);
        set.add("dcache.index.updates", index->statUpdates);
    }
}

} // namespace dbsim
