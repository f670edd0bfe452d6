#include "dbi.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dbsim {

Dbi::Dbi(const DbiConfig &config, std::uint64_t cache_blocks)
    : cfg(config), regionMap(config.granularity), rng(config.seed)
{
    fatal_if(cfg.alpha <= 0.0 || cfg.alpha > 1.0,
             "DBI alpha must be in (0, 1]");
    std::uint64_t tracked =
        static_cast<std::uint64_t>(cfg.alpha *
                                   static_cast<double>(cache_blocks));
    nEntries = tracked / cfg.granularity;
    fatal_if(nEntries == 0, "DBI too small: no entries");
    if (nEntries < cfg.assoc) {
        // Degenerate small configurations become fully associative.
        cfg.assoc = static_cast<std::uint32_t>(nEntries);
    }
    nEntries -= nEntries % cfg.assoc;
    std::uint64_t sets = nEntries / cfg.assoc;
    // Round the set count down to a power of two so tag bits are exact.
    while (!isPowerOf2(sets)) {
        sets &= sets - 1;
    }
    nSets = static_cast<std::uint32_t>(sets);
    nEntries = static_cast<std::uint64_t>(nSets) * cfg.assoc;
    entries.resize(nEntries);
    for (auto &e : entries) {
        e.dirty = BitVec(cfg.granularity);
    }
    regionTags.assign(entries.size(), kInvalidAddr);
}

void
Dbi::registerStats(StatSet &set)
{
    set.add("dbi.lookups", statLookups);
    set.add("dbi.updates", statUpdates);
    set.add("dbi.inserts", statInserts);
    set.add("dbi.evictions", statEvictions);
    set.add("dbi.evictionWbs", statEvictionWbs);
}

std::uint32_t
Dbi::setIndexOf(std::uint64_t region_tag) const
{
    return static_cast<std::uint32_t>(region_tag & (nSets - 1));
}

Dbi::Entry &
Dbi::at(std::uint32_t set, std::uint32_t way)
{
    return entries[static_cast<std::size_t>(set) * cfg.assoc + way];
}

const Dbi::Entry &
Dbi::at(std::uint32_t set, std::uint32_t way) const
{
    return entries[static_cast<std::size_t>(set) * cfg.assoc + way];
}

Dbi::Entry *
Dbi::findEntry(std::uint64_t region_tag)
{
    std::size_t base =
        static_cast<std::size_t>(setIndexOf(region_tag)) * cfg.assoc;
    const std::uint64_t *set_tags = regionTags.data() + base;
    for (std::uint32_t w = 0; w < cfg.assoc; ++w) {
        if (set_tags[w] == region_tag) {
            return &entries[base + w];
        }
    }
    return nullptr;
}

const Dbi::Entry *
Dbi::findEntry(std::uint64_t region_tag) const
{
    return const_cast<Dbi *>(this)->findEntry(region_tag);
}

bool
Dbi::isDirty(Addr block_addr) const
{
    ++const_cast<Dbi *>(this)->statLookups;
    const Entry *e = findEntry(regionMap.regionTag(block_addr));
    return e && e->dirty.test(regionMap.blockIndex(block_addr));
}

bool
Dbi::probeDirty(Addr block_addr) const
{
    const Entry *e = findEntry(regionMap.regionTag(block_addr));
    return e && e->dirty.test(regionMap.blockIndex(block_addr));
}

bool
Dbi::hasEntryFor(Addr block_addr) const
{
    return findEntry(regionMap.regionTag(block_addr)) != nullptr;
}

std::uint32_t
Dbi::victimWay(std::uint32_t set)
{
    switch (cfg.repl) {
      case DbiReplPolicy::MaxDirty:
      case DbiReplPolicy::MinDirty: {
        bool want_max = cfg.repl == DbiReplPolicy::MaxDirty;
        std::uint32_t best = 0;
        std::uint32_t best_count = at(set, 0).dirty.count();
        for (std::uint32_t w = 1; w < cfg.assoc; ++w) {
            std::uint32_t c = at(set, w).dirty.count();
            bool better = want_max ? (c > best_count) : (c < best_count);
            if (better) {
                best = w;
                best_count = c;
            }
        }
        return best;
      }
      case DbiReplPolicy::Rrip: {
        for (;;) {
            for (std::uint32_t w = 0; w < cfg.assoc; ++w) {
                if (at(set, w).rrpv >= kRrpvMax) {
                    return w;
                }
            }
            for (std::uint32_t w = 0; w < cfg.assoc; ++w) {
                ++at(set, w).rrpv;
            }
        }
      }
      case DbiReplPolicy::Lrw:
      case DbiReplPolicy::LrwBip:
      default: {
        std::uint32_t victim = 0;
        std::uint64_t oldest = kCycleMax;
        for (std::uint32_t w = 0; w < cfg.assoc; ++w) {
            if (at(set, w).lastWrite < oldest) {
                oldest = at(set, w).lastWrite;
                victim = w;
            }
        }
        return victim;
      }
    }
}

void
Dbi::drainEntry(std::size_t i, std::vector<Addr> &out) const
{
    out.clear();
    out.reserve(entries[i].dirty.count());
    entries[i].dirty.forEachSet([&](std::uint32_t idx) {
        out.push_back(regionMap.blockAddr(regionTags[i], idx));
    });
}

void
Dbi::setDirty(Addr block_addr, std::vector<Addr> &evicted, bool account)
{
    evicted.clear();
    if (account) {
        ++statUpdates;
    }
    std::uint64_t tag = regionMap.regionTag(block_addr);
    std::uint32_t bit = regionMap.blockIndex(block_addr);

    Entry *e = findEntry(tag);
    if (e) {
        if (!e->dirty.test(bit)) {
            e->dirty.set(bit);
            ++dirtyBits;
        }
        e->lastWrite = writeClock++;
        e->rrpv = 0;
        return;
    }

    // Allocate a new entry; find a free way or evict.
    std::uint32_t set = setIndexOf(tag);
    std::size_t base = static_cast<std::size_t>(set) * cfg.assoc;
    std::uint32_t way = cfg.assoc;
    for (std::uint32_t w = 0; w < cfg.assoc; ++w) {
        if (regionTags[base + w] == kInvalidAddr) {
            way = w;
            break;
        }
    }

    if (way == cfg.assoc) {
        way = victimWay(set);
        drainEntry(base + way, evicted);
        if (account) {
            ++statEvictions;
            statEvictionWbs += evicted.size();
        }
        dirtyBits -= evicted.size();
    }

    Entry &ne = entries[base + way];
    regionTags[base + way] = tag;
    ne.dirty.clear();
    ne.dirty.set(bit);
    ne.rrpv = kRrpvMax - 1;
    ++dirtyBits;
    if (account) {
        ++statInserts;
    }

    if (cfg.repl == DbiReplPolicy::LrwBip && !rng.chance(kBipEpsilon)) {
        ne.lastWrite = 0;  // insert at LRW position
    } else {
        ne.lastWrite = writeClock++;
    }
}

void
Dbi::clearDirty(Addr block_addr, bool account)
{
    if (account) {
        ++statUpdates;
    }
    Entry *e = findEntry(regionMap.regionTag(block_addr));
    if (!e) {
        return;
    }
    std::uint32_t bit = regionMap.blockIndex(block_addr);
    if (!e->dirty.test(bit)) {
        return;
    }
    e->dirty.reset(bit);
    --dirtyBits;
    if (e->dirty.none()) {
        // Free the entry for another DRAM row.
        regionTags[static_cast<std::size_t>(e - entries.data())] =
            kInvalidAddr;
    }
}

void
Dbi::dirtyBlocksInRegion(Addr block_addr, std::vector<Addr> &out) const
{
    ++const_cast<Dbi *>(this)->statLookups;
    const Entry *e = findEntry(regionMap.regionTag(block_addr));
    if (!e) {
        out.clear();
        return;
    }
    drainEntry(static_cast<std::size_t>(e - entries.data()), out);
}

bool
Dbi::rowHasDirty(Addr row_base_addr, const DramAddrMap &map) const
{
    ++const_cast<Dbi *>(this)->statLookups;
    // A DRAM row spans one or more DBI regions (granularity <= blocks
    // per row); check each region's entry.
    Addr base = map.rowBase(row_base_addr);
    for (std::uint32_t i = 0; i < map.blocksPerRow();
         i += cfg.granularity) {
        const Entry *e =
            findEntry(regionMap.regionTag(base +
                                          static_cast<Addr>(i) *
                                              kBlockBytes));
        if (e && e->dirty.any()) {
            return true;
        }
    }
    return false;
}

bool
Dbi::bankHasDirty(std::uint32_t bank, const DramAddrMap &map) const
{
    ++const_cast<Dbi *>(this)->statLookups;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const Entry &e = entries[i];
        if (regionTags[i] == kInvalidAddr || e.dirty.none()) {
            continue;
        }
        // Reconstruct each dirty block's address and ask the DRAM map
        // which bank it lives in. A region never has to fit inside one
        // DRAM row (granularity can exceed blocksPerRow), so per-block
        // translation is the only mapping that cannot drift from the
        // controller's own DramAddrMap::bank().
        bool hit = false;
        e.dirty.forEachSet([&](std::uint32_t idx) {
            if (!hit &&
                map.bank(regionMap.blockAddr(regionTags[i], idx)) == bank) {
                hit = true;
            }
        });
        if (hit) {
            return true;
        }
    }
    return false;
}

std::uint64_t
Dbi::countDirtyInRange(Addr base, std::uint64_t bytes) const
{
    if (bytes == 0) {
        return 0;
    }
    std::uint64_t region_bytes =
        static_cast<std::uint64_t>(cfg.granularity) * kBlockBytes;
    Addr start = base - base % region_bytes;
    std::uint64_t n = 0;
    for (Addr r = start; r < base + bytes; r += region_bytes) {
        std::uint64_t tag = regionMap.regionTag(r);
        const Entry *e = findEntry(tag);
        if (!e) {
            continue;
        }
        e->dirty.forEachSet([&](std::uint32_t idx) {
            Addr b = regionMap.blockAddr(tag, idx);
            if (b >= base && b < base + bytes) {
                ++n;
            }
        });
    }
    return n;
}

std::uint64_t
Dbi::countDirtyBlocks() const
{
    return dirtyBits;
}

std::uint64_t
Dbi::countValidEntries() const
{
    return static_cast<std::uint64_t>(
        entries.size() -
        std::count(regionTags.begin(), regionTags.end(), kInvalidAddr));
}

} // namespace dbsim
