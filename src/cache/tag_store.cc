#include "tag_store.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace dbsim {

TagStore::TagStore(const CacheGeometry &geometry)
    : geo(geometry), rng(geometry.seed)
{
    fatal_if(geo.sizeBytes % (static_cast<std::uint64_t>(geo.assoc) *
                              kBlockBytes) != 0,
             "cache size not divisible by assoc * block size");
    std::uint64_t sets =
        geo.sizeBytes / (static_cast<std::uint64_t>(geo.assoc) *
                         kBlockBytes);
    fatal_if(!isPowerOf2(sets), "set count must be a power of two");
    nSets = static_cast<std::uint32_t>(sets);
    fatal_if(geo.numThreads == 0, "need at least one thread");
    psel.assign(geo.numThreads, kPselInit);

    // One slab, not three arrays: see DESIGN.md §11.2 for the measured
    // setup-time cost of separate allocations.
    const std::size_t n = numBlocks();
    constexpr std::size_t kBytesPerBlock =
        sizeof(Addr) + sizeof(std::uint64_t) + sizeof(Meta);
    static_assert(kBytesPerBlock == 18);
    slab.reset(new std::byte[n * kBytesPerBlock]);
    tags = reinterpret_cast<Addr *>(slab.get());
    touches = reinterpret_cast<std::uint64_t *>(tags + n);
    meta = reinterpret_cast<Meta *>(touches + n);
    // kInvalidAddr is all-ones, so the tag fill is a memset too: the
    // library's, not a compiled store loop, sets the construction cost.
    static_assert(kInvalidAddr == ~Addr{0});
    std::memset(tags, 0xff, n * sizeof(Addr));
    std::uninitialized_fill_n(touches, n, std::uint64_t{0});
    std::uninitialized_fill_n(meta, n, Meta{});
}

std::uint32_t
TagStore::setIndex(Addr block_addr) const
{
    return static_cast<std::uint32_t>(blockNumber(block_addr) &
                                      (nSets - 1));
}

TagStore::Slot
TagStore::find(Addr block_addr) const
{
    Addr a = blockAlign(block_addr);
    Slot base = slotOf(setIndex(a), 0);
    for (std::uint32_t w = 0; w < geo.assoc; ++w) {
        if (tags[base + w] == a) {
            return base + w;
        }
    }
    return kNoSlot;
}

TagStore::Probe
TagStore::probe(Addr block_addr) const
{
    Addr a = blockAlign(block_addr);
    Slot base = slotOf(setIndex(a), 0);
    Slot free = kNoSlot;
    for (std::uint32_t w = 0; w < geo.assoc; ++w) {
        Addr t = tags[base + w];
        if (t == a) {
            return Probe{a, base + w, true};
        }
        if (t == kInvalidAddr && free == kNoSlot) {
            free = base + w;
        }
    }
    return Probe{a, free, false};
}

void
TagStore::touch(Addr block_addr, std::uint32_t thread)
{
    (void)thread;
    Slot s = find(block_addr);
    panic_if(s == kNoSlot, "touch of absent block");
    touchSlot(s);
}

void
TagStore::touchSlot(Slot s)
{
    touches[s] = touchClock++;
    meta[s].rrpv = 0;  // RRIP hit promotion: near-immediate re-reference
    ++statHits;
}

TagStore::LeaderKind
TagStore::leaderKind(std::uint32_t set, std::uint32_t thread) const
{
    if (geo.repl != ReplPolicy::TaDip && geo.repl != ReplPolicy::Drrip) {
        return LeaderKind::None;
    }
    // Constituency-based leader selection: 32 primary-policy leader sets
    // and 32 bimodal leader sets per thread, spread across the cache.
    std::uint32_t slot = set & 63;  // 64 leader slots per 64-set region
    if (slot == 2 * thread) {
        return LeaderKind::Primary;
    }
    if (slot == 2 * thread + 1) {
        return LeaderKind::Bimodal;
    }
    return LeaderKind::None;
}

bool
TagStore::useBimodal(std::uint32_t set, std::uint32_t thread)
{
    if (thread >= psel.size()) {
        thread = 0;
    }
    switch (leaderKind(set, thread)) {
      case LeaderKind::Primary:
        // A miss in a primary-policy leader set votes against it.
        if (psel[thread] < kPselMax) {
            ++psel[thread];
        }
        return false;
      case LeaderKind::Bimodal:
        if (psel[thread] > 0) {
            --psel[thread];
        }
        return true;
      case LeaderKind::None:
        break;
    }
    return psel[thread] >= kPselInit;
}

std::uint32_t
TagStore::victimWay(std::uint32_t set)
{
    switch (geo.repl) {
      case ReplPolicy::Random:
        return static_cast<std::uint32_t>(rng.below(geo.assoc));
      case ReplPolicy::Drrip: {
        // Find an RRPV==max entry, aging the set until one appears.
        Meta *set_meta = meta + slotOf(set, 0);
        for (;;) {
            for (std::uint32_t w = 0; w < geo.assoc; ++w) {
                if (set_meta[w].rrpv >= kRrpvMax) {
                    return w;
                }
            }
            for (std::uint32_t w = 0; w < geo.assoc; ++w) {
                ++set_meta[w].rrpv;
            }
        }
      }
      case ReplPolicy::Lru:
      case ReplPolicy::TaDip:
      default: {
        // First-minimum in way order (the tie-break matters: BIP
        // inserts park at touch time 0).
        const std::uint64_t *set_touches = touches + slotOf(set, 0);
        std::uint32_t victim = 0;
        std::uint64_t oldest = kCycleMax;
        for (std::uint32_t w = 0; w < geo.assoc; ++w) {
            if (set_touches[w] < oldest) {
                oldest = set_touches[w];
                victim = w;
            }
        }
        return victim;
      }
    }
}

TagStore::Eviction
TagStore::insert(Addr block_addr, std::uint32_t thread, bool dirty)
{
    Probe p = probe(block_addr);
    panic_if(p.hit, "insert of resident block %llx",
             static_cast<unsigned long long>(p.block));
    return fill(p, thread, dirty);
}

TagStore::Eviction
TagStore::fill(const Probe &p, std::uint32_t thread, bool dirty)
{
    ++statMisses;
    ++statInsertions;

    std::uint32_t set = setIndex(p.block);
    Slot base = slotOf(set, 0);
    std::uint32_t way = p.slot == kNoSlot
                            ? geo.assoc
                            : static_cast<std::uint32_t>(p.slot - base);

    Eviction ev;
    if (way == geo.assoc) {
        way = victimWay(set);
        ev = Eviction{true, tags[base + way], meta[base + way].dirty};
        ++statEvictions;
    }

    Slot s = base + way;
    Meta &m = meta[s];
    nDirty -= static_cast<std::uint64_t>(m.dirty);
    nDirty += static_cast<std::uint64_t>(dirty);
    tags[s] = p.block;
    m.dirty = dirty;

    bool bimodal = useBimodal(set, thread);
    lastBimodal = false;
    switch (geo.repl) {
      case ReplPolicy::TaDip:
        if (bimodal && !rng.chance(kBipEpsilon)) {
            // BIP: insert at LRU position (touch time 0 = oldest).
            touches[s] = 0;
            lastBimodal = true;
        } else {
            touches[s] = touchClock++;
        }
        m.rrpv = kRrpvMax - 1;
        break;
      case ReplPolicy::Drrip:
        if (bimodal && !rng.chance(kBrripEpsilon)) {
            m.rrpv = kRrpvMax;  // BRRIP: distant re-reference
            lastBimodal = true;
        } else {
            m.rrpv = kRrpvMax - 1;  // SRRIP: long re-reference
        }
        touches[s] = touchClock++;
        break;
      case ReplPolicy::Lru:
      case ReplPolicy::Random:
      default:
        touches[s] = touchClock++;
        m.rrpv = kRrpvMax - 1;
        break;
    }
    return ev;
}

void
TagStore::invalidate(Addr block_addr)
{
    Slot s = find(block_addr);
    if (s != kNoSlot) {
        setSlotDirty(s, false);
        tags[s] = kInvalidAddr;
    }
}

void
TagStore::markDirty(Addr block_addr)
{
    Slot s = find(block_addr);
    panic_if(s == kNoSlot, "markDirty of absent block");
    setSlotDirty(s, true);
}

void
TagStore::markClean(Addr block_addr)
{
    Slot s = find(block_addr);
    panic_if(s == kNoSlot, "markClean of absent block");
    setSlotDirty(s, false);
}

bool
TagStore::isDirty(Addr block_addr) const
{
    Slot s = find(block_addr);
    panic_if(s == kNoSlot, "isDirty of absent block");
    return meta[s].dirty;
}

std::uint32_t
TagStore::olderInSet(Slot s) const
{
    Slot base = s - s % geo.assoc;
    std::uint32_t older = 0;
    for (Slot o = base; o < base + geo.assoc; ++o) {
        if (tags[o] != kInvalidAddr && touches[o] < touches[s]) {
            ++older;
        }
    }
    return older;
}

std::uint32_t
TagStore::lruRank(Addr block_addr) const
{
    Slot s = find(block_addr);
    panic_if(s == kNoSlot, "lruRank of absent block");
    return olderInSet(s);
}

bool
TagStore::anyDirtyInLruWays(std::uint32_t set, std::uint32_t ways) const
{
    // A valid block is within the `ways` LRU-most (ties sharing a
    // position) iff fewer than `ways` valid blocks are older than it.
    Slot base = slotOf(set, 0);
    for (Slot s = base; s < base + geo.assoc; ++s) {
        if (meta[s].dirty && olderInSet(s) < ways) {
            return true;
        }
    }
    return false;
}

} // namespace dbsim
