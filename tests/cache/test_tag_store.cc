/**
 * @file
 * Unit and property tests for the set-associative tag store. The
 * binary links tests/support/alloc_counter.cc, so the footprint tests
 * measure what a TagStore really allocates.
 */

#include <gtest/gtest.h>

#include <set>

#include "cache/tag_store.hh"
#include "common/rng.hh"
#include "support/alloc_counter.hh"

namespace dbsim {
namespace {

CacheGeometry
smallLru()
{
    // 4KB, 4-way, 64B blocks -> 16 sets.
    return CacheGeometry{4096, 4, ReplPolicy::Lru, 1, 5};
}

Addr
addrForSet(std::uint32_t set, std::uint32_t i, std::uint32_t num_sets = 16)
{
    return (static_cast<Addr>(i) * num_sets + set) * kBlockBytes;
}

TEST(TagStore, InsertAndFind)
{
    TagStore ts(smallLru());
    EXPECT_FALSE(ts.contains(0x1000));
    auto ev = ts.insert(0x1000, 0, false);
    EXPECT_FALSE(ev.valid);
    EXPECT_TRUE(ts.contains(0x1000));
    EXPECT_TRUE(ts.contains(0x1004));  // same block, sub-block address
    EXPECT_FALSE(ts.contains(0x1040));
}

TEST(TagStore, LruEvictsOldest)
{
    TagStore ts(smallLru());
    for (std::uint32_t i = 0; i < 4; ++i) {
        ts.insert(addrForSet(3, i), 0, false);
    }
    // Touch the oldest so the second-oldest becomes the victim.
    ts.touch(addrForSet(3, 0), 0);
    auto ev = ts.insert(addrForSet(3, 4), 0, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.block, addrForSet(3, 1));
}

TEST(TagStore, EvictionReportsDirty)
{
    TagStore ts(smallLru());
    for (std::uint32_t i = 0; i < 4; ++i) {
        ts.insert(addrForSet(1, i), 0, false);
    }
    ts.markDirty(addrForSet(1, 0));
    auto ev = ts.insert(addrForSet(1, 4), 0, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.block, addrForSet(1, 0));
    EXPECT_TRUE(ev.dirty);
}

TEST(TagStore, DirtyBitRoundTrip)
{
    TagStore ts(smallLru());
    ts.insert(0x2000, 0, false);
    EXPECT_FALSE(ts.isDirty(0x2000));
    ts.markDirty(0x2000);
    EXPECT_TRUE(ts.isDirty(0x2000));
    ts.markClean(0x2000);
    EXPECT_FALSE(ts.isDirty(0x2000));
}

TEST(TagStore, InsertWithDirtyFlag)
{
    TagStore ts(smallLru());
    ts.insert(0x3000, 0, true);
    EXPECT_TRUE(ts.isDirty(0x3000));
    EXPECT_EQ(ts.countDirty(), 1u);
}

TEST(TagStore, ProbeReportsHitSlotOrFillSlot)
{
    TagStore ts(smallLru());
    ts.insert(addrForSet(2, 0), 0, false);
    ts.insert(addrForSet(2, 1), 0, false);
    ts.invalidate(addrForSet(2, 0));  // a hole before a resident block

    TagStore::Probe hit = ts.probe(addrForSet(2, 1) + 8);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.block, addrForSet(2, 1));
    EXPECT_EQ(ts.blockAt(hit.slot), addrForSet(2, 1));

    // A miss names the first free way, even ahead of a resident block.
    TagStore::Probe miss = ts.probe(addrForSet(2, 2));
    EXPECT_FALSE(miss.hit);
    EXPECT_EQ(miss.slot, ts.slotOf(2, 0));
    ts.fill(miss, 0, true);
    EXPECT_EQ(ts.blockAt(ts.slotOf(2, 0)), addrForSet(2, 2));
    EXPECT_TRUE(ts.isDirty(addrForSet(2, 2)));

    ts.insert(addrForSet(2, 3), 0, false);
    ts.insert(addrForSet(2, 4), 0, false);
    EXPECT_EQ(ts.probe(addrForSet(2, 5)).slot, TagStore::kNoSlot);  // full
}

TEST(TagStoreDeathTest, InsertOfResidentBlockPanics)
{
    // The resident-block check shares insert()'s single set scan; a
    // duplicate insert must still stop the simulator, including when
    // the copy sits behind a free way.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            TagStore ts(smallLru());
            ts.insert(0x5000, 0, false);
            ts.insert(0x5000 + 8, 0, false);
        },
        "insert of resident block 5000");
    EXPECT_DEATH(
        {
            TagStore ts(smallLru());
            ts.insert(addrForSet(6, 0), 0, false);
            ts.insert(addrForSet(6, 1), 0, false);
            ts.invalidate(addrForSet(6, 0));
            ts.insert(addrForSet(6, 1), 0, false);
        },
        "insert of resident block");
}

TEST(TagStore, InvalidateRemoves)
{
    TagStore ts(smallLru());
    ts.insert(0x4000, 0, true);
    ts.invalidate(0x4000);
    EXPECT_FALSE(ts.contains(0x4000));
    EXPECT_EQ(ts.countDirty(), 0u);
}

TEST(TagStore, LruRankOrdersByRecency)
{
    TagStore ts(smallLru());
    for (std::uint32_t i = 0; i < 4; ++i) {
        ts.insert(addrForSet(2, i), 0, false);
    }
    EXPECT_EQ(ts.lruRank(addrForSet(2, 0)), 0u);
    EXPECT_EQ(ts.lruRank(addrForSet(2, 3)), 3u);
    ts.touch(addrForSet(2, 0), 0);
    EXPECT_EQ(ts.lruRank(addrForSet(2, 0)), 3u);
    EXPECT_EQ(ts.lruRank(addrForSet(2, 1)), 0u);
}

TEST(TagStore, AnyDirtyInLruWays)
{
    TagStore ts(smallLru());
    for (std::uint32_t i = 0; i < 4; ++i) {
        ts.insert(addrForSet(5, i), 0, false);
    }
    // Dirty the MRU block only: not visible in the 2 LRU ways.
    ts.markDirty(addrForSet(5, 3));
    EXPECT_FALSE(ts.anyDirtyInLruWays(5, 2));
    EXPECT_TRUE(ts.anyDirtyInLruWays(5, 4));
    ts.markDirty(addrForSet(5, 0));
    EXPECT_TRUE(ts.anyDirtyInLruWays(5, 2));
}

TEST(TagStore, StatsCountHitsAndMisses)
{
    TagStore ts(smallLru());
    ts.insert(0x5000, 0, false);
    ts.touch(0x5000, 0);
    ts.touch(0x5000, 0);
    EXPECT_EQ(ts.statHits.value(), 2u);
    EXPECT_EQ(ts.statMisses.value(), 1u);
}

/** Property: contents always match a model set under random ops. */
TEST(TagStore, PropertyMatchesReferenceModel)
{
    TagStore ts(smallLru());
    Rng rng(77);
    std::set<Addr> model;
    for (int op = 0; op < 5000; ++op) {
        Addr a = blockAlign(rng.below(1 << 16));
        if (ts.contains(a)) {
            ts.touch(a, 0);
            ASSERT_TRUE(model.count(a));
        } else {
            auto ev = ts.insert(a, 0, rng.chance(0.3));
            model.insert(a);
            if (ev.valid) {
                ASSERT_TRUE(model.count(ev.block));
                model.erase(ev.block);
            }
        }
        ASSERT_LE(model.size(), 64u);  // capacity bound
    }
    for (Addr a : model) {
        ASSERT_TRUE(ts.contains(a));
    }
}

// --- TA-DIP behaviour ---

TEST(TagStoreDip, BimodalLeaderSetsInsertAtLru)
{
    CacheGeometry geo{64 * 1024, 4, ReplPolicy::TaDip, 1, 5};
    TagStore ts(geo);  // 256 sets
    // Set 1 is thread 0's bimodal leader (slot == 2*0+1).
    std::uint32_t set = 1;
    int bimodal_count = 0;
    for (std::uint32_t i = 0; i < 200; ++i) {
        ts.insert(addrForSet(set, i, ts.numSets()), 0, false);
        if (ts.lastInsertUsedBimodal()) {
            ++bimodal_count;
        }
    }
    // BIP inserts at LRU except with probability 1/64.
    EXPECT_GT(bimodal_count, 150);
}

TEST(TagStoreDip, PrimaryLeaderSetsNeverBimodal)
{
    CacheGeometry geo{64 * 1024, 4, ReplPolicy::TaDip, 1, 5};
    TagStore ts(geo);
    std::uint32_t set = 0;  // thread 0's primary (LRU) leader
    for (std::uint32_t i = 0; i < 100; ++i) {
        ts.insert(addrForSet(set, i, ts.numSets()), 0, false);
        EXPECT_FALSE(ts.lastInsertUsedBimodal());
    }
}

TEST(TagStoreDip, ThrashingWorkloadFlipsToBip)
{
    // A cyclic working set larger than the cache: LRU leader sets miss
    // every access, pushing PSEL toward BIP in follower sets.
    CacheGeometry geo{64 * 1024, 4, ReplPolicy::TaDip, 1, 5};
    TagStore ts(geo);
    std::uint32_t sets = ts.numSets();
    for (int round = 0; round < 30; ++round) {
        for (std::uint32_t i = 0; i < 8; ++i) {  // 8 > 4 ways: thrash
            Addr a = addrForSet(0, i, sets);     // LRU leader set
            if (ts.contains(a)) {
                ts.touch(a, 0);
            } else {
                ts.insert(a, 0, false);
            }
        }
    }
    // Now a follower set should use bimodal insertion most of the time.
    int bimodal = 0;
    for (std::uint32_t i = 0; i < 64; ++i) {
        ts.insert(addrForSet(40, i, sets), 0, false);  // follower set
        if (ts.lastInsertUsedBimodal()) {
            ++bimodal;
        }
    }
    EXPECT_GT(bimodal, 48);
}

// --- DRRIP behaviour ---

TEST(TagStoreDrrip, VictimHasMaxRrpv)
{
    CacheGeometry geo{4096, 4, ReplPolicy::Drrip, 1, 5};
    TagStore ts(geo);
    for (std::uint32_t i = 0; i < 4; ++i) {
        ts.insert(addrForSet(7, i), 0, false);
    }
    // Promote one block; it must survive the next two insertions.
    ts.touch(addrForSet(7, 2), 0);
    ts.insert(addrForSet(7, 4), 0, false);
    ts.insert(addrForSet(7, 5), 0, false);
    EXPECT_TRUE(ts.contains(addrForSet(7, 2)));
}

// --- Layout-independence: pinned digest of a random op stream ---

/** FNV-1a over 64-bit words. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
};

/**
 * Drive a seeded stream of every mutating op and every query through a
 * tag store and digest each observable outcome: hit/miss, every
 * Eviction, the bimodal-insert flag, isDirty, lruRank,
 * anyDirtyInLruWays, and countDirty() after every op. Any change to
 * the store's storage layout must leave this digest unchanged.
 */
std::uint64_t
opStreamDigest(const CacheGeometry &geo, int ops)
{
    TagStore ts(geo);
    Rng rng(geo.seed * 7919 + static_cast<std::uint64_t>(geo.repl));
    Digest d;
    // Three times the capacity: a mix of hits, misses and evictions.
    const std::uint64_t span = ts.numBlocks() * 3;
    for (int op = 0; op < ops; ++op) {
        Addr a = rng.below(span) * kBlockBytes;
        auto thread = static_cast<std::uint32_t>(rng.below(geo.numThreads));
        std::uint64_t kind = rng.below(16);
        bool present = ts.contains(a);
        d.add(present);
        if (kind < 8) {
            if (present) {
                ts.touch(a, thread);
            } else {
                auto ev = ts.insert(a, thread, rng.chance(0.3));
                d.add(ev.valid);
                d.add(ev.block);
                d.add(ev.dirty);
                d.add(ts.lastInsertUsedBimodal());
            }
        } else if (kind < 10) {
            if (present) {
                ts.markDirty(a);
            }
        } else if (kind < 11) {
            if (present) {
                ts.markClean(a);
            }
        } else if (kind < 12) {
            ts.invalidate(a);
        } else if (kind < 14) {
            if (present) {
                d.add(ts.lruRank(a));
                d.add(ts.isDirty(a));
            }
        } else {
            auto ways =
                1 + static_cast<std::uint32_t>(rng.below(geo.assoc));
            d.add(ts.anyDirtyInLruWays(ts.setIndex(a), ways));
        }
        d.add(ts.countDirty());
    }
    d.add(ts.statHits.value());
    d.add(ts.statMisses.value());
    d.add(ts.statEvictions.value());
    return d.h;
}

struct DigestCase
{
    ReplPolicy repl;
    std::uint64_t small;  ///< 4 KB, 4-way, 1 thread
    std::uint64_t large;  ///< 2 MB, 16-way, 4 threads
};

TEST(TagStoreLayout, OpStreamDigestIsPinned)
{
    // Pinned on the array-of-structs tag store that predates the
    // single-copy layout; every later layout must reproduce them.
    const DigestCase cases[] = {
        {ReplPolicy::Lru, 0xbdccf108d60eb3a8ull, 0x5346ac3873b13b00ull},
        {ReplPolicy::TaDip, 0xd8f9a2843652b62cull, 0x15241f06bcefcbd5ull},
        {ReplPolicy::Drrip, 0xffd7468785be58aeull, 0xc32ad1771ba4aad0ull},
        {ReplPolicy::Random, 0xdb04384d8856f88dull, 0xd7d5fef7ad5749aeull},
    };
    for (const DigestCase &c : cases) {
        SCOPED_TRACE(static_cast<int>(c.repl));
        std::uint64_t small =
            opStreamDigest(CacheGeometry{4096, 4, c.repl, 1, 5}, 20'000);
        std::uint64_t large = opStreamDigest(
            CacheGeometry{2ull << 20, 16, c.repl, 4, 11}, 200'000);
        EXPECT_EQ(small, c.small);
        EXPECT_EQ(large, c.large);
    }
}

TEST(TagStoreLayout, HeapBytesPerBlockOnSliced64cLlc)
{
    // One LLC slice of the 64-core, 4-slice machine: 128 MB / 4 slices,
    // 32-way TA-DIP with a policy selector per core. Besides the
    // 18 bytes per block, only the per-thread selectors are allowed.
    CacheGeometry geo{(128ull << 20) / 4, 32, ReplPolicy::TaDip, 64, 1};
    std::uint64_t before = test::heapBytes();
    TagStore ts(geo);
    std::uint64_t bytes = test::heapBytes() - before;
    EXPECT_EQ(ts.numBlocks(), 524'288u);
    EXPECT_LE(bytes, 18 * ts.numBlocks() + 1024);
}

TEST(TagStoreLayout, QueriesDoNotAllocate)
{
    TagStore ts(CacheGeometry{2ull << 20, 16, ReplPolicy::TaDip, 4, 3});
    Rng rng(9);
    for (int i = 0; i < 100'000; ++i) {
        Addr a = rng.below(ts.numBlocks() * 2) * kBlockBytes;
        if (!ts.contains(a)) {
            ts.insert(a, static_cast<std::uint32_t>(i % 4), i % 3 == 0);
        }
    }
    std::uint64_t before = test::heapAllocs();
    bool any = false;
    for (std::uint32_t set = 0; set < ts.numSets(); ++set) {
        any |= ts.anyDirtyInLruWays(set, 4);
        Addr b = ts.blockAt(ts.slotOf(set, 0));
        any |= b != kInvalidAddr && ts.lruRank(b) < 4;
    }
    EXPECT_TRUE(any);
    EXPECT_EQ(test::heapAllocs(), before);
}

TEST(TagStoreRandom, EvictsSomethingValid)
{
    CacheGeometry geo{4096, 4, ReplPolicy::Random, 1, 5};
    TagStore ts(geo);
    for (std::uint32_t i = 0; i < 4; ++i) {
        ts.insert(addrForSet(7, i), 0, false);
    }
    auto ev = ts.insert(addrForSet(7, 9), 0, false);
    EXPECT_TRUE(ev.valid);
}

} // namespace
} // namespace dbsim
