#include "topology.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dbsim {

namespace {

std::uint32_t
floorPow2(std::uint32_t v)
{
    std::uint32_t p = 1;
    while (p * 2 <= v) {
        p *= 2;
    }
    return p;
}

} // namespace

ShardTopology
resolveTopology(const TopologySpec &spec)
{
    fatal_if(spec.numCores == 0, "need at least one core");

    fatal_if(!isPowerOf2(spec.rowBytes) || spec.rowBytes < kBlockBytes,
             "dram.rowBytes (%llu) must be a power-of-two multiple of the "
             "block size",
             static_cast<unsigned long long>(spec.rowBytes));

    ShardTopology t;
    t.rowBytes = spec.rowBytes;

    // Slices: Table-1-style derivation. Small machines (the paper's
    // 1-8 core configurations) keep the single monolithic LLC; bigger
    // machines get one slice per 16 cores, so the 64-core north-star
    // config resolves to 4 slices.
    t.slices = spec.llcSlices ? spec.llcSlices
                              : (spec.numCores <= 8
                                     ? 1
                                     : floorPow2(std::max(
                                           1u, spec.numCores / 16)));

    // Channels: one per LLC slice unless configured explicitly.
    t.channels = spec.dramChannels ? spec.dramChannels : t.slices;

    t.partitions = std::max(t.slices, t.channels);

    // Hop latency: the NUCA cross-slice / cross-channel interconnect
    // hop, which doubles as the epoch lookahead. Unsharded machines
    // have no hop at all (everything is a direct call).
    t.hopLatency =
        spec.hopLatency ? spec.hopLatency : (t.sharded() ? 64 : 0);

    // -- Cross-axis validation: every combination checked here --------
    fatal_if(!isPowerOf2(t.slices) || t.slices > 64,
             "llcSlices (%u) must be a power of two in [1,64]", t.slices);
    fatal_if(!isPowerOf2(t.channels) || t.channels > 64,
             "dram.channels (%u) must be a power of two in [1,64]",
             t.channels);
    fatal_if(t.slices > 1 && spec.llcTotalBytes % t.slices != 0,
             "LLC capacity %llu is not divisible into %u slices",
             static_cast<unsigned long long>(spec.llcTotalBytes),
             t.slices);
    std::uint64_t slice_bytes = spec.llcTotalBytes / t.slices;
    fatal_if(slice_bytes < std::uint64_t(spec.llcAssoc) * kBlockBytes,
             "an LLC slice of %llu bytes cannot hold one %u-way set",
             static_cast<unsigned long long>(slice_bytes), spec.llcAssoc);
    if (spec.dcachePageBytes != 0) {
        fatal_if(!isPowerOf2(spec.dcachePageBytes) ||
                 spec.dcachePageBytes < kBlockBytes,
                 "dcache.pageBytes (%llu) must be a power of two >= one "
                 "block",
                 static_cast<unsigned long long>(spec.dcachePageBytes));
        fatal_if(spec.dcachePageBytes > spec.rowBytes ||
                 spec.rowBytes % spec.dcachePageBytes != 0,
                 "dcache.pageBytes (%llu) must divide dram.rowBytes "
                 "(%llu): slices and channels interleave at DRAM-row "
                 "granularity, so a coarser page would straddle the "
                 "slice/channel interleave",
                 static_cast<unsigned long long>(spec.dcachePageBytes),
                 static_cast<unsigned long long>(spec.rowBytes));
    }
    fatal_if(t.sharded() && t.hopLatency < 1,
             "a sliced machine needs hopLatency >= 1 (the epoch window)");
    fatal_if(!t.sharded() && spec.hopLatency != 0,
             "hopLatency is set but the machine has one slice and one "
             "channel; nothing ever crosses a shard boundary");
    return t;
}

} // namespace dbsim
