/**
 * @file
 * Host-side profiling primitives shared by the simulation kernel and
 * the telemetry-layer HostProfiler.
 *
 * The kernel cannot depend on src/telemetry, so the pieces the
 * EventQueue needs — the component tag an event is attributed to and
 * the per-queue accumulation slab — live here in src/common. The
 * aggregation/reporting half (telemetry::HostProfiler) builds on top.
 *
 * Attribution scheme: CbOps vtables are 8-byte aligned, so the low
 * three bits of EventNode::ops are free. When (and only when) a
 * QueueProfile is attached to a queue, schedule() folds the caller's
 * Comp tag into those bits and step() masks it back out, timing the
 * callback with a steady clock and charging the nanoseconds to the
 * tagged component. With no profile attached the tag bits are never
 * written, so the mask is a no-op and the dispatch path is one
 * predictable branch away from the unprofiled build; with
 * DBSIM_TELEMETRY off the hooks compile away entirely.
 */

#ifndef DBSIM_COMMON_PROF_HH
#define DBSIM_COMMON_PROF_HH

#include <chrono>
#include <cstddef>
#include <cstdint>

namespace dbsim::prof {

#ifdef DBSIM_TELEMETRY
inline constexpr bool kEnabled = true;
#else
inline constexpr bool kEnabled = false;
#endif

/**
 * Component an event's dispatch time is charged to: the component that
 * *scheduled* the event (so a fabric-delivered callback is charged to
 * Fabric even though it runs LLC or core code — the cost of cross-shard
 * traffic is exactly what the profiler exists to expose).
 */
enum Comp : std::uint8_t {
    Other = 0,
    Core = 1,
    Llc = 2,
    Dram = 3,
    Fabric = 4,
};

inline constexpr std::size_t kNumComps = 5;

/** Low-bit mask carrying the Comp tag inside a CbOps pointer. */
inline constexpr std::uintptr_t kCompMask = 0x7;
static_assert(kNumComps <= kCompMask + 1, "Comp must fit in 3 bits");

inline const char *
compName(std::size_t c)
{
    switch (c) {
      case Core: return "core";
      case Llc: return "llc";
      case Dram: return "dram";
      case Fabric: return "fabric";
      default: return "other";
    }
}

/** Monotonic host time in nanoseconds. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Per-queue dispatch accounting. Slots are sized to the full 3-bit tag
 * space so a masked value can never index out of bounds.
 */
struct QueueProfile
{
    std::uint64_t ns[kCompMask + 1] = {};
    std::uint64_t events[kCompMask + 1] = {};

    void
    record(std::uintptr_t comp, std::uint64_t delta_ns)
    {
        ns[comp] += delta_ns;
        ++events[comp];
    }
};

} // namespace dbsim::prof

#endif // DBSIM_COMMON_PROF_HH
