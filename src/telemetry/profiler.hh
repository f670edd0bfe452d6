/**
 * @file
 * HostProfiler: wall-clock attribution for one System run. Answers
 * "where does host time go?" per shard: event dispatch split by
 * component (via the prof::QueueProfile tag bits in the kernel),
 * epoch stall (the rest of each epoch iteration: the other shards'
 * epochs, fabric drain and milestones), and barrier-time fabric drain
 * — plus per-epoch occupancy counters (events dispatched per shard per
 * epoch, as a Histogram).
 *
 * Clock discipline: all measurements use the host steady clock. Work
 * spans and dispatch times are taken around the measured queue; stall,
 * fabric drain and occupancy are recorded at the epoch barrier.
 * Nothing here reads or writes simulated state, so profiling
 * cannot perturb the simulation; it only adds host time, which is why
 * profiled runs bypass the result cache and are never used for
 * perf-gate timing.
 *
 * The accounting identity the checker validates: for every shard,
 *   workNs + stallNs  ≈  engine loop wall time  ≈  runNs
 * holds by measurement (work and stall are measured against the same
 * per-iteration span), not by construction from the parts.
 */

#ifndef DBSIM_TELEMETRY_PROFILER_HH
#define DBSIM_TELEMETRY_PROFILER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/prof.hh"
#include "telemetry/histogram.hh"

namespace dbsim::telemetry {

class HostProfiler
{
  public:
    explicit HostProfiler(std::uint32_t num_shards);

    std::uint32_t numShards() const { return numShards_; }

    /** The kernel-facing accumulation slab for shard `s`'s queue. */
    prof::QueueProfile *queueProfile(std::uint32_t s);

    /** Bracket the whole engine run (wall time). */
    void beginRun();
    void endRun();

    /**
     * One epoch (or, for the single-queue engine, the whole run) of
     * shard `s`: the measured work span and the events dispatched in
     * it. Called at the barrier, no epoch executing.
     */
    void recordEpoch(std::uint32_t s, std::uint64_t work_ns,
                     std::uint64_t events);

    /** Barrier stall charged to shard `s` for the current epoch. */
    void recordStall(std::uint32_t s, std::uint64_t stall_ns);

    /** Barrier-time fabric delivery (not per shard). */
    void addFabricDrain(std::uint64_t ns);

    /**
     * The flat metrics block surfaced as SimResult::hostProfile /
     * JSONL "host" entries ("profile." prefix added by the callers).
     * Host wall-clock derived, therefore non-deterministic.
     */
    std::map<std::string, double> metrics() const;

    /**
     * Render a metrics block (as produced by metrics(), without any
     * added prefix) as a fixed-width table for terminal output.
     */
    static std::string formatTable(const std::map<std::string, double> &m);

  private:
    struct Lane
    {
        prof::QueueProfile qp;
        std::uint64_t workNs = 0;
        std::uint64_t stallNs = 0;
        std::uint64_t epochs = 0;
        std::uint64_t idleEpochs = 0;  ///< epochs with zero dispatches
        std::uint64_t events = 0;
        Histogram eventsPerEpoch{"eventsPerEpoch"};
    };

    std::uint32_t numShards_;
    std::vector<Lane> lanes;
    std::uint64_t fabricDrainNs = 0;
    std::uint64_t runStartNs = 0;
    std::uint64_t runNs = 0;
};

} // namespace dbsim::telemetry

#endif // DBSIM_TELEMETRY_PROFILER_HH
