/**
 * @file
 * HostProfiler: wall-clock attribution for one System run. Answers
 * "where does host time go?": the engine loop's work span, split into
 * event dispatch by component (via the prof::QueueProfile tag bits in
 * the kernel) and the kernel's own share (work minus dispatch).
 *
 * Clock discipline: all measurements use the host steady clock, taken
 * around the one measured queue. Nothing here reads or writes simulated
 * state, so profiling cannot perturb the simulation; it only adds host
 * time, which is why profiled runs bypass the result cache and are
 * never used for perf-gate timing.
 *
 * The accounting identity the checker validates:
 *   s0.workMs  ≈  runMs
 * holds by measurement (the engine loop against the whole run), so the
 * gap is only setup and teardown around the loop.
 */

#ifndef DBSIM_TELEMETRY_PROFILER_HH
#define DBSIM_TELEMETRY_PROFILER_HH

#include <cstdint>
#include <map>
#include <string>

#include "common/prof.hh"

namespace dbsim::telemetry {

class HostProfiler
{
  public:
    /** The kernel-facing accumulation slab for the machine's queue. */
    prof::QueueProfile *queueProfile() { return &qp; }

    /** Bracket the whole engine run (wall time). */
    void beginRun();
    void endRun();

    /** The engine loop's measured span and the events it dispatched. */
    void
    recordWork(std::uint64_t work_ns, std::uint64_t events)
    {
        workNs = work_ns;
        numEvents = events;
    }

    /**
     * The flat metrics block surfaced as SimResult::hostProfile /
     * JSONL "host" entries ("profile." prefix added by the callers).
     * Host wall-clock derived, therefore non-deterministic. Figures of
     * the queue are keyed "s0." and "shards" is 1, the layout readers
     * of the per-shard engine's profile expect.
     */
    std::map<std::string, double> metrics() const;

    /**
     * Render a metrics block (as produced by metrics(), without any
     * added prefix) as a short text table for terminal output.
     */
    static std::string formatTable(const std::map<std::string, double> &m);

  private:
    prof::QueueProfile qp;
    std::uint64_t workNs = 0;
    std::uint64_t numEvents = 0;
    std::uint64_t runStartNs = 0;
    std::uint64_t runNs = 0;
};

} // namespace dbsim::telemetry

#endif // DBSIM_TELEMETRY_PROFILER_HH
