/**
 * @file
 * ExperimentRunner: evaluates every point of a SweepSpec on a
 * fixed-size thread pool. Each point is an independent System with its
 * own EventQueue, so isolation is per-run; the only cross-point state
 * is the thread-safe AloneIpcCache (baseline IPCs computed once and
 * shared) and the result sink, which streams one JSON Lines record per
 * completed point and keeps a progress/ETA line on stderr.
 *
 * Results are deterministic in the spec and seed: `jobs` changes only
 * wall-clock time and completion order, never any record's content.
 */

#ifndef DBSIM_EXP_RUNNER_HH
#define DBSIM_EXP_RUNNER_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exp/alone_cache.hh"
#include "exp/record.hh"
#include "exp/result_cache.hh"
#include "exp/sweep.hh"
#include "telemetry/telemetry.hh"

namespace dbsim::exp {

/**
 * Largest --jobs the bench CLI accepts: far above any host's core
 * count, so a typo or a wrapped negative number is rejected before a
 * thread exists instead of asking the OS for billions of them.
 */
inline constexpr std::uint32_t kMaxJobs = 4096;

/** Execution knobs for one sweep. */
struct RunOptions
{
    /**
     * Worker threads; 0 or 1 means serial. A run starts at most one
     * worker per point it evaluates.
     */
    std::uint32_t jobs = 1;

    /** When non-empty, append one JSONL record per point here. */
    std::string jsonlPath;

    /** Progress/ETA line on stderr. */
    bool progress = true;

    /** Stamped into every record's `experiment` field. */
    std::string experiment;

    /**
     * When set, overrides SystemConfig::auditEvery on every point,
     * Custom points included (and on the alone-IPC baseline runs).
     * The bench harness passes 0 here so measurement runs never
     * audit; tests can force auditing on.
     */
    std::optional<std::uint64_t> auditEvery;

    /**
     * Telemetry applied to every point's config (sampler / histograms
     * / trace; see telemetry::TelemetryConfig). In sweeps with more
     * than one point, output file names get a ".pt<index>" suffix so
     * points never clobber each other. Alone-IPC baseline runs are
     * never telemetered. Histogram summaries land in each record's
     * metrics ("hist.*"); they are deterministic, so the --jobs
     * bit-identity guarantee still holds.
     */
    telemetry::TelemetryConfig telemetry;

    /**
     * Run every point with the host profiler attached
     * (SystemConfig::profile; Custom points get it in the config they
     * are handed) and fill the record's `host` map: the profiler's
     * attribution under "profile.*" keys, plus the point's wall-clock
     * phases in milliseconds — buildMs/runMs/collectMs for simulated
     * points, evalMs for Custom ones. Off by default: host timings are
     * non-deterministic and would break record bit-identity across
     * machines and runs. Like telemetry, profiling is an observer,
     * never a cache key: profiled sweeps bypass the result cache (a
     * hit would skip producing the timings, and wall times must never
     * be served as cached "facts").
     */
    bool profile = false;

    /**
     * Directory of the persistent content-hash result cache; "" (the
     * default) disables caching. Sim/MixSim points whose canonical
     * content was computed before — in any previous run of any bench
     * under the same build — are filled from the store without
     * building a System. Custom points and telemetry-enabled or
     * profiled sweeps bypass the cache (counted in
     * RunStats::cache.bypasses).
     */
    std::string cacheDir;

    /**
     * Resume an interrupted sweep: when jsonlPath's `.manifest`
     * sidecar matches this sweep's content hash, completed points are
     * restored from their original bytes and skipped. On by default —
     * a fresh sweep simply finds no matching manifest.
     */
    bool resume = true;
};

/** What one ExperimentRunner::run() did, beyond the records. */
struct RunStats
{
    CacheStats cache;                ///< zeros when caching is off
    std::size_t resumedPoints = 0;   ///< restored from the checkpoint
    std::size_t evaluatedPoints = 0; ///< hits + simulated + custom
    std::uint32_t workers = 0;       ///< pool threads started; 0 = serial
};

class ExperimentRunner
{
  public:
    explicit ExperimentRunner(RunOptions options) : opts(std::move(options))
    {}

    /**
     * Evaluate all points; blocks until done. The returned records are
     * ordered by point index (i.e. spec order), independent of the
     * order in which worker threads finished them.
     */
    std::vector<PointRecord> run(const SweepSpec &spec);

    /** Statistics of the most recent run(). */
    const RunStats &lastRun() const { return last; }

  private:
    RunOptions opts;
    RunStats last;
};

} // namespace dbsim::exp

#endif // DBSIM_EXP_RUNNER_HH
