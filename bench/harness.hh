/**
 * @file
 * The unified bench/driver API. A bench binary is a thin declarative
 * registration: it describes its experiment as a SweepSpec builder plus
 * a formatter that turns the structured records back into the paper's
 * human-readable table, then delegates to harnessMain(), which provides
 * the common CLI:
 *
 *   <bench> [positional args...]      historical per-bench arguments
 *           [--mech SPEC]             mechanism override: a Table 2
 *                                     preset name ("DBI+AWB") or a
 *                                     composed '+'-spec ("dbi+dawb",
 *                                     "dbi+awb+ecc"); experiments that
 *                                     take a mechanism honor it
 *           [--jobs N]                parallel runs on N threads
 *           [--json FILE]             one JSONL record per sweep point
 *           [--seed S]                base RNG seed (default 1)
 *           [--warmup N] [--measure N]   instruction-count overrides
 *           [--instrs K]              shorthand: warmup = measure = K
 *           [--audit N]               run the dirty-state auditor every
 *                                     N LLC events (default 0 = off)
 *           [--slices N]              LLC slices (simulated machine;
 *                                     0 = derive from core count)
 *           [--channels N]            DRAM channels (simulated machine;
 *                                     0 = one per LLC slice)
 *           [--hop N]                 cross-shard hop latency in cycles
 *                                     (simulated machine; 0 = derive)
 *           [--dcache]                interpose the die-stacked DRAM
 *                                     cache between the LLC and backing
 *                                     DDR (simulated machine; default
 *                                     off — disabled runs are
 *                                     bit-identical to builds without
 *                                     the tier)
 *           [--dcache-mb N]           DRAM-cache capacity in MB,
 *                                     machine-wide (default 64; split
 *                                     evenly across LLC slices)
 *           [--dcache-rows N]         SRAM dirty-index rows per slice
 *                                     (default 2048; one row tracks one
 *                                     DRAM-cache page)
 *           [--dcache-tags]           ablation: track dirtiness as one
 *                                     per-page bit in the in-DRAM tags
 *                                     instead of the SRAM dirty index
 *                                     (dirty evictions write back every
 *                                     valid block)
 *           [--trace FILE]            trace-driven run: every core
 *                                     replays FILE instead of the
 *                                     experiment's synthetic profiles.
 *                                     ChampSim binary (".champsim"/
 *                                     ".bin", optionally ".gz"/".xz")
 *                                     or native text (".trace"/".txt");
 *                                     unknown extensions are sniffed.
 *                                     Streamed with bounded memory.
 *           [--ff N]                  fast-forward: functionally warm N
 *                                     trace ops per core (caches, DBI,
 *                                     predictors move; no events, no
 *                                     timing, no stats) before detailed
 *                                     simulation begins
 *           [--sample-ops W]          SMARTS sampling: measure W
 *                                     detailed ops out of every
 *                                     --period P ops, functionally
 *                                     warming the other P-W (requires
 *                                     --period; sampled runs execute
 *                                     single-threaded)
 *           [--period P]              the SMARTS sampling period
 *           [--sample N]              telemetry: sample the stat channels
 *                                     every N simulated cycles
 *           [--timeseries FILE]       epoch samples as JSONL (default
 *                                     <experiment>_timeseries.jsonl when
 *                                     --sample is given)
 *           [--trace-out FILE]        Chrome trace-event JSON (load in
 *                                     Perfetto / chrome://tracing)
 *           [--hist]                  latency/drain/dirty-row histograms
 *                                     (summaries land in the JSONL
 *                                     records as hist.* metrics)
 *           [--profile]               host profiler: attribute wall time
 *                                     per shard to dispatch-by-component
 *                                     vs fabric drain vs barrier stall;
 *                                     prints a table per point and lands
 *                                     in the JSONL "host" key as
 *                                     profile.*, next to the point's
 *                                     wall-clock phases (buildMs/runMs/
 *                                     collectMs, or evalMs for custom
 *                                     points); simulated results stay
 *                                     bit-identical; the run bypasses
 *                                     the result cache
 *           [--cache-dir DIR]         persistent content-hash result
 *                                     cache: points already computed
 *                                     under this build (by any bench)
 *                                     are filled from the store instead
 *                                     of simulated (default
 *                                     $DBSIM_CACHE_DIR when set)
 *           [--no-cache]              ignore $DBSIM_CACHE_DIR/--cache-dir
 *           [--no-resume]             with --json: recompute everything
 *                                     instead of resuming a killed sweep
 *                                     from FILE and FILE.manifest
 *           [--no-progress]           suppress the stderr progress line
 *           [--list] [--help]
 *
 * Identical seeds produce identical tables and JSONL records at any
 * --jobs value; parallelism changes wall-clock time only.
 */

#ifndef DBSIM_BENCH_HARNESS_HH
#define DBSIM_BENCH_HARNESS_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "exp/record.hh"
#include "exp/runner.hh"
#include "exp/sweep.hh"
#include "telemetry/telemetry.hh"

namespace dbsim::bench {

/** Parsed common CLI plus leftover positional arguments. */
struct HarnessOptions
{
    std::uint32_t jobs = 1;
    std::string jsonPath;
    std::uint64_t seed = 1;
    std::optional<std::uint64_t> warmup;
    std::optional<std::uint64_t> measure;

    /**
     * Dirty-state audit period (--audit N). Bench runs measure; they
     * default to 0 (auditor off) regardless of the DBSIM_AUDIT build
     * default, so tables are never produced under auditing overhead
     * unless explicitly requested.
     */
    std::uint64_t auditEvery = 0;

    /** Telemetry flags: --sample N / --timeseries / --trace-out /
     *  --hist. */
    std::uint64_t sampleEvery = 0;
    std::string timeseriesPath;
    std::string tracePath;
    bool histograms = false;

    /**
     * Trace-driven input (--trace FILE) and SMARTS sampling knobs
     * (--ff / --sample-ops / --period); see SystemConfig::traceFile and
     * SystemConfig::sampling. All change the simulated run and are part
     * of a point's cache identity (the trace by content hash).
     */
    std::string traceFile;
    std::uint64_t ffOps = 0;
    std::uint64_t sampleOps = 0;
    std::uint64_t periodOps = 0;

    /** Apply the trace/sampling flags (those given) to `cfg`. */
    void applyTrace(SystemConfig &cfg) const;

    /**
     * --profile: attach the host profiler to every point, record the
     * per-point wall-clock phases, and print the attribution table
     * after the experiment's own table. Profiled sweeps bypass the
     * result cache (profiling is an observer, never part of a point's
     * identity).
     */
    bool profile = false;

    /**
     * --cache-dir DIR (default $DBSIM_CACHE_DIR): persistent result
     * cache directory; empty = caching off. --no-cache forces it off.
     */
    std::string cacheDir;
    bool noCache = false;

    /** --no-resume: never resume --json sweeps from their manifest. */
    bool resume = true;

    /**
     * Sharding flags (--slices / --channels / --hop), applied centrally
     * to every config of every experiment; absent means "leave whatever
     * the experiment set". All change the simulated machine.
     */
    std::optional<std::uint32_t> slices;
    std::optional<std::uint32_t> channels;
    std::optional<std::uint64_t> hopLatency;

    /** Apply the sharding flags (those given) to `cfg`. */
    void applySharding(SystemConfig &cfg) const;

    /**
     * DRAM-cache tier flags (--dcache / --dcache-mb / --dcache-rows /
     * --dcache-tags), applied centrally like the sharding flags; all
     * change the simulated machine. Without --dcache the others are
     * inert and every config keeps the tier disabled.
     */
    bool dcache = false;
    std::optional<std::uint64_t> dcacheMb;
    std::optional<std::uint32_t> dcacheRows;
    bool dcacheTags = false;

    /** Apply the DRAM-cache flags (those given) to `cfg`. */
    void applyDCache(SystemConfig &cfg) const;

    /** --mech override (raw spelling; resolve with mechOr()). */
    std::optional<std::string> mechSpec;

    bool progress = true;
    std::vector<std::string> positional;

    /**
     * The telemetry configuration the flags describe, for `experiment`.
     * When --sample is given without --timeseries, epochs stream to
     * "<experiment>_timeseries.jsonl".
     */
    telemetry::TelemetryConfig telemetryConfig(
        const std::string &experiment) const;

    /** --warmup override, else the (positional-derived) default. */
    std::uint64_t warmupOr(std::uint64_t def) const
    {
        return warmup ? *warmup : def;
    }

    /** --measure override, else the (positional-derived) default. */
    std::uint64_t measureOr(std::uint64_t def) const
    {
        return measure ? *measure : def;
    }

    /**
     * --mech resolved through mechanismByName() (preset or composed
     * spec), else `def`.
     */
    MechanismSpec mechOr(const MechanismSpec &def) const;

    /** Numeric positional argument i, else `def`. */
    std::uint64_t posIntOr(std::size_t i, std::uint64_t def) const;

    /** String positional argument i, else `def`. */
    std::string posOr(std::size_t i, const std::string &def) const;
};

/** Builds the sweep for the parsed options. */
using SpecBuilder = std::function<exp::SweepSpec(const HarnessOptions &)>;

/** Prints the human-readable table from the ordered records. */
using Formatter = std::function<void(
    const std::vector<exp::PointRecord> &, const HarnessOptions &)>;

/** One registered experiment (normally one per bench binary). */
struct Experiment
{
    std::string name;
    std::string description;
    SpecBuilder spec;
    Formatter format;

    /**
     * Force --jobs 1 (wall-clock timing experiments whose numbers
     * parallel neighbours would perturb).
     */
    bool serialOnly = false;
};

/** Register an experiment; typically called once before harnessMain. */
void registerExperiment(Experiment experiment);

/**
 * Parse the common CLI, then run every registered experiment through
 * the parallel ExperimentRunner and its formatter. Returns the
 * process exit code.
 */
int harnessMain(int argc, char **argv);

} // namespace dbsim::bench

#endif // DBSIM_BENCH_HARNESS_HH
