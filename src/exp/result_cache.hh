/**
 * @file
 * Content-hash result cache: identical (config, mechanism, mix, seed,
 * instruction counts) sweep points are simulated exactly once, ever.
 *
 * Every Sim/MixSim point has a canonical serialization — a stable,
 * locale-independent key/value string covering each semantic field of
 * the SystemConfig (passive observers like the auditor and telemetry
 * are excluded: they never change results). The FNV-1a/64 hash of that
 * string keys a persistent on-disk store: a directory of JSONL shard
 * files plus an index.json carrying the store version and a build
 * stamp. A new build stamp wipes the store (invalidation-on-code-
 * change); a hash hit is only trusted after the stored canonical
 * string compares equal, so collisions and stale entries degrade to
 * misses, never wrong results.
 * Corrupted or truncated shard lines are skipped and recomputed.
 *
 * The cache is thread-safe: the ExperimentRunner opens one per run
 * (--cache-dir) and shares it among its worker threads.
 */

#ifndef DBSIM_EXP_RESULT_CACHE_HH
#define DBSIM_EXP_RESULT_CACHE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "exp/record.hh"
#include "exp/sweep.hh"

namespace dbsim::exp {

/** FNV-1a/64 of `s`. */
std::uint64_t fnv1a64(const std::string &s);

/**
 * FNV-1a/64 over the raw bytes of the file at `path`, streamed in
 * chunks (never materialized). Folds a trace file's *content* into a
 * point's cache identity: rewriting the file in place must flip the
 * key even when the path is unchanged. Fatal if the file can't be read.
 */
std::uint64_t fnv1a64File(const std::string &path);

/** 16-digit lowercase hex form of a key. */
std::string keyHex(std::uint64_t key);

/**
 * Canonical serialization of every semantic field of `cfg` (the
 * fields that can change simulated results). Deliberately excluded:
 * auditEvery and telemetry (passive observers), progress/host
 * plumbing.
 */
std::string canonicalConfig(const SystemConfig &cfg);

/**
 * Canonical serialization of one sweep point: kind, mix, full config,
 * and — for MixSim points — the pinned alone-run config derived from
 * `alone_base`, since the fairness metrics depend on it. Custom
 * points have no content identity (their evaluator is opaque code);
 * they serialize as kind/index/tags and are never cached.
 */
std::string canonicalPoint(const SweepPoint &p,
                           const SystemConfig &alone_base);

/**
 * The store-invalidation stamp: cache schema version plus the build
 * timestamp of the experiment library. Entries written under another
 * stamp are wiped on open — simulator code changes must not serve
 * stale results. Overridable via $DBSIM_CACHE_STAMP (tests).
 */
std::string buildStamp();

/** Cumulative cache traffic counters. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t bypasses = 0;  ///< points not eligible for caching
};

class ResultCache
{
  public:
    /** Shard files per store directory (low 4 bits of the key). */
    static constexpr std::uint32_t kNumShards = 16;

    /** Store format version (index.json and entry prefix). */
    static constexpr const char *kVersion = "farm-v1";

    /**
     * Open (creating if needed) the store at `dir` and load every
     * valid entry. A version or build-stamp mismatch, or a corrupt
     * index, wipes the shard files: recompute, never trust.
     */
    explicit ResultCache(const std::string &dir);

    /**
     * Look `key` up; a hit requires the stored canonical string to
     * equal `canon` byte-for-byte. On a hit, fills the content-derived
     * record fields (mechanism, mix, metrics, stats) — presentation
     * fields (index, experiment, tags, host) are the caller's.
     */
    bool lookup(std::uint64_t key, const std::string &canon,
                PointRecord &out);

    /** Persist a computed record under (key, canon). */
    void insert(std::uint64_t key, const std::string &canon,
                const PointRecord &rec);

    /** Count a point that was not eligible for caching. */
    void noteBypass();

    CacheStats stats() const;

    std::size_t entryCount() const;

    const std::string &directory() const { return dir; }

  private:
    struct Entry
    {
        std::string canon;
        PointRecord payload;  ///< mechanism/mix/metrics/stats only
    };

    void load();
    void wipeShards();
    void writeIndex();
    std::string shardPath(std::uint64_t key) const;

    std::string dir;
    std::string stamp;
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, Entry> entries;
    CacheStats ctr;
};

} // namespace dbsim::exp

#endif // DBSIM_EXP_RESULT_CACHE_HH
