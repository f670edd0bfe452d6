/**
 * @file
 * Content-hash result cache tests: canonical-key semantics (semantic
 * fields in, execution/observer knobs out), persistence across
 * instances, stamp-based invalidation, corruption tolerance, and the
 * end-to-end guarantee through the ExperimentRunner — a repeated sweep
 * over identical content performs zero new simulations and produces
 * bit-identical records.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "exp/result_cache.hh"
#include "exp/runner.hh"
#include "support/temp_path.hh"

namespace dbsim::exp {
namespace {

class ResultCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // Pin the stamp: these tests exercise persistence across
        // ResultCache instances, which requires a stable stamp.
        ::setenv("DBSIM_CACHE_STAMP", "test-stamp-1", 1);
    }

    void TearDown() override { ::unsetenv("DBSIM_CACHE_STAMP"); }

    test::TempPath dir;
};

TEST(Fnv1a64, KnownVectors)
{
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
    EXPECT_EQ(keyHex(0xcbf29ce484222325ull), "cbf29ce484222325");
}

TEST(CanonicalConfig, ExecutionKnobsAndObserversAreExcluded)
{
    SystemConfig a;
    SystemConfig b = a;
    b.numShards = 8;
    b.auditEvery = 1;
    b.telemetry.histograms = true;
    b.profile = true;
    EXPECT_EQ(canonicalConfig(a), canonicalConfig(b));
}

TEST(CanonicalConfig, SemanticFieldsChangeTheKey)
{
    SystemConfig base;
    std::vector<SystemConfig> variants(7, base);
    variants[0].seed = 999;
    variants[1].numCores = 4;
    variants[2].mech = Mechanism::DbiAwb;
    variants[3].dbi.alpha = 0.5;
    variants[4].dram.tCas = 9;
    variants[5].core.measureInstrs = 1;
    variants[6].llcSlices = 4;
    const std::string canon = canonicalConfig(base);
    for (const SystemConfig &v : variants) {
        EXPECT_NE(canonicalConfig(v), canon);
    }
}

TEST(CanonicalConfig, DCacheFieldsAppearOnlyWhenEnabled)
{
    // A disabled DRAM-cache tier must keep canonical strings (and
    // content keys) byte-identical to records written before the tier
    // existed — and its parameters must be inert while disabled.
    SystemConfig off;
    const std::string off_canon = canonicalConfig(off);
    EXPECT_EQ(off_canon.find("dcache"), std::string::npos);

    SystemConfig off_tweaked = off;
    off_tweaked.dcache.pageBytes = 4096;
    off_tweaked.dcache.sizeBytes = 128ull << 20;
    EXPECT_EQ(canonicalConfig(off_tweaked), off_canon);

    SystemConfig on = off;
    on.dcache.enable = true;
    const std::string on_canon = canonicalConfig(on);
    EXPECT_NE(on_canon, off_canon);
    EXPECT_NE(on_canon.find("dcache.enable"), std::string::npos);

    // Every semantic dcache knob perturbs the enabled key.
    std::vector<SystemConfig> variants(7, on);
    variants[0].dcache.sizeBytes = 128ull << 20;
    variants[1].dcache.pageBytes = 4096;
    variants[2].dcache.assoc = 8;
    variants[3].dcache.dirtyInTags = true;
    variants[4].dcache.indexEntries = 4096;
    variants[5].dcache.tagLatency = 20;
    variants[6].dcache.seed = 77;
    for (const SystemConfig &v : variants) {
        EXPECT_NE(canonicalConfig(v), on_canon);
    }
}

TEST(CanonicalConfig, TraceAndSamplingFieldsAppearOnlyWhenInUse)
{
    // Synthetic-workload configs must keep producing the exact
    // canonical strings they produced before trace ingest existed —
    // otherwise every cached record from earlier builds goes stale.
    SystemConfig plain;
    const std::string canon = canonicalConfig(plain);
    EXPECT_EQ(canon.find("trace."), std::string::npos);
    EXPECT_EQ(canon.find("sample."), std::string::npos);

    // Disabled sampling knobs are inert, like the disabled dcache.
    SystemConfig zeroed = plain;
    zeroed.sampling = SamplingConfig{};
    EXPECT_EQ(canonicalConfig(zeroed), canon);

    SystemConfig sampled = plain;
    sampled.sampling.ffOps = 1'000'000;
    const std::string scanon = canonicalConfig(sampled);
    EXPECT_NE(scanon, canon);
    EXPECT_NE(scanon.find("sample.ff"), std::string::npos);

    // Every sampling knob perturbs the enabled key.
    SystemConfig windows = sampled;
    windows.sampling.sampleOps = 5'000;
    windows.sampling.periodOps = 50'000;
    EXPECT_NE(canonicalConfig(windows), scanon);
}

TEST(CanonicalConfig, RewritingTraceInPlaceFlipsTheKey)
{
    // The trace participates by content hash: an in-place rewrite must
    // flip the key even though path, size, and record count are all
    // unchanged — the staleness case mtime-free caches get wrong.
    const test::TempPath trace(".txt");
    std::ofstream(trace) << "1 R 1000\n2 W 2000\n";

    SystemConfig cfg;
    cfg.traceFile = trace;
    const std::string before = canonicalConfig(cfg);
    EXPECT_NE(before.find("trace.hash"), std::string::npos);

    std::ofstream(trace) << "1 R 1000\n2 W 2040\n"; // same shape
    EXPECT_NE(canonicalConfig(cfg), before);

    std::ofstream(trace) << "1 R 1000\n2 W 2000\n"; // byte-identical
    EXPECT_EQ(canonicalConfig(cfg), before);
}

TEST(Fnv1a64, FileHashMatchesInMemoryHash)
{
    // fnv1a64File streams in chunks; it must agree with the in-memory
    // hash of the same bytes, including across its refill boundary.
    const test::TempPath path(".bin");
    std::string content;
    for (int i = 0; i < 300'000; ++i) { // well past one 64KB chunk
        content.push_back(static_cast<char>(i * 131 % 251));
    }
    std::ofstream(path, std::ios::binary)
        .write(content.data(),
               static_cast<std::streamsize>(content.size()));
    EXPECT_EQ(fnv1a64File(path), fnv1a64(content));
}

TEST(Fnv1a64, MissingTraceFileIsFatalAtKeyTime)
{
    // A vanished trace must refuse at hashing time, not produce a key
    // that aliases some other config.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(fnv1a64File("/nonexistent/trace.champsim"),
                 "cannot read trace file");
}

TEST(CanonicalPoint, MixSimFoldsInThePinnedAloneConfig)
{
    SweepSpec spec;
    spec.base().numCores = 2;
    SweepPoint &p =
        spec.addMixSim(Mechanism::Baseline, {"lbm", "mcf"});

    SystemConfig alone_a = spec.aloneBase();
    SystemConfig alone_b = alone_a;
    alone_b.dram.tCas = 9;  // a semantic field of the alone runs
    EXPECT_NE(canonicalPoint(p, alone_a), canonicalPoint(p, alone_b));

    // The alone config is pinned before canonicalization: topology
    // drift on the alone base must NOT change the key (that was the
    // alone-run topology bug).
    SystemConfig alone_c = alone_a;
    alone_c.llcSlices = 4;
    alone_c.dram.channels = 4;
    alone_c.shardHopLatency = 64;
    alone_c.numShards = 8;
    EXPECT_EQ(canonicalPoint(p, alone_a), canonicalPoint(p, alone_c));
}

TEST(CanonicalPoint, SimPointsIgnoreTheAloneBase)
{
    SweepSpec spec;
    SweepPoint &p = spec.addSim(Mechanism::Baseline, {"lbm"});
    SystemConfig alone_a = spec.aloneBase();
    SystemConfig alone_b = alone_a;
    alone_b.dram.tCas = 9;
    EXPECT_EQ(canonicalPoint(p, alone_a), canonicalPoint(p, alone_b));
}

TEST_F(ResultCacheTest, InsertThenLookupAcrossInstances)
{
    const std::string canon = "v1;some-canonical-content;";
    const std::uint64_t key = fnv1a64(canon);

    PointRecord rec;
    rec.index = 7;
    rec.experiment = "whatever";
    rec.mechanism = "DBI+AWB";
    rec.mix = "lbm+mcf";
    rec.tags["axis"] = "x";
    rec.metrics["ipc0"] = 0.25;
    rec.metrics["nan_metric"] =
        std::numeric_limits<double>::quiet_NaN();
    rec.stats["big"] = 18446744073709551615ull;

    {
        ResultCache cache(dir);
        EXPECT_EQ(cache.entryCount(), 0u);
        PointRecord out;
        EXPECT_FALSE(cache.lookup(key, canon, out));
        cache.insert(key, canon, rec);
        EXPECT_TRUE(cache.lookup(key, canon, out));
        EXPECT_EQ(out.mechanism, "DBI+AWB");
        EXPECT_EQ(cache.stats().hits, 1u);
        EXPECT_EQ(cache.stats().misses, 1u);
    }

    // A fresh instance over the same directory (same stamp) reloads
    // the entry, payload intact — including the 2^64-1 stat and the
    // NaN metric, and excluding the presentation fields.
    ResultCache cache(dir);
    EXPECT_EQ(cache.entryCount(), 1u);
    PointRecord out;
    ASSERT_TRUE(cache.lookup(key, canon, out));
    EXPECT_EQ(out.mechanism, "DBI+AWB");
    EXPECT_EQ(out.mix, "lbm+mcf");
    EXPECT_EQ(out.metrics.at("ipc0"), 0.25);
    EXPECT_TRUE(std::isnan(out.metrics.at("nan_metric")));
    EXPECT_EQ(out.stats.at("big"), 18446744073709551615ull);
    EXPECT_TRUE(out.experiment.empty());
    EXPECT_TRUE(out.tags.empty());
}

TEST_F(ResultCacheTest, HashHitWithDifferentCanonIsAMiss)
{
    const std::string canon = "v1;content;";
    const std::uint64_t key = fnv1a64(canon);
    ResultCache cache(dir);
    PointRecord rec;
    rec.mechanism = "m";
    cache.insert(key, canon, rec);

    // Same key, different canonical string — what an FNV collision
    // would look like. Must degrade to a miss, never a wrong result.
    PointRecord out;
    EXPECT_FALSE(cache.lookup(key, "v1;other-content;", out));
    EXPECT_TRUE(cache.lookup(key, canon, out));
}

TEST_F(ResultCacheTest, BuildStampChangeWipesTheStore)
{
    const std::string canon = "v1;content;";
    const std::uint64_t key = fnv1a64(canon);
    {
        ResultCache cache(dir);
        PointRecord rec;
        rec.mechanism = "m";
        cache.insert(key, canon, rec);
    }
    ::setenv("DBSIM_CACHE_STAMP", "test-stamp-2", 1);
    {
        // New stamp: simulator changed, stored results are stale.
        ResultCache cache(dir);
        EXPECT_EQ(cache.entryCount(), 0u);
        PointRecord out;
        EXPECT_FALSE(cache.lookup(key, canon, out));
    }
    ::setenv("DBSIM_CACHE_STAMP", "test-stamp-1", 1);
    // The wipe was persistent, not just a refused load.
    ResultCache cache(dir);
    EXPECT_EQ(cache.entryCount(), 0u);
}

TEST_F(ResultCacheTest, CorruptedAndTruncatedShardLinesAreDropped)
{
    const std::string canon = "v1;content;";
    const std::uint64_t key = fnv1a64(canon);
    std::string shard_file;
    {
        ResultCache cache(dir);
        PointRecord rec;
        rec.mechanism = "m";
        rec.metrics["x"] = 1.0;
        cache.insert(key, canon, rec);
    }
    // Find the one non-empty shard and vandalize it: garbage line,
    // truncated JSON, an entry whose key does not hash its canon.
    for (std::uint32_t i = 0; i < ResultCache::kNumShards; ++i) {
        char name[32];
        std::snprintf(name, sizeof(name), "shard_%02x.jsonl", i);
        std::string path = dir.str() + "/" + name;
        std::ifstream probe(path);
        if (probe && probe.peek() != EOF) {
            shard_file = path;
        }
    }
    ASSERT_FALSE(shard_file.empty());
    {
        std::ofstream out(shard_file, std::ios::app);
        out << "not json at all\n";
        out << "{\"key\":\"0000000000000000\",\"canon\":\"v1;forged;\","
               "\"mechanism\":\"evil\",\"mix\":\"\",\"metrics\":{},"
               "\"stats\":{}}\n";
        out << "{\"key\":\"00\",\"canon\":\"trunc\n";
    }

    ResultCache cache(dir);
    // Only the legitimate entry survives; the forged/corrupt lines are
    // skipped (and will simply be recomputed by whoever needs them).
    EXPECT_EQ(cache.entryCount(), 1u);
    PointRecord out;
    EXPECT_TRUE(cache.lookup(key, canon, out));
    EXPECT_EQ(out.mechanism, "m");
    PointRecord forged;
    EXPECT_FALSE(
        cache.lookup(fnv1a64("v1;forged;"), "v1;forged;", forged));
}

TEST_F(ResultCacheTest, RepeatSweepIsAllHitsAndBitIdentical)
{
    SweepSpec spec;
    spec.base().numCores = 2;
    spec.base().core.warmupInstrs = 20'000;
    spec.base().core.measureInstrs = 15'000;
    spec.setAloneBase(spec.base());
    for (Mechanism m : {Mechanism::Baseline, Mechanism::DbiAwbClb}) {
        spec.addMixSim(m, {"lbm", "libquantum"});
        spec.addSim(m, {"mcf", "bzip2"});
    }

    RunOptions opts;
    opts.progress = false;
    opts.experiment = "cache_test";
    opts.cacheDir = dir;

    ExperimentRunner cold(opts);
    auto first = cold.run(spec);
    EXPECT_EQ(cold.lastRun().cache.hits, 0u);
    EXPECT_EQ(cold.lastRun().cache.misses, spec.points().size());

    // Second run, fresh runner, same directory: zero simulations.
    ExperimentRunner warm(opts);
    auto second = warm.run(spec);
    EXPECT_EQ(warm.lastRun().cache.hits, spec.points().size());
    EXPECT_EQ(warm.lastRun().cache.misses, 0u);

    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].toJsonLine(), second[i].toJsonLine());
    }
}

TEST_F(ResultCacheTest, CustomPointsBypass)
{
    SweepSpec spec;
    spec.addCustom({}, [](const SystemConfig &, PointRecord &rec) {
        rec.metrics["x"] = 1.0;
    });

    RunOptions opts;
    opts.progress = false;
    opts.cacheDir = dir;
    ExperimentRunner runner(opts);
    runner.run(spec);
    EXPECT_EQ(runner.lastRun().cache.bypasses, 1u);
    EXPECT_EQ(runner.lastRun().cache.hits, 0u);
    EXPECT_EQ(runner.lastRun().cache.misses, 0u);
}

TEST_F(ResultCacheTest, ProfiledSweepsBypassButStayDeterministic)
{
    // Profiling is an observer: it must never be a cache key (the
    // canonical content ignores it) AND a profiled sweep must never be
    // served from — or insert into — the cache, because a hit would
    // skip producing the attribution and the phase timings, and a
    // cached profile would replay stale wall-clock "facts".
    SweepSpec spec;
    spec.base().core.warmupInstrs = 20'000;
    spec.base().core.measureInstrs = 15'000;
    spec.setAloneBase(spec.base());
    spec.addSim(Mechanism::Baseline, {"mcf"});
    spec.addSim(Mechanism::DbiAwbClb, {"lbm"});
    const std::size_t sims = spec.points().size();
    spec.addCustom({}, [](const SystemConfig &, PointRecord &rec) {
        rec.metrics["x"] = 1.0;
    });

    RunOptions opts;
    opts.progress = false;
    opts.experiment = "profile_bypass";
    opts.cacheDir = dir;

    ExperimentRunner cold(opts);
    auto plain = cold.run(spec);
    EXPECT_EQ(cold.lastRun().cache.misses, sims);
    for (const PointRecord &rec : plain) {
        EXPECT_TRUE(rec.host.empty()) << "point " << rec.index;
    }

    // The directory is warm now, yet the profiled sweep simulates
    // every point afresh and carries each one's wall-clock phases.
    RunOptions popts = opts;
    popts.profile = true;
    ExperimentRunner profiled(popts);
    auto prof = profiled.run(spec);
    EXPECT_EQ(profiled.lastRun().cache.hits, 0u);
    EXPECT_EQ(profiled.lastRun().cache.misses, 0u);
    EXPECT_EQ(profiled.lastRun().cache.bypasses, spec.points().size());
    ASSERT_EQ(prof.size(), spec.points().size());
    for (std::size_t i = 0; i < sims; ++i) {
        EXPECT_EQ(prof[i].host.count("buildMs"), 1u) << "point " << i;
        EXPECT_EQ(prof[i].host.count("runMs"), 1u) << "point " << i;
        EXPECT_EQ(prof[i].host.count("collectMs"), 1u) << "point " << i;
    }
    EXPECT_EQ(prof[sims].host.count("evalMs"), 1u);

    // Same deterministic simulation either way; only the host map
    // (excluded from metrics) differs.
    ASSERT_EQ(plain.size(), prof.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(plain[i].metrics, prof[i].metrics);
        EXPECT_EQ(plain[i].stats, prof[i].stats);
    }

    // The profiled run left the cache untouched: a warm plain run is
    // still all hits from the cold run's inserts.
    ExperimentRunner warm(opts);
    warm.run(spec);
    EXPECT_EQ(warm.lastRun().cache.hits, sims);
}

} // namespace
} // namespace dbsim::exp
