/**
 * @file
 * Checkpoint/resume tests. The contract: a sweep killed at any point
 * and restarted with the same spec skips the completed points and
 * finishes with a JSONL file byte-identical to an uninterrupted
 * `--jobs 1` run — original bytes preserved, nothing recomputed twice,
 * nothing trusted that the manifest cannot vouch for.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/checkpoint.hh"
#include "exp/jsonl_read.hh"
#include "exp/runner.hh"
#include "support/temp_path.hh"

namespace dbsim::exp {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Keep the first `n` lines of `path` (trailing newline included). */
void
truncateToLines(const std::string &path, std::size_t n)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        lines.push_back(line);
    }
    in.close();
    std::ofstream out(path, std::ios::trunc);
    for (std::size_t i = 0; i < n && i < lines.size(); ++i) {
        out << lines[i] << '\n';
    }
}

SweepSpec
tinySweep()
{
    SweepSpec spec;
    spec.base().numCores = 2;
    spec.base().core.warmupInstrs = 20'000;
    spec.base().core.measureInstrs = 15'000;
    spec.setAloneBase(spec.base());
    for (Mechanism m : {Mechanism::Baseline, Mechanism::DbiAwbClb}) {
        spec.addSim(m, {"lbm", "libquantum"});
        spec.addSim(m, {"mcf", "bzip2"});
    }
    return spec;
}

class CheckpointTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        std::filesystem::create_directories(dir.str());
        jsonl = dir.str() + "/out.jsonl";
        manifest = jsonl + ".manifest";
    }

    std::vector<PointRecord>
    runSweep(bool resume, std::size_t *resumed = nullptr)
    {
        RunOptions opts;
        opts.progress = false;
        opts.experiment = "ckpt";
        opts.jsonlPath = jsonl;
        opts.resume = resume;
        ExperimentRunner runner(opts);
        auto records = runner.run(tinySweep());
        if (resumed) {
            *resumed = runner.lastRun().resumedPoints;
        }
        return records;
    }

    test::TempPath dir;
    std::string jsonl, manifest;
};

TEST(SweepSpecHash, DistinguishesContentNotExecution)
{
    SweepSpec a = tinySweep();
    SweepSpec b = tinySweep();
    EXPECT_EQ(sweepSpecHash(a), sweepSpecHash(b));

    SweepSpec c = tinySweep();
    c.overrideConfigs([](SystemConfig &cfg) { cfg.seed = 99; });
    EXPECT_NE(sweepSpecHash(a), sweepSpecHash(c));

    // numShards is execution-only: same sweep, same hash.
    SweepSpec d = tinySweep();
    d.overrideConfigs([](SystemConfig &cfg) { cfg.numShards = 8; });
    EXPECT_EQ(sweepSpecHash(a), sweepSpecHash(d));
}

TEST_F(CheckpointTest, SinkWritesJsonlPlusManifest)
{
    const std::string hash = "0123456789abcdef";
    {
        CheckpointSink sink(jsonl, hash, true);
        EXPECT_EQ(sink.resumedCount(), 0u);
        sink.append(0, "{\"index\":0,\"experiment\":\"e\","
                       "\"mechanism\":\"m\",\"mix\":\"x\",\"tags\":{},"
                       "\"metrics\":{\"a\":1},\"stats\":{\"b\":2}}");
    }
    JsonlFile mf = readJsonl(manifest);
    ASSERT_EQ(mf.rows.size(), 2u);
    EXPECT_EQ(mf.rows[0].value.find("spec")->text, hash);
    std::uint64_t idx = 999;
    ASSERT_TRUE(mf.rows[1].value.find("index")->asU64(idx));
    EXPECT_EQ(idx, 0u);

    // Same hash: the completed point is restored, bytes intact.
    CheckpointSink again(jsonl, hash, true);
    EXPECT_EQ(again.resumedCount(), 1u);
    ASSERT_NE(again.rawLine(0), nullptr);
    ASSERT_NE(again.record(0), nullptr);
    EXPECT_EQ(again.record(0)->metrics.at("a"), 1.0);

    // Different hash: different sweep, nothing restored, files reset.
    CheckpointSink other(jsonl, "ffffffffffffffff", true);
    EXPECT_EQ(other.resumedCount(), 0u);
    EXPECT_EQ(slurp(jsonl), "");
}

TEST_F(CheckpointTest, OrphanJsonlLineIsNotTrusted)
{
    const std::string hash = "0123456789abcdef";
    const std::string line0 =
        "{\"index\":0,\"experiment\":\"e\",\"mechanism\":\"m\","
        "\"mix\":\"x\",\"tags\":{},\"metrics\":{},\"stats\":{}}";
    const std::string line1 =
        "{\"index\":1,\"experiment\":\"e\",\"mechanism\":\"m\","
        "\"mix\":\"x\",\"tags\":{},\"metrics\":{},\"stats\":{}}";
    {
        CheckpointSink sink(jsonl, hash, true);
        sink.append(0, line0);
        sink.append(1, line1);
    }
    // Simulate a kill between the JSONL write and the manifest write:
    // the manifest vouches only for point 0.
    truncateToLines(manifest, 2);

    CheckpointSink sink(jsonl, hash, true);
    EXPECT_EQ(sink.resumedCount(), 1u);
    EXPECT_TRUE(sink.isDone(0));
    EXPECT_FALSE(sink.isDone(1));
    // The orphan line was dropped from the file during the rewrite, so
    // recomputing point 1 cannot produce a duplicate.
    EXPECT_EQ(slurp(jsonl), line0 + "\n");
}

TEST_F(CheckpointTest, CorruptedManifestEntryMeansRecompute)
{
    const std::string hash = "0123456789abcdef";
    const std::string line0 =
        "{\"index\":0,\"experiment\":\"e\",\"mechanism\":\"m\","
        "\"mix\":\"x\",\"tags\":{},\"metrics\":{},\"stats\":{}}";
    {
        CheckpointSink sink(jsonl, hash, true);
        sink.append(0, line0);
    }
    // Corrupt the JSONL byte content (manifest hash now mismatches).
    {
        std::ofstream out(jsonl, std::ios::trunc);
        out << "{\"index\":0,\"experiment\":\"TAMPERED\","
               "\"mechanism\":\"m\",\"mix\":\"x\",\"tags\":{},"
               "\"metrics\":{},\"stats\":{}}\n";
    }
    CheckpointSink sink(jsonl, hash, true);
    EXPECT_EQ(sink.resumedCount(), 0u);
    EXPECT_EQ(slurp(jsonl), "");
}

TEST_F(CheckpointTest, KillAtKThenResumeIsByteIdentical)
{
    // Reference: one uninterrupted serial run.
    auto uninterrupted = runSweep(false);
    const std::string want_jsonl = slurp(jsonl);
    const std::string want_manifest = slurp(manifest);
    ASSERT_EQ(uninterrupted.size(), 4u);

    for (std::size_t k = 0; k <= 3; ++k) {
        SCOPED_TRACE("killed after " + std::to_string(k) + " points");
        // Simulate SIGKILL after k completed points.
        truncateToLines(jsonl, k);
        truncateToLines(manifest, 1 + k);  // header + k entries

        std::size_t resumed = 0;
        auto records = runSweep(true, &resumed);
        EXPECT_EQ(resumed, k);
        EXPECT_EQ(slurp(jsonl), want_jsonl);
        EXPECT_EQ(slurp(manifest), want_manifest);
        ASSERT_EQ(records.size(), uninterrupted.size());
        for (std::size_t i = 0; i < records.size(); ++i) {
            EXPECT_EQ(records[i].toJsonLine(),
                      uninterrupted[i].toJsonLine());
        }
    }
}

TEST_F(CheckpointTest, KillBetweenJsonlAndManifestResumesCleanly)
{
    auto uninterrupted = runSweep(false);
    const std::string want_jsonl = slurp(jsonl);

    // Kill with 3 record lines on disk but only 2 vouched for.
    truncateToLines(jsonl, 3);
    truncateToLines(manifest, 1 + 2);

    std::size_t resumed = 0;
    runSweep(true, &resumed);
    EXPECT_EQ(resumed, 2u);
    EXPECT_EQ(slurp(jsonl), want_jsonl);
    // No duplicate of point 2 despite its orphan line.
    JsonlFile jf = readJsonl(jsonl);
    EXPECT_EQ(jf.rows.size(), 4u);
}

TEST_F(CheckpointTest, NoResumeFlagRecomputesEverything)
{
    runSweep(false);
    std::size_t resumed = 99;
    auto records = runSweep(false, &resumed);
    EXPECT_EQ(resumed, 0u);
    EXPECT_EQ(records.size(), 4u);
}

} // namespace
} // namespace dbsim::exp
