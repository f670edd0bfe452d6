/** @file Tests for file-backed traces (format, looping, round trip). */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "support/temp_path.hh"
#include "workload/file_trace.hh"

namespace dbsim {
namespace {

std::size_t
peakRssBytes()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::size_t>(ru.ru_maxrss) * 1024;
}

class FileTraceTest : public ::testing::Test
{
  protected:
    test::TempPath path{".txt"};
};

TEST_F(FileTraceTest, ParsesBasicFormat)
{
    std::ofstream(path) << "# comment\n"
                           "3 R 1000\n"
                           "0 W 1040  # trailing comment\n"
                           "\n"
                           "7 D 2000\n";
    FileTrace trace(path);
    EXPECT_EQ(trace.size(), 3u);

    TraceOp a = trace.next();
    EXPECT_EQ(a.gap, 3u);
    EXPECT_FALSE(a.isWrite);
    EXPECT_FALSE(a.dependent);
    EXPECT_EQ(a.addr, 0x1000u);

    TraceOp b = trace.next();
    EXPECT_TRUE(b.isWrite);
    EXPECT_EQ(b.addr, 0x1040u);

    TraceOp c = trace.next();
    EXPECT_TRUE(c.dependent);
    EXPECT_FALSE(c.isWrite);
    EXPECT_EQ(c.addr, 0x2000u);
}

TEST_F(FileTraceTest, LoopsAtEnd)
{
    std::ofstream(path) << "1 R 100\n2 W 200\n";
    FileTrace trace(path);
    trace.next();
    trace.next();
    TraceOp again = trace.next();  // wrapped
    EXPECT_EQ(again.addr, 0x100u);
}

TEST_F(FileTraceTest, WriteReadRoundTrip)
{
    std::vector<TraceOp> records = {
        {5, false, false, 0xdeadbea0},
        {0, true, false, 0x40},
        {9, false, true, 0xabc00},
    };
    FileTrace::write(path, records);
    FileTrace trace(path);
    ASSERT_EQ(trace.size(), records.size());
    for (const auto &want : records) {
        TraceOp got = trace.next();
        EXPECT_EQ(got.gap, want.gap);
        EXPECT_EQ(got.isWrite, want.isWrite);
        EXPECT_EQ(got.dependent, want.dependent);
        EXPECT_EQ(got.addr, want.addr);
    }
}

TEST_F(FileTraceTest, ProgrammaticConstruction)
{
    FileTrace trace(std::vector<TraceOp>{{1, false, false, 0x40}});
    EXPECT_EQ(trace.next().addr, 0x40u);
    EXPECT_EQ(trace.next().addr, 0x40u);
}

TEST_F(FileTraceTest, MissingFileIsFatal)
{
    EXPECT_DEATH(FileTrace("/nonexistent/trace.txt"), "cannot open");
}

TEST_F(FileTraceTest, BadKindIsFatal)
{
    std::ofstream(path) << "1 Q 100\n";
    EXPECT_DEATH(FileTrace trace(path), "bad access kind");
}

TEST_F(FileTraceTest, BadAddressIsFatal)
{
    std::ofstream(path) << "1 R zz\n";
    EXPECT_DEATH(FileTrace trace(path), "bad address");
}

TEST_F(FileTraceTest, EmptyFileIsFatal)
{
    std::ofstream(path) << "# only a comment\n";
    EXPECT_DEATH(FileTrace trace(path), "no records");
}

TEST_F(FileTraceTest, GapOverflowIsFatal)
{
    // gap is stored in 32 bits; a larger value must refuse up front,
    // not truncate into a silently different trace.
    std::ofstream(path) << "5000000000 R 100\n";
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(FileTrace trace(path), "exceeds the per-record limit");
}

TEST_F(FileTraceTest, OverLongLineIsFatal)
{
    // A line longer than the bounded parse buffer is a malformed
    // record, not an excuse to allocate.
    std::ofstream(path) << "1 R 100 # " << std::string(8192, 'x')
                        << "\n";
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(FileTrace trace(path), "over-long line");
}

TEST_F(FileTraceTest, TrailingGarbageIsFatal)
{
    std::ofstream(path) << "1 R 100 xyzzy\n";
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(FileTrace trace(path), "trailing garbage");
}

TEST_F(FileTraceTest, StreamingMatchesInMemoryAcrossLoops)
{
    // Golden diff: the streamed file replay must be bit-identical to
    // the in-memory replay of the same records, including across the
    // rewind at each loop boundary.
    std::vector<TraceOp> records;
    std::mt19937_64 rng(0xf11e77ace5u);
    for (int n = 0; n < 3'000; ++n) {
        TraceOp op{};
        op.gap = static_cast<std::uint32_t>(rng() % 7);
        op.isWrite = rng() % 3 == 0;
        op.dependent = !op.isWrite && rng() % 5 == 0;
        op.addr = (rng() % (1u << 24)) * 64;
        records.push_back(op);
    }
    FileTrace::write(path, records);

    FileTrace streamed(path);
    FileTrace inMemory(records);
    ASSERT_EQ(streamed.size(), records.size());
    for (std::size_t i = 0; i < records.size() * 3 + 7; ++i) {
        TraceOp a = streamed.next();
        TraceOp b = inMemory.next();
        ASSERT_EQ(a.gap, b.gap) << "op " << i;
        ASSERT_EQ(a.isWrite, b.isWrite) << "op " << i;
        ASSERT_EQ(a.dependent, b.dependent) << "op " << i;
        ASSERT_EQ(a.addr, b.addr) << "op " << i;
    }
    EXPECT_EQ(streamed.opsEmitted(), inMemory.opsEmitted());
}

TEST_F(FileTraceTest, LargeFileStreamsBounded)
{
    // A few hundred MB of text trace must stream at O(1) memory: the
    // validation pass, the replay, and the loop rewind all reuse one
    // bounded line buffer. Write in large chunks so the test spends
    // its time streaming, not in per-line ofstream calls.
    constexpr std::size_t kLines = 24u << 20; // ~360MB of text
    {
        std::ofstream out(path, std::ios::binary);
        std::string chunk;
        chunk.reserve(1u << 20);
        char line[64];
        for (std::size_t i = 0; i < kLines; ++i) {
            int len = std::snprintf(line, sizeof(line), "%u %c %llx\n",
                                    static_cast<unsigned>(i % 5),
                                    i % 4 == 0 ? 'W' : 'R',
                                    0x1000ull + i % 4096 * 64);
            chunk.append(line, static_cast<std::size_t>(len));
            if (chunk.size() > (1u << 20) - 64) {
                out.write(chunk.data(),
                          static_cast<std::streamsize>(chunk.size()));
                chunk.clear();
            }
        }
        out.write(chunk.data(),
                  static_cast<std::streamsize>(chunk.size()));
        ASSERT_TRUE(out.good());
    }

    const std::size_t before = peakRssBytes();
    FileTrace trace(path); // validation pass streams the whole file
    ASSERT_EQ(trace.size(), kLines);
    // Stream well past one loop so the rewind path is covered too.
    for (std::size_t i = 0; i < kLines + 1'000; ++i) {
        TraceOp op = trace.next();
        ASSERT_EQ(op.addr % 64, 0u);
        ASSERT_GE(op.addr, 0x1000u);
    }
    const std::size_t after = peakRssBytes();
    EXPECT_LT(after - before, 48u << 20)
        << "streaming a ~360MB trace grew peak RSS by "
        << (after - before) << " bytes";
}

} // namespace
} // namespace dbsim
