/**
 * @file
 * Per-test scratch paths. gtest_discover_tests runs every TEST as its
 * own process and `ctest -j` runs those processes concurrently, so a
 * fixed name under ::testing::TempDir() lets one test truncate another
 * test's input mid-read. A TempPath names the running test and process
 * and removes whatever was created at it when it goes out of scope.
 */

#ifndef DBSIM_TESTS_SUPPORT_TEMP_PATH_HH
#define DBSIM_TESTS_SUPPORT_TEMP_PATH_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <system_error>

namespace dbsim::test {

class TempPath
{
  public:
    /**
     * TempDir() + "dbsim_<suite>.<test>.<pid>" + suffix. Must be
     * constructed while a test runs (fixture members qualify).
     */
    explicit TempPath(const std::string &suffix = "")
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        // A "threadsafe"-style death test re-executes the binary, and
        // the child re-runs the test body up to the death, then exits
        // without unwinding: it must reuse its parent's path, which
        // the parent removes.
        const pid_t pid = inReexecutedDeathTest() ? ::getppid() : ::getpid();
        std::string name = std::string("dbsim_") + info->test_suite_name() +
                           "." + info->name() + "." + std::to_string(pid) +
                           suffix;
        // Parameterized suites and tests carry '/' in their names.
        std::replace(name.begin(), name.end(), '/', '_');
        p = ::testing::TempDir() + name;
    }

    ~TempPath()
    {
        std::error_code ec;
        std::filesystem::remove_all(p, ec);
    }

    TempPath(const TempPath &) = delete;
    TempPath &operator=(const TempPath &) = delete;

    const std::string &str() const { return p; }
    operator const std::string &() const { return p; }

  private:
    /**
     * gtest passes a re-executed death-test child this flag on its
     * command line; read it there because the flag's C++ name differs
     * across gtest versions.
     */
    static bool
    inReexecutedDeathTest()
    {
        std::ifstream in("/proc/self/cmdline", std::ios::binary);
        std::string args{std::istreambuf_iterator<char>(in), {}};
        return args.find("--gtest_internal_run_death_test=") !=
               std::string::npos;
    }

    std::string p;
};

} // namespace dbsim::test

#endif // DBSIM_TESTS_SUPPORT_TEMP_PATH_HH
