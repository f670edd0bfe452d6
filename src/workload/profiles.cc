#include "profiles.hh"

#include "common/logging.hh"

namespace dbsim {

namespace {

constexpr std::uint64_t KB = 1024;
constexpr std::uint64_t MB = 1024 * 1024;

/**
 * Parameters are calibrated so the simulated baseline reproduces each
 * benchmark's character from Figure 6: the low-IPC pointer chasers
 * (mcf: high depFrac, random reads), the write-intensive streamers
 * (lbm, stream, GemsFDTD: many concurrently-active write rows, which
 * scatters the baseline's writeback order), the read-streaming
 * libquantum, and the cache-friendly tail (bzip2, astar, bwaves).
 */
std::vector<BenchProfile>
buildProfiles()
{
    using I = Intensity;
    std::vector<BenchProfile> v;

    // name, memFrac, writeFrac, depFrac,
    // readMix{hot,warm,stream,cold}, writeMix{hot,warm,stream,cold},
    // hotB, warmB, coldB, streamB, readRows, writeRows, readCls, writeCls
    v.push_back({"mcf", 0.35, 0.25, 0.75,
                 {0.61, 0.22, 0.00, 0.17}, {0.70, 0.00, 0.26, 0.04},
                 16 * KB, 2 * MB, 512 * MB, 64 * MB, 1, 12,
                 I::High, I::Medium});
    v.push_back({"lbm", 0.33, 0.45, 0.10,
                 {0.10, 0.00, 0.85, 0.05}, {0.05, 0.00, 0.95, 0.00},
                 16 * KB, 2 * MB, 256 * MB, 128 * MB, 8, 48,
                 I::High, I::High});
    v.push_back({"GemsFDTD", 0.30, 0.33, 0.15,
                 {0.30, 0.00, 0.65, 0.05}, {0.30, 0.00, 0.70, 0.00},
                 32 * KB, 3 * MB, 256 * MB, 96 * MB, 8, 32,
                 I::High, I::High});
    v.push_back({"soplex", 0.30, 0.25, 0.30,
                 {0.47, 0.25, 0.25, 0.03}, {0.63, 0.02, 0.35, 0.00},
                 32 * KB, 2 * MB, 256 * MB, 64 * MB, 4, 16,
                 I::Medium, I::Medium});
    v.push_back({"omnetpp", 0.32, 0.30, 0.50,
                 {0.70, 0.25, 0.00, 0.05}, {0.775, 0.00, 0.20, 0.025},
                 32 * KB, 1536 * KB, 256 * MB, 64 * MB, 1, 12,
                 I::Medium, I::Medium});
    v.push_back({"cactusADM", 0.28, 0.30, 0.25,
                 {0.55, 0.15, 0.28, 0.02}, {0.55, 0.00, 0.45, 0.00},
                 32 * KB, 3 * MB, 256 * MB, 64 * MB, 4, 24,
                 I::Medium, I::Medium});
    v.push_back({"stream", 0.40, 0.33, 0.00,
                 {0.25, 0.00, 0.75, 0.00}, {0.10, 0.00, 0.90, 0.00},
                 16 * KB, 2 * MB, 64 * MB, 128 * MB, 4, 16,
                 I::High, I::High});
    v.push_back({"leslie3d", 0.28, 0.28, 0.20,
                 {0.66, 0.00, 0.33, 0.01}, {0.55, 0.00, 0.45, 0.00},
                 32 * KB, 2 * MB, 64 * MB, 96 * MB, 4, 24,
                 I::Medium, I::Medium});
    v.push_back({"milc", 0.27, 0.25, 0.15,
                 {0.70, 0.04, 0.25, 0.01}, {0.50, 0.00, 0.50, 0.00},
                 32 * KB, 2 * MB, 128 * MB, 64 * MB, 4, 32,
                 I::Medium, I::Medium});
    v.push_back({"sphinx3", 0.30, 0.08, 0.20,
                 {0.56, 0.24, 0.20, 0.00}, {0.90, 0.00, 0.10, 0.00},
                 32 * KB, 1536 * KB, 64 * MB, 64 * MB, 2, 4,
                 I::Medium, I::Low});
    v.push_back({"libquantum", 0.25, 0.25, 0.05,
                 {0.42, 0.00, 0.58, 0.00}, {0.50, 0.00, 0.50, 0.00},
                 16 * KB, 2 * MB, 64 * MB, 128 * MB, 1, 4,
                 I::High, I::Medium});
    v.push_back({"bzip2", 0.28, 0.30, 0.30,
                 {0.825, 0.17, 0.00, 0.005}, {0.89, 0.01, 0.10, 0.00},
                 64 * KB, 1 * MB, 64 * MB, 32 * MB, 1, 8,
                 I::Low, I::Low});
    v.push_back({"astar", 0.30, 0.25, 0.50,
                 {0.85, 0.145, 0.00, 0.005}, {0.90, 0.00, 0.095, 0.005},
                 64 * KB, 1 * MB, 128 * MB, 32 * MB, 1, 8,
                 I::Low, I::Low});
    v.push_back({"bwaves", 0.25, 0.15, 0.10,
                 {0.94, 0.00, 0.06, 0.00}, {0.85, 0.00, 0.15, 0.00},
                 64 * KB, 2 * MB, 64 * MB, 64 * MB, 2, 4,
                 I::Low, I::Low});
    return v;
}

} // namespace

const std::vector<BenchProfile> &
allBenchmarks()
{
    static const std::vector<BenchProfile> profiles = buildProfiles();
    return profiles;
}

const BenchProfile &
benchmarkByName(const std::string &name)
{
    for (const auto &p : allBenchmarks()) {
        if (p.name == name) {
            return p;
        }
    }
    fatal("unknown benchmark '%s'", name.c_str());
}

} // namespace dbsim
