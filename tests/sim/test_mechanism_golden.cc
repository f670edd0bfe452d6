/**
 * @file
 * Mechanism-equivalence golden suite: every Table 2 preset, run through
 * the composed-policy LLC (DirtyStore x WritebackPolicy x LookupPolicy,
 * see src/llc/policies.hh), on unsliced and sliced machines, must
 * reproduce the frozen stats snapshot in tests/sim/mechanism_golden.inc
 * bit for bit — IPCs and derived metrics at %.17g (round-trip exact for
 * doubles), every registered counter at full width. Regenerate the snapshot only for an
 * intentional behavior change, via the gen_mechanism_golden tool.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "sim/golden_run.hh"

#include "sim/mechanism_golden.inc"

namespace dbsim {
namespace {

/**
 * Split the snapshot into per-run blocks keyed by the "run <label> |
 * <mix>" header line (header included in the block, so a comparison
 * failure prints which run it is).
 */
std::map<std::string, std::string>
goldenBlocks()
{
    std::map<std::string, std::string> blocks;
    const std::string all(kMechanismGolden);
    std::string key;
    std::size_t pos = 0;
    while (pos < all.size()) {
        std::size_t eol = all.find('\n', pos);
        if (eol == std::string::npos) {
            eol = all.size();
        }
        const std::string line = all.substr(pos, eol - pos);
        if (line.rfind("run ", 0) == 0) {
            key = line;
            blocks[key] = line + "\n";
        } else if (!key.empty() && !line.empty()) {
            blocks[key] += line + "\n";
        }
        pos = eol + 1;
    }
    return blocks;
}

class MechanismGolden : public testing::TestWithParam<std::size_t>
{};

TEST_P(MechanismGolden, PresetReproducesSnapshotExactly)
{
    const golden::GoldenRun &g = golden::goldenRuns()[GetParam()];
    const SimResult r = runWorkload(golden::goldenRunConfig(g), g.mix);
    const std::string label = golden::goldenLabel(g);
    const std::string got = golden::goldenSerialize(label, g.mix, r);

    const std::string key = "run " + label + " | " + mixLabel(g.mix);
    static const std::map<std::string, std::string> blocks =
        goldenBlocks();
    auto it = blocks.find(key);
    ASSERT_NE(it, blocks.end()) << "no golden block for " << key;
    EXPECT_EQ(got, it->second);
}

std::string
goldenTestName(const testing::TestParamInfo<std::size_t> &info)
{
    const golden::GoldenRun &g = golden::goldenRuns()[info.param];
    std::string name = std::string(g.preset) + "_" + mixLabel(g.mix);
    if (*g.machine) {
        name = std::string("Sliced_") + g.machine + "_" + name;
    }
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) {
            c = '_';
        }
    }
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    Table2, MechanismGolden,
    testing::Range<std::size_t>(0, golden::goldenRuns().size()),
    goldenTestName);

TEST(MechanismGolden, SnapshotCoversEveryPresetAndMix)
{
    const auto blocks = goldenBlocks();
    EXPECT_EQ(blocks.size(), golden::goldenRuns().size());
    for (const golden::GoldenRun &g : golden::goldenRuns()) {
        const std::string key =
            "run " + golden::goldenLabel(g) + " | " + mixLabel(g.mix);
        EXPECT_TRUE(blocks.count(key)) << key;
    }
}

} // namespace
} // namespace dbsim
