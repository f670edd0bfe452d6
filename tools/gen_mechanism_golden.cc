/**
 * @file
 * Regenerates tests/sim/mechanism_golden.inc: the stats snapshot every
 * Table 2 preset must reproduce exactly (see tests/sim/golden_run.hh
 * for the run grid). Run from the repo root:
 *
 *   g++ -std=c++20 -O2 -Isrc -Itests tools/gen_mechanism_golden.cc \
 *       $(find build/src -name '*.a' | sort -r) ... (or use the
 *       gen_mechanism_golden CMake target) > tests/sim/mechanism_golden.inc
 *
 * Only regenerate the snapshot when an intentional behavior change is
 * being made; the point of the file is to freeze preset behavior across
 * refactors of the mechanism plumbing.
 */

#include <cstdio>
#include <string>

#include "sim/golden_run.hh"

using namespace dbsim;

int
main()
{
    std::string body;
    for (const golden::GoldenRun &g : golden::goldenRuns()) {
        SimResult r = runWorkload(golden::goldenRunConfig(g), g.mix);
        body += golden::goldenSerialize(golden::goldenLabel(g), g.mix, r);
    }
    std::printf("// Generated by tools/gen_mechanism_golden.cc — "
                "do not edit by hand.\n"
                "// Frozen per-preset stats for the mechanism-equivalence "
                "golden suite.\n"
                "static const char kMechanismGolden[] = R\"GOLDEN(\n%s"
                ")GOLDEN\";\n",
                body.c_str());
    return 0;
}
