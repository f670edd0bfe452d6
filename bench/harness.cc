#include "harness.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <map>

#include "common/logging.hh"
#include "telemetry/profiler.hh"

namespace dbsim::bench {

namespace {

std::vector<Experiment> &
registry()
{
    static std::vector<Experiment> experiments;
    return experiments;
}

std::uint64_t
parseUint(const char *flag, const std::string &text)
{
    char *end = nullptr;
    std::uint64_t v = std::strtoull(text.c_str(), &end, 10);
    fatal_if(end == text.c_str() || *end != '\0',
             "%s expects an unsigned integer, got '%s'", flag,
             text.c_str());
    return v;
}

void
printUsage(const char *argv0)
{
    std::printf("usage: %s [positional args...] [--mech SPEC] [--jobs N]\n"
                "        [--json FILE] [--seed S] [--warmup N] "
                "[--measure N] [--instrs K]\n"
                "        [--audit N] [--slices N] [--channels N] "
                "[--hop N]\n"
                "        [--dcache] [--dcache-mb N] [--dcache-rows N] "
                "[--dcache-tags]\n"
                "        [--trace FILE] [--ff N] [--sample-ops W] "
                "[--period P]\n"
                "        [--sample N] [--timeseries FILE]\n"
                "        [--trace-out FILE] [--hist] [--profile]\n"
                "        [--cache-dir DIR] [--no-cache] [--no-resume]\n"
                "        [--no-progress] [--list] [--help]\n\n"
                "experiments in this binary:\n",
                argv0);
    for (const auto &e : registry()) {
        std::printf("  %-24s %s\n", e.name.c_str(),
                    e.description.c_str());
    }
}

/**
 * Print the host-profiler attribution for every record that carries
 * one. The metrics map is rebuilt from the record's flat host entries
 * ("profile.<key>") so the printer shares HostProfiler::formatTable
 * with everything else that renders profiles.
 */
void
printProfileTables(const std::vector<exp::PointRecord> &records)
{
    for (const auto &rec : records) {
        std::map<std::string, double> prof;
        for (const auto &[k, v] : rec.host) {
            if (k.rfind("profile.", 0) == 0) {
                prof[k.substr(std::strlen("profile."))] = v;
            }
        }
        if (prof.empty()) {
            continue;
        }
        std::printf("\npoint %zu", rec.index);
        if (!rec.mechanism.empty()) {
            std::printf(" (%s)", rec.mechanism.c_str());
        }
        std::printf("\n%s",
                    telemetry::HostProfiler::formatTable(prof).c_str());
    }
}

} // namespace

std::uint64_t
HarnessOptions::posIntOr(std::size_t i, std::uint64_t def) const
{
    if (i >= positional.size()) {
        return def;
    }
    return parseUint("positional argument", positional[i]);
}

std::string
HarnessOptions::posOr(std::size_t i, const std::string &def) const
{
    return i < positional.size() ? positional[i] : def;
}

MechanismSpec
HarnessOptions::mechOr(const MechanismSpec &def) const
{
    return mechSpec ? mechanismByName(*mechSpec) : def;
}

void
HarnessOptions::applyDCache(SystemConfig &cfg) const
{
    if (!dcache) {
        return;
    }
    cfg.dcache.enable = true;
    if (dcacheMb) {
        cfg.dcache.sizeBytes = *dcacheMb << 20;
    }
    if (dcacheRows) {
        cfg.dcache.indexEntries = *dcacheRows;
    }
    cfg.dcache.dirtyInTags = dcacheTags;
}

void
HarnessOptions::applyTrace(SystemConfig &cfg) const
{
    if (!traceFile.empty()) {
        cfg.traceFile = traceFile;
    }
    cfg.sampling.ffOps = ffOps;
    cfg.sampling.sampleOps = sampleOps;
    cfg.sampling.periodOps = periodOps;
}

void
HarnessOptions::applySharding(SystemConfig &cfg) const
{
    if (slices) {
        cfg.llcSlices = *slices;
    }
    if (channels) {
        cfg.dram.channels = *channels;
    }
    if (hopLatency) {
        cfg.shardHopLatency = *hopLatency;
    }
}

telemetry::TelemetryConfig
HarnessOptions::telemetryConfig(const std::string &experiment) const
{
    telemetry::TelemetryConfig tc;
    tc.sampleEvery = sampleEvery;
    tc.timeseriesPath = timeseriesPath;
    if (sampleEvery > 0 && timeseriesPath.empty()) {
        tc.timeseriesPath = experiment + "_timeseries.jsonl";
    }
    tc.tracePath = tracePath;
    tc.histograms = histograms;
    return tc;
}

void
registerExperiment(Experiment experiment)
{
    registry().push_back(std::move(experiment));
}

int
harnessMain(int argc, char **argv)
{
    HarnessOptions opts;

    auto needValue = [&](int i) -> std::string {
        fatal_if(i + 1 >= argc, "%s requires a value", argv[i]);
        return argv[i + 1];
    };

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--jobs") == 0) {
            opts.jobs = static_cast<std::uint32_t>(
                parseUint(arg, needValue(i)));
            ++i;
        } else if (std::strcmp(arg, "--json") == 0) {
            opts.jsonPath = needValue(i);
            ++i;
        } else if (std::strcmp(arg, "--seed") == 0) {
            opts.seed = parseUint(arg, needValue(i));
            ++i;
        } else if (std::strcmp(arg, "--warmup") == 0) {
            opts.warmup = parseUint(arg, needValue(i));
            ++i;
        } else if (std::strcmp(arg, "--measure") == 0) {
            opts.measure = parseUint(arg, needValue(i));
            ++i;
        } else if (std::strcmp(arg, "--instrs") == 0) {
            std::uint64_t k = parseUint(arg, needValue(i));
            opts.warmup = k;
            opts.measure = k;
            ++i;
        } else if (std::strcmp(arg, "--mech") == 0) {
            opts.mechSpec = needValue(i);
            ++i;
        } else if (std::strcmp(arg, "--audit") == 0) {
            opts.auditEvery = parseUint(arg, needValue(i));
            ++i;
        } else if (std::strcmp(arg, "--slices") == 0) {
            opts.slices = static_cast<std::uint32_t>(
                parseUint(arg, needValue(i)));
            ++i;
        } else if (std::strcmp(arg, "--channels") == 0) {
            opts.channels = static_cast<std::uint32_t>(
                parseUint(arg, needValue(i)));
            ++i;
        } else if (std::strcmp(arg, "--hop") == 0) {
            opts.hopLatency = parseUint(arg, needValue(i));
            ++i;
        } else if (std::strcmp(arg, "--dcache") == 0) {
            opts.dcache = true;
        } else if (std::strcmp(arg, "--dcache-mb") == 0) {
            opts.dcacheMb = parseUint(arg, needValue(i));
            ++i;
        } else if (std::strcmp(arg, "--dcache-rows") == 0) {
            opts.dcacheRows = static_cast<std::uint32_t>(
                parseUint(arg, needValue(i)));
            ++i;
        } else if (std::strcmp(arg, "--dcache-tags") == 0) {
            opts.dcacheTags = true;
        } else if (std::strcmp(arg, "--sample") == 0) {
            opts.sampleEvery = parseUint(arg, needValue(i));
            ++i;
        } else if (std::strcmp(arg, "--timeseries") == 0) {
            opts.timeseriesPath = needValue(i);
            ++i;
        } else if (std::strcmp(arg, "--trace") == 0) {
            opts.traceFile = needValue(i);
            ++i;
        } else if (std::strcmp(arg, "--ff") == 0) {
            opts.ffOps = parseUint(arg, needValue(i));
            ++i;
        } else if (std::strcmp(arg, "--sample-ops") == 0) {
            opts.sampleOps = parseUint(arg, needValue(i));
            ++i;
        } else if (std::strcmp(arg, "--period") == 0) {
            opts.periodOps = parseUint(arg, needValue(i));
            ++i;
        } else if (std::strcmp(arg, "--trace-out") == 0) {
            opts.tracePath = needValue(i);
            ++i;
        } else if (std::strcmp(arg, "--hist") == 0) {
            opts.histograms = true;
        } else if (std::strcmp(arg, "--profile") == 0) {
            opts.profile = true;
        } else if (std::strcmp(arg, "--cache-dir") == 0) {
            opts.cacheDir = needValue(i);
            ++i;
        } else if (std::strcmp(arg, "--no-cache") == 0) {
            opts.noCache = true;
        } else if (std::strcmp(arg, "--no-resume") == 0) {
            opts.resume = false;
        } else if (std::strcmp(arg, "--no-progress") == 0) {
            opts.progress = false;
        } else if (std::strcmp(arg, "--list") == 0 ||
                   std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            printUsage(argv[0]);
            return 0;
        } else if (std::strncmp(arg, "--", 2) == 0) {
            std::fprintf(stderr, "unknown flag '%s'\n", arg);
            printUsage(argv[0]);
            return 2;
        } else {
            opts.positional.push_back(arg);
        }
    }

    fatal_if(registry().empty(), "no experiment registered");

    if (opts.cacheDir.empty()) {
        if (const char *env = std::getenv("DBSIM_CACHE_DIR")) {
            opts.cacheDir = env;
        }
    }
    if (opts.noCache) {
        opts.cacheDir.clear();
    }

    for (const auto &e : registry()) {
        exp::RunOptions run_opts;
        run_opts.jobs = e.serialOnly ? 1 : opts.jobs;
        run_opts.jsonlPath = opts.jsonPath;
        run_opts.progress = opts.progress;
        run_opts.experiment = e.name;
        run_opts.auditEvery = opts.auditEvery;
        run_opts.telemetry = opts.telemetryConfig(e.name);
        run_opts.profile = opts.profile;
        run_opts.cacheDir = opts.cacheDir;
        run_opts.resume = opts.resume;

        exp::SweepSpec spec = e.spec(opts);
        // Machine-shape flags are applied centrally, so every bench
        // honors them without knowing about sharding.
        spec.overrideConfigs([&opts](SystemConfig &cfg) {
            opts.applySharding(cfg);
            opts.applyDCache(cfg);
            opts.applyTrace(cfg);
        });
        exp::ExperimentRunner runner(run_opts);
        std::vector<exp::PointRecord> records = runner.run(spec);
        e.format(records, opts);
        if (opts.profile) {
            printProfileTables(records);
        }
    }
    return 0;
}

} // namespace dbsim::bench
