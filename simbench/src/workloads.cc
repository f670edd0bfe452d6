#include "workloads.hh"

#include <cstdio>

#include "common/logging.hh"
#include "workload/sampled_trace.hh"

namespace simbench {

using namespace dbsim;

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "read_chase_1c", "wb_heavy_2c", "trace_sampled", "sliced_64c"};
    return names;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed,
             const std::string &trace_file)
{
    Workload w;
    w.name = name;
    w.cfg.seed = seed;
    w.cfg.auditEvery = 0;
    // Runs are short (about 50-250 ms on a 4-vCPU Xeon VM) so one
    // process makes hundreds of repeats and its slow-tail quantile is
    // well defined (see kSlowTail in main.cc).
    if (name == "read_chase_1c") {
        w.cfg.mech = mechanismByName("TA-DIP");
        w.cfg.numCores = 1;
        w.mix = {"mcf"};
        w.cfg.core.warmupInstrs = 100'000;
        w.cfg.core.measureInstrs = 400'000;
    } else if (name == "wb_heavy_2c") {
        w.cfg.mech = mechanismByName("DBI+AWB+CLB");
        w.cfg.numCores = 2;
        w.mix = {"lbm", "libquantum"};
        // Scaled to this short run (~0.9M cycles): a 512 KB LLC (256 KB
        // per core, not Table 1's 2 MB) fills within its first tenth, so
        // most of the run evicts dirty lines through the DBI and AWB, and
        // 250k-cycle predictor epochs (not 5M) let CLB start bypassing.
        w.cfg.llcBytesPerCore = 256ull << 10;
        w.cfg.pred.epochCycles = 250'000;
        w.cfg.core.warmupInstrs = 50'000;
        w.cfg.core.measureInstrs = 150'000;
    } else if (name == "trace_sampled") {
        w.cfg.mech = mechanismByName("DBI+AWB");
        w.cfg.numCores = 1;
        w.mix = {"mcf"};  // inert: every core replays the trace
        w.cfg.core.warmupInstrs = 10'000;
        w.cfg.core.measureInstrs = 50'000;
        w.cfg.sampling.ffOps = 100'000;
        w.cfg.sampling.sampleOps = 10'000;
        w.cfg.sampling.periodOps = 100'000;
        fatal_if(trace_file.empty(), "%s replays a trace file; pass one",
                 name.c_str());
        w.cfg.traceFile = trace_file;
    } else if (name == "sliced_64c") {
        w.cfg.mech = mechanismByName("DBI");
        w.cfg.numCores = 64;
        w.cfg.llcSlices = 4;
        w.cfg.dram.channels = 4;
        // One worker thread runs all shards. With one per shard (the
        // derived count on a 4-CPU host) every epoch wakes the sleeping
        // workers, and host wake latency under a neighbour's load made
        // 6 of 20 runs 3-6x slower than the rest, for minutes at a time
        // (4-vCPU Xeon VM). One worker was also 2x faster in calm runs.
        w.cfg.numShards = 1;
        const char *rota[] = {"mcf", "lbm", "stream", "libquantum"};
        for (int c = 0; c < 64; ++c) {
            w.mix.push_back(rota[c % 4]);
        }
        w.cfg.core.warmupInstrs = 5'000;
        w.cfg.core.measureInstrs = 5'000;
    } else {
        fatal("unknown workload '%s'", name.c_str());
    }
    return w;
}

std::string
Fingerprint::str() const
{
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "events=%llu window_cycles=%llu dram_reads=%llu "
                  "dram_writes=%llu ipc=",
                  static_cast<unsigned long long>(events),
                  static_cast<unsigned long long>(windowCycles),
                  static_cast<unsigned long long>(dramReads),
                  static_cast<unsigned long long>(dramWrites));
    std::string out = buf;
    for (std::size_t i = 0; i < ipc.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "", ipc[i]);
        out += buf;
    }
    return out;
}

void
addCounts(MachineCounts &out, CoreMemory &mem)
{
    out.loads += mem.statLoads.value();
    out.stores += mem.statStores.value();
    out.l1Hits += mem.statL1Hits.value();
    out.mshrMerges += mem.statMshrMerges.value();
    out.llcAccesses += mem.statLlcAccesses.value();
}

void
addCounts(MachineCounts &out, Llc &llc)
{
    out.tagLookups += llc.statTagLookups.value();
    out.writebacksIn += llc.statWritebacksIn.value();
    out.wbToDram += llc.statWbToDram.value();
    out.bypasses += llc.statBypasses.value();
    out.dbiChecks += llc.statDbiChecks.value();
    if (const Dbi *dbi = llc.dbiIndex()) {
        out.dbiUpdates += dbi->statUpdates.value();
        out.dbiEvictions += dbi->statEvictions.value();
    }
}

void
addCounts(MachineCounts &out, DramController &dram)
{
    out.dramReads += dram.statReads.value();
    out.dramWrites += dram.statWrites.value();
    out.dramForwards += dram.statForwards.value();
    out.dramReadRowHits += dram.statReadRowHits.value();
    out.dramWriteRowHits += dram.statWriteRowHits.value();
    out.drainCyclesWindow += dram.statDrainCycles.sinceSnapshot();
}

MachineCounts
countsOf(System &sys, const Workload &w)
{
    MachineCounts out;
    for (std::uint32_t c = 0; c < w.cfg.numCores; ++c) {
        addCounts(out, sys.coreMemory(c));
        if (w.cfg.sampling.enabled()) {
            out.warmedOps +=
                dynamic_cast<SampledTrace &>(sys.traceSource(c)).opsWarmed();
        }
    }
    for (std::uint32_t s = 0; s < sys.numSlices(); ++s) {
        addCounts(out, sys.llcSlice(s));
    }
    for (std::uint32_t c = 0; c < sys.numChannels(); ++c) {
        addCounts(out, sys.dramChannel(c));
    }
    return out;
}

Fingerprint
fingerprintOf(System &sys, const SimResult &res)
{
    Fingerprint fp;
    fp.events = sys.eventsDispatched();
    fp.windowCycles = res.windowCycles;
    fp.ipc = res.ipc;
    for (std::uint32_t c = 0; c < sys.numChannels(); ++c) {
        fp.dramReads += sys.dramChannel(c).statReads.value();
        fp.dramWrites += sys.dramChannel(c).statWrites.value();
    }
    return fp;
}

} // namespace simbench
