/**
 * @file
 * The benchmark's workloads, their seeded inputs, and the simulated
 * fingerprint every repeat of a run must reproduce.
 *
 * Each workload loads a different layer of the simulator (see
 * simbench/README.md for which layers each loads and bypasses):
 *
 *   read_chase_1c  TA-DIP, 1 core, mcf: pointer chasing, MLP near 1.
 *   wb_heavy_2c    DBI+AWB+CLB, 2 cores, lbm+libquantum: AWB drains,
 *                  CLB bypasses, deep DRAM queues.
 *   trace_sampled  DBI+AWB, 1 core, a seeded gen_trace ChampSim trace
 *                  under fast-forward plus SMARTS sampling.
 *   sliced_64c     DBI, 64 cores, 4 slices, 4 channels: the sharded
 *                  epoch engine and fabric, on one worker thread.
 */

#ifndef SIMBENCH_WORKLOADS_HH
#define SIMBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/system.hh"

namespace simbench {

/** One workload instance: a machine, its inputs, and its run length. */
struct Workload
{
    std::string name;
    dbsim::SystemConfig cfg;  ///< auditEvery = 0: timed runs never audit
    dbsim::WorkloadMix mix;

    /** True when the machine runs on one EventQueue (no shards). */
    bool singleShard() const { return cfg.topology().partitions == 1; }

    /** Instructions the detailed core model retires per run: every
     *  core's warm-up plus measurement window. */
    std::uint64_t
    simInstrs() const
    {
        return std::uint64_t(cfg.numCores) *
               (cfg.core.warmupInstrs + cfg.core.measureInstrs);
    }
};

/** The workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/**
 * Build workload `name` for `seed`. A trace-driven workload replays
 * `trace_file`, which the caller generated from the same seed (run.py
 * does, with the simulator's gen_trace tool). Unknown names are fatal.
 */
Workload makeWorkload(const std::string &name, std::uint64_t seed,
                      const std::string &trace_file);

/**
 * What a run simulated, reduced to the numbers that must repeat
 * exactly: events dispatched, the measurement window in cycles,
 * per-core IPC, and lifetime DRAM reads and writes.
 */
struct Fingerprint
{
    std::uint64_t events = 0;
    std::uint64_t windowCycles = 0;
    std::vector<double> ipc;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;

    bool operator==(const Fingerprint &o) const = default;

    /** Exact text form (IPC printed with round-trip precision). */
    std::string str() const;
};

/**
 * Lifetime counters of the machine's components, summed over cores,
 * slices and channels. Read through the components' public counters,
 * so a System and the traced composition report them the same way.
 */
struct MachineCounts
{
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t mshrMerges = 0;
    std::uint64_t llcAccesses = 0;     ///< CoreMemory -> LlcPort::read
    std::uint64_t tagLookups = 0;
    std::uint64_t writebacksIn = 0;    ///< LlcPort::writeback calls
    std::uint64_t wbToDram = 0;        ///< BackingPort::write calls
    std::uint64_t bypasses = 0;
    std::uint64_t dbiChecks = 0;
    std::uint64_t dbiUpdates = 0;
    std::uint64_t dbiEvictions = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    std::uint64_t dramForwards = 0;
    std::uint64_t dramReadRowHits = 0;
    std::uint64_t dramWriteRowHits = 0;
    std::uint64_t drainCyclesWindow = 0;  ///< since the warm-up snapshot
    std::uint64_t warmedOps = 0;          ///< functionally warmed ops

    /** Trace ops consumed: issued memory ops plus warmed ops. */
    std::uint64_t traceOps() const { return loads + stores + warmedOps; }
};

/** Counters of `sys` after its run. */
MachineCounts countsOf(dbsim::System &sys, const Workload &w);

/** Fingerprint of `sys` after run() returned `res`. */
Fingerprint fingerprintOf(dbsim::System &sys, const dbsim::SimResult &res);

/** Add one component's counters into `out`. */
void addCounts(MachineCounts &out, dbsim::CoreMemory &mem);
void addCounts(MachineCounts &out, dbsim::Llc &llc);
void addCounts(MachineCounts &out, dbsim::DramController &dram);

} // namespace simbench

#endif // SIMBENCH_WORKLOADS_HH
