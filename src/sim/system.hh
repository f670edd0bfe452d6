/**
 * @file
 * Full-system wiring and the library's primary entry point: build a
 * system configuration (Table 1), pick a mechanism (Table 2) and a
 * workload mix, and run it to obtain per-core IPCs plus the memory-
 * system statistics the paper's figures are made of.
 *
 * Machines come in two shapes. The paper's Table 1 machine (the
 * default) has one monolithic LLC and one DRAM channel and runs on a
 * single EventQueue exactly as before. Scaled-up machines
 * (llcSlices/dram.channels > 1) are partitioned into shards — each
 * owning an EventQueue, an LLC slice with its own policy tuple, and a
 * DRAM channel — and executed epoch by epoch on one host thread; see
 * common/shard.hh and sim/topology.hh for the scheme.
 */

#ifndef DBSIM_SIM_SYSTEM_HH
#define DBSIM_SIM_SYSTEM_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "audit/auditor.hh"
#include "audit/dcache_auditor.hh"
#include "common/event_queue.hh"
#include "common/shard.hh"
#include "cpu/core.hh"
#include "cpu/core_memory.hh"
#include "dbi/dbi.hh"
#include "dcache/dcache.hh"
#include "dram/dram_controller.hh"
#include "llc/llc.hh"
#include "pred/miss_predictor.hh"
#include "sim/mechanism.hh"
#include "sim/topology.hh"
#include "telemetry/telemetry.hh"
#include "workload/mixes.hh"
#include "workload/file_trace.hh"
#include "workload/sampled_trace.hh"
#include "workload/synthetic_trace.hh"

namespace dbsim {

/** Whole-system configuration (Table 1 defaults). */
struct SystemConfig
{
    /**
     * The mechanism: a Table 2 preset (`Mechanism::Dbi`, implicitly
     * converted) or any composed policy tuple (see mechanismByName()).
     */
    MechanismSpec mech = Mechanism::TaDip;
    std::uint32_t numCores = 1;

    /** Shared LLC capacity per core (Table 1: 2MB/core). */
    std::uint64_t llcBytesPerCore = 2ull << 20;

    /**
     * LLC associativity and latencies; 0 means "derive from numCores"
     * per Table 1 (16/32-way, tag 10-14, data 24-33).
     */
    std::uint32_t llcAssoc = 0;
    std::uint32_t llcTagLatency = 0;
    std::uint32_t llcDataLatency = 0;

    /** Use DRRIP instead of TA-DIP for non-baseline mechanisms. */
    bool useDrrip = false;

    // -- Sharding knobs (0 = derive; see sim/topology.hh) -------------

    /**
     * Address-interleaved LLC slices, each with its own tag store, DBI,
     * and policy tuple (the paper's multi-bank DBI organization scaled
     * out). 0 derives Table-1 style: 1 slice up to 8 cores, one per 16
     * cores beyond. Part of the simulated machine: changes stats.
     */
    std::uint32_t llcSlices = 0;

    /**
     * Cross-shard hop latency in cycles (NUCA remote-slice / remote-
     * channel penalty), which is also the epoch-barrier lookahead.
     * 0 derives: 64 on sliced machines, none on unsharded ones.
     * Part of the simulated machine: changes stats.
     * DRAM channels are configured via `dram.channels` (0 = one per
     * LLC slice).
     */
    Cycle shardHopLatency = 0;

    /**
     * Accepts only 0 or 1: sliced machines run on one host thread, and
     * any other value is fatal. Kept only because the host-speed
     * benchmark sets it; goes with the next benchmark change.
     */
    std::uint32_t numShards = 0;

    DbiConfig dbi;
    DramConfig dram;

    /**
     * Die-stacked DRAM-cache tier interposed between each LLC slice and
     * its backing DDR path (src/dcache). Off by default; a disabled
     * dcache leaves the machine bit-identical to one without the level
     * wired in at all. Part of the simulated machine: changes stats.
     */
    DCacheConfig dcache;

    CoreConfig core;
    CoreMemoryConfig mem;
    SkipPredictorConfig pred;

    /**
     * When non-empty, every core replays this trace file instead of the
     * mix's synthetic profiles ("--trace" on the bench harness). Format
     * is detected from the file: ".champsim"/".bin" (optionally with a
     * ".gz"/".xz"/".zst" compression suffix) streams ChampSim binary
     * records (workload/champsim_trace.hh); ".trace"/".txt" streams the
     * native text format (workload/file_trace.hh); anything else is
     * sniffed from its first bytes. Traces are streamed with bounded
     * memory and never materialized whole.
     */
    std::string traceFile;

    /**
     * Fast-forward / SMARTS sampling (workload/sampled_trace.hh): warm
     * `ffOps` trace operations functionally before detailed simulation,
     * then alternate `sampleOps` detailed ops with `periodOps -
     * sampleOps` functionally warmed ops. Disabled by default; a
     * disabled config leaves the run bit-identical to one without the
     * sampling layer wired in at all. On sliced machines warming
     * reaches remote slices by direct call, outside the fabric.
     */
    SamplingConfig sampling;

    std::uint64_t seed = 1;

    /**
     * Dirty-state invariant auditing (src/audit): cross-check the
     * mechanism's dirty bookkeeping against a shadow ground-truth model
     * every `auditEvery` LLC events; 0 disables the auditor entirely.
     * Builds configured with -DDBSIM_AUDIT=ON (the default, so ctest
     * runs are covered) audit by default; the bench harness overrides
     * this to 0 so measured numbers never carry auditing overhead.
     * The auditor is passive — it changes no timing and no stats.
     * Sliced machines audit per slice (each slice has its own auditor).
     */
#ifdef DBSIM_AUDIT
    std::uint64_t auditEvery = 4096;
#else
    std::uint64_t auditEvery = 0;
#endif

    /**
     * Telemetry (src/telemetry): epoch time-series sampling, latency /
     * drain histograms, and Chrome-trace export. Off by default
     * (TelemetryConfig::enabled() is false); requesting it in a build
     * configured with -DDBSIM_TELEMETRY=OFF draws a warning and is
     * ignored. Observation is strictly passive: a run with telemetry on
     * is cycle- and stat-identical to the same run without. On sharded
     * runs each shard writes its own ".s<k>"-suffixed streams.
     */
    telemetry::TelemetryConfig telemetry;

    /**
     * Host-side profiling (src/telemetry/profiler.hh): attribute wall
     * time per shard to event dispatch by component vs. fabric drain
     * vs. epoch-barrier stall, plus per-epoch occupancy counters.
     * Surfaced as SimResult::hostProfile. Purely an observer of *host*
     * time: simulated state and statistics are bit-identical with it
     * on or off. Requesting it in a build configured with
     * -DDBSIM_TELEMETRY=OFF draws a warning and is ignored.
     */
    bool profile = false;

    /** Hard simulation cap; exceeded means a deadlock bug. */
    Cycle maxCycles = 20'000'000'000ull;

    /** Resolved LLC config for this core count (machine-wide size;
     *  System divides capacity across slices). */
    LlcConfig resolveLlc() const;

    /** Resolved, validated machine partitioning for these knobs. */
    ShardTopology topology() const;
};

/**
 * Result of one simulation.
 *
 * Per-core IPCs are measured over each core's own warmup-to-done
 * window and are exact. The aggregate `stats` window opens when the
 * slowest core finishes warmup; in short runs with extreme per-core IPC
 * ratios, a fast core may hit its overrun cap before that, so
 * system-wide counters can under-represent it (the per-core metrics
 * the paper's multi-core results use are unaffected).
 */
struct SimResult
{
    std::vector<double> ipc;                 ///< per core
    std::map<std::string, std::uint64_t> stats;  ///< measurement window
    std::uint64_t totalInstrs = 0;           ///< across cores (measured)
    Cycle windowCycles = 0;                  ///< global measurement span
    double readRowHitRate = 0.0;
    double writeRowHitRate = 0.0;
    double tagLookupsPki = 0.0;
    double wpki = 0.0;   ///< memory writes per kilo instructions
    double mpki = 0.0;   ///< LLC demand misses per kilo instructions
    double dramEnergyPj = 0.0;

    /**
     * Histogram summaries ("hist.<name>.<stat>") when the run collected
     * telemetry histograms; empty otherwise. Deterministic in the
     * simulation. Sharded runs prefix each shard's entries "s<k>.".
     */
    std::map<std::string, double> telemetry;

    /**
     * Metrics reported by attached metadata subsystems ("ecc.*" /
     * "dir.*" — hetero-ECC protection outcomes and storage/energy
     * accounting, coherence-directory activity) when the mechanism spec
     * attaches them; empty otherwise. Sliced machines attach one index
     * set per slice and prefix each slice's entries "s<k>.".
     */
    std::map<std::string, double> metadata;

    /**
     * Host-profiler attribution ("runMs", "fabricDrainMs", "shards",
     * "s<k>.workMs" / "s<k>.stallMs" / "s<k>.comp.<name>.ms", ...)
     * when the run was profiled (SystemConfig::profile); empty
     * otherwise. Host wall-clock derived, therefore NON-deterministic —
     * never fold into cached or golden-compared data (the JSONL layer
     * keeps it in the separate "host" object for the same reason).
     */
    std::map<std::string, double> hostProfile;
};

class ShardLlcPort;
class ShardMemRouter;
class ShardFlowTracer;

namespace telemetry {
class HostProfiler;
} // namespace telemetry

/**
 * One simulated machine: cores + private caches + sliced shared LLC
 * (mechanism variant) + DRAM channels, partitioned into shards each
 * driving its own event queue.
 *
 * Compatibility façade: on the default single-shard machine llc(),
 * dram(), dbi(), auditor() and telemetry() mean what they always did;
 * on sliced machines they refer to slice/channel/shard 0, with
 * llcSlice()/dramChannel()/sliceAuditor() for the rest.
 */
class System
{
  public:
    /**
     * @param mix one entry per core: either a benchmark name from
     *        src/workload/profiles (synthetic trace) or "@<path>" to
     *        replay a trace file (see workload/file_trace.hh).
     */
    System(const SystemConfig &config, const WorkloadMix &mix);
    ~System();

    /** Run warmup + measurement; collect results. */
    SimResult run();

    /** The resolved machine partitioning. */
    const ShardTopology &topology() const { return topo; }

    std::uint32_t numSlices() const { return topo.slices; }
    std::uint32_t numChannels() const { return topo.channels; }

    /** Shards the machine is partitioned into. */
    std::uint32_t numPartitions() const { return topo.partitions; }

    /** The LLC — slice 0 on sliced machines (for tests and examples). */
    Llc &llc() { return *slices[0]; }

    /** LLC slice `s`. */
    Llc &llcSlice(std::uint32_t s) { return *slices.at(s); }

    /** Slice 0's DBI, if the mechanism has one (nullptr otherwise). */
    Dbi *dbi();

    /** Attached metadata subsystems, all slices in slice order. */
    const std::vector<std::unique_ptr<MetadataIndex>> &
    metadata() const
    {
        return metaIndexes;
    }

    /** The DRAM controller — channel 0 on multi-channel machines. */
    DramController &dram() { return *chans[0]; }

    /** DRAM channel `c`. */
    DramController &dramChannel(std::uint32_t c) { return *chans.at(c); }

    /** The interposed DRAM cache — slice 0's when enabled, nullptr
     *  otherwise. */
    DramCache *dcache() { return dcaches.empty() ? nullptr : dcaches[0].get(); }

    /** Slice `s`'s DRAM cache (nullptr when the tier is disabled). */
    DramCache *
    dcacheSlice(std::uint32_t s)
    {
        return dcaches.empty() ? nullptr : dcaches.at(s).get();
    }

    /** Slice `s`'s DRAM-cache auditor (nullptr when auditing is off or
     *  the tier is disabled). */
    audit::DCacheAuditor *
    dcacheAuditor(std::uint32_t s)
    {
        return dcacheAuditors.empty() ? nullptr
                                      : dcacheAuditors.at(s).get();
    }

    /** The cross-shard mailbox (nullptr on single-shard machines). */
    const ShardFabric *fabric() const { return fab.get(); }

    /**
     * Events the simulation kernel has dispatched so far, summed over
     * every shard's queue — the denominator of the host-performance
     * metrics (events/sec, ns/event) bench/host_perf.cpp reports.
     * Deterministic: identical configs dispatch identical event counts.
     */
    std::uint64_t eventsDispatched() const;

    /** Slice 0's invariant auditor, when enabled (nullptr otherwise). */
    audit::InvariantAuditor *auditor()
    {
        return auditors.empty() ? nullptr : auditors[0].get();
    }

    /** Slice `s`'s invariant auditor (nullptr when auditing is off). */
    audit::InvariantAuditor *
    sliceAuditor(std::uint32_t s)
    {
        return auditors.empty() ? nullptr : auditors.at(s).get();
    }

    /** Shard 0's telemetry sink, when enabled (nullptr otherwise). */
    dbsim::telemetry::SimTelemetry *
    telemetry()
    {
        return telems.empty() ? nullptr : telems[0].get();
    }

    /** Per-core private hierarchy (for inspection). */
    CoreMemory &coreMemory(std::uint32_t core) { return *mems.at(core); }

    /**
     * Core `core`'s operation source — the SampledTrace wrapper when
     * sampling is enabled (its opsEmitted()/opsWarmed()/opsMeasured()
     * feed the ingest benchmark), the raw trace otherwise.
     */
    TraceSource &traceSource(std::uint32_t core)
    {
        return *traces.at(core);
    }

  private:
    void onCoreWarmed(std::uint32_t core_id);
    void onCoreDone(std::uint32_t core_id);
    void setupTelemetry(std::uint32_t part);

    /** Legacy engine: the whole machine on one queue, one thread. */
    void runSingle();

    /** Epoch-barrier engine for partitioned machines. */
    void runSharded();

    /** Run shard `part`'s events up to and including `limit`. */
    void runShardEpoch(std::uint32_t part, Cycle limit);

    SimResult assembleResult();

    SystemConfig cfg;
    WorkloadMix workload;
    ShardTopology topo;

    std::vector<std::unique_ptr<EventQueue>> queues;  ///< per shard
    std::vector<EventQueue *> queuePtrs;
    std::unique_ptr<ShardFabric> fab;                 ///< sharded only
    std::vector<std::unique_ptr<DramController>> chans;
    // Backing chain declared bottom-up: each level holds a reference to
    // the one below, so destruction (reverse order) tears the chain
    // down top-first.
    std::vector<std::unique_ptr<ShardMemRouter>> memRouters;  ///< per slice
    std::vector<std::unique_ptr<DramCache>> dcaches;  ///< per slice (opt)
    std::vector<std::shared_ptr<MissPredictor>> predictors;  ///< per slice
    std::vector<std::unique_ptr<Llc>> slices;
    std::vector<std::unique_ptr<audit::DCacheAuditor>> dcacheAuditors;
    std::vector<std::unique_ptr<ShardLlcPort>> corePorts;     ///< per shard
    std::vector<std::unique_ptr<MetadataIndex>> metaIndexes;
    std::vector<std::uint32_t> metaSlices;  ///< owning slice per index
    std::vector<std::unique_ptr<audit::InvariantAuditor>> auditors;
    std::vector<std::unique_ptr<dbsim::telemetry::SimTelemetry>> telems;
    std::unique_ptr<ShardFlowTracer> flowTracer;      ///< sharded traces
    std::unique_ptr<dbsim::telemetry::HostProfiler> profiler;
    std::vector<std::unique_ptr<TraceSource>> traces;
    std::vector<std::unique_ptr<CoreMemory>> mems;
    std::vector<std::unique_ptr<Core>> cores;
    StatSet statSet;

    std::uint32_t warmedCount = 0;
    std::uint32_t doneCount = 0;
    Cycle warmTime = 0;
    Cycle doneTime = 0;

    /** Epoch-engine milestones already acted on at a barrier. */
    bool warmSnapshotTaken = false;
    bool haltIssued = false;
};

/** Convenience: build and run in one call. */
SimResult runWorkload(const SystemConfig &config, const WorkloadMix &mix);

} // namespace dbsim

#endif // DBSIM_SIM_SYSTEM_HH
