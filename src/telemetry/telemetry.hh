/**
 * @file
 * SimTelemetry: the per-System telemetry sink tying the primitives
 * together — an epoch StatSampler (time-series JSONL + trace counter
 * tracks), request-class latency / drain-burst / dirty-blocks-per-row
 * Histograms (the paper's Fig. 2 distribution), and a Chrome-trace
 * TraceWriter with duration events for DRAM drain windows, DBI
 * eviction drains, AWB bursts, and CLB bypass decisions.
 *
 * Observation is non-perturbing by construction: hooks read state and
 * record into telemetry-private structures only; no Counter, no
 * simulated cycle, and no replacement state is ever touched. A run
 * with telemetry attached is cycle- and stat-identical to one without.
 *
 * Compile-time no-op path: building with -DDBSIM_TELEMETRY=OFF sets
 * telemetry::kEnabled to false and every hook site (guarded by
 * `if constexpr (telemetry::kEnabled)`) is discarded entirely, like
 * DBSIM_AUDIT for the invariant auditor.
 */

#ifndef DBSIM_TELEMETRY_TELEMETRY_HH
#define DBSIM_TELEMETRY_TELEMETRY_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/types.hh"
#include "dram/dram_controller.hh"
#include "telemetry/histogram.hh"
#include "telemetry/sampler.hh"
#include "telemetry/trace_writer.hh"

namespace dbsim::telemetry {

/** True when the build carries the telemetry hooks (DBSIM_TELEMETRY). */
#ifdef DBSIM_TELEMETRY
inline constexpr bool kEnabled = true;
#else
inline constexpr bool kEnabled = false;
#endif

/**
 * Telemetry knobs for one System run. Plain data with no behaviour, so
 * it is always compiled (SystemConfig embeds one) regardless of
 * DBSIM_TELEMETRY; a non-default config in a telemetry-free build
 * draws a warning from System and is otherwise ignored.
 */
struct TelemetryConfig
{
    /** Epoch length in simulated cycles; 0 disables the sampler. */
    Cycle sampleEvery = 0;

    /** Epochs retained in the in-memory ring. */
    std::size_t ringCapacity = 4096;

    /** Per-epoch time-series JSONL path (empty: ring only). */
    std::string timeseriesPath;

    /** Chrome trace-event JSON path (empty: tracing off). */
    std::string tracePath;

    /** Collect latency/drain/dirty-row histograms. */
    bool histograms = false;

    /** Trace-level process id; withShardSuffix sets it to the shard. */
    int tracePid = TraceWriter::kPid;

    /** Trace process_name metadata (empty: none emitted). */
    std::string traceProcessName;

    bool
    enabled() const
    {
        return sampleEvery > 0 || !tracePath.empty() || histograms;
    }

    /**
     * Copy with ".pt<index>" spliced into the output file names (before
     * the last extension), so every point of a multi-point sweep writes
     * distinct files.
     */
    TelemetryConfig withPointSuffix(std::size_t index) const;

    /**
     * Copy with ".s<shard>" spliced into the output file names: on
     * sharded runs every shard writes its own time-series/trace
     * stream.
     */
    TelemetryConfig withShardSuffix(std::uint32_t shard) const;
};

/**
 * "dir/base.ext" -> "dir/base<tag>.ext" (tag before the last
 * extension; no-ext names get it appended). Shared by the
 * point/shard-suffix helpers above and the shard-trace merger.
 */
std::string suffixedPath(const std::string &path, const std::string &tag);

/** Request classes the LLC read path distinguishes (latency hists). */
enum class ReadClass : std::uint8_t
{
    Hit,     ///< demand read that hit in the LLC
    Miss,    ///< demand read served by DRAM through the tag store
    Bypass,  ///< predicted miss forwarded around the tag store (CLB/Skip)
};

/**
 * The telemetry sink for one System. Components hold a raw pointer
 * (nullptr when telemetry is off) and invoke hooks under
 * `if constexpr (telemetry::kEnabled)`.
 */
class SimTelemetry : public DramObserver
{
  public:
    explicit SimTelemetry(const TelemetryConfig &config);
    ~SimTelemetry() override;

    SimTelemetry(const SimTelemetry &) = delete;
    SimTelemetry &operator=(const SimTelemetry &) = delete;

    const TelemetryConfig &config() const { return cfg; }

    /** The epoch sampler, when sampleEvery > 0 (nullptr otherwise). */
    StatSampler *sampler() { return sampler_.get(); }

    /** The trace writer, when a trace path was given (else nullptr). */
    TraceWriter *trace() { return trace_.get(); }

    bool histogramsEnabled() const { return cfg.histograms; }

    // ---- LLC hooks ------------------------------------------------

    /** A demand read of class `cls` completed after `cycles`. */
    void readLatency(ReadClass cls, Cycle cycles);

    /**
     * A dirty eviction wrote its victim back; `dirty_in_row` is the
     * number of dirty blocks resident in the victim's DRAM row at that
     * moment, victim included (the paper's Fig. 2 distribution).
     */
    void dirtyRowWriteback(std::uint64_t dirty_in_row);

    /** A DBI eviction drained `blocks` writebacks over [start, end]. */
    void dbiEvictionDrain(Cycle start, Cycle end, std::uint64_t blocks);

    /** An AWB row burst wrote `blocks` extra blocks over [start, end]. */
    void awbBurst(Cycle start, Cycle end, std::uint64_t blocks);

    /**
     * A CLB bypass decision: predicted-miss read checked the DBI.
     * `dbi_dirty` true means the dirty block forced the normal path.
     */
    void clbDecision(Addr block_addr, Cycle when, bool dbi_dirty);

    // ---- fabric hooks (sharded runs; see FlowObserver contract) ----

    /**
     * A cross-shard message left this shard at `send_time`, bound for
     * `dst` at `deliver_time`. Emits a transit slice on the fabric
     * lane plus a flow-begin carrying `flow_id`; the matching
     * fabricDeliver on dst's sink closes the arrow.
     */
    void fabricSend(const char *kind, std::uint32_t src,
                    std::uint32_t dst, Cycle send_time,
                    Cycle deliver_time, std::uint64_t flow_id);

    /** The matching delivery on the destination shard's sink. */
    void fabricDeliver(const char *kind, std::uint32_t src,
                       std::uint32_t dst, Cycle deliver_time,
                       std::uint64_t flow_id);

    // ---- DramObserver ---------------------------------------------

    void onDrainStart(Cycle when) override;
    void onDrainEnd(Cycle start, Cycle end,
                    std::uint64_t writes) override;

    // ---- lifecycle ------------------------------------------------

    /** Whole-run total surfaced in the trace footer (otherData). */
    void setTotal(const std::string &key, std::uint64_t value);

    /** Close the sampler epoch and the trace document. */
    void finish(Cycle now);

    /**
     * Histogram summaries as flat metrics ("hist.<name>.<stat>"),
     * empty unless histograms are enabled. Deterministic in the
     * simulation, so safe to merge into PointRecord metrics.
     */
    std::map<std::string, double> summaryMetrics() const;

    // ---- introspection (tests, reports) ---------------------------

    const Histogram &latReadHit() const { return histReadHit; }
    const Histogram &latReadMiss() const { return histReadMiss; }
    const Histogram &latBypass() const { return histBypass; }
    const Histogram &drainBurstWrites() const { return histDrainWrites; }
    const Histogram &drainWindowCycles() const { return histDrainCycles; }
    const Histogram &dirtyPerRowWb() const { return histDirtyPerRow; }
    const Histogram &dbiDrainBlocks() const { return histDbiDrain; }

    /** Sum of traced drain-window durations (== dram.drainCycles). */
    std::uint64_t drainCyclesTraced() const { return drainCycleSum; }
    std::uint64_t drainWindowsTraced() const { return drainWindows; }

    /** Fabric flows traced from / delivered to this shard's sink. */
    std::uint64_t fabricFlowsBegun() const { return fabricSends; }
    std::uint64_t fabricFlowsBound() const { return fabricDelivers; }

  private:
    TelemetryConfig cfg;
    std::unique_ptr<StatSampler> sampler_;
    std::unique_ptr<TraceWriter> trace_;

    Histogram histReadHit{"lat.readHit"};
    Histogram histReadMiss{"lat.readMiss"};
    Histogram histBypass{"lat.bypass"};
    Histogram histDrainWrites{"drain.burstWrites"};
    Histogram histDrainCycles{"drain.windowCycles"};
    Histogram histDirtyPerRow{"wb.dirtyBlocksPerRow"};
    Histogram histDbiDrain{"dbi.drainBlocks"};

    std::uint64_t drainCycleSum = 0;
    std::uint64_t drainWindows = 0;
    std::uint64_t fabricSends = 0;
    std::uint64_t fabricDelivers = 0;
    bool finished = false;
};

} // namespace dbsim::telemetry

#endif // DBSIM_TELEMETRY_TELEMETRY_HH
