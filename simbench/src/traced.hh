/**
 * @file
 * The traced run: a single-shard machine composed in the benchmark's
 * own files from the same public components System wires together
 * (trace source, Core, CoreMemory, makeLlc(...), DramController on one
 * EventQueue), with pass-through shims at the virtual seams:
 *
 *   TraceSource::next                          -> workload spans
 *   LlcPort::{read, writeback, functionalAccess} -> llc spans
 *   BackingPort::{read, write}                 -> dram spans
 *
 * Completion callbacks handed across a seam are wrapped too: the DRAM
 * read completion runs the LLC fill inline, so it opens an llc span,
 * and the LLC read completion runs the CoreMemory fill and the core
 * wakeup, so it opens a cpu span. Each dispatched event is one root
 * span of the event kernel (common); the queue's profile hook reports
 * which component scheduled the event and how long its callback ran,
 * and that callback becomes a child span charged to the scheduling
 * component's layer.
 *
 * The simulator is not modified: a traced run must reproduce the
 * untraced System run's fingerprint exactly, which is checked.
 */

#ifndef SIMBENCH_TRACED_HH
#define SIMBENCH_TRACED_HH

#include <cstdint>

#include "common/event_queue.hh"
#include "common/prof.hh"
#include "dram/dram_controller.hh"
#include "spans.hh"
#include "workloads.hh"

namespace simbench {

/** Counts taken at the seam shims of one traced run. */
struct SeamCounts
{
    std::uint64_t sourceNext = 0;     ///< raw trace source next() calls
    std::uint64_t llcRead = 0;
    std::uint64_t llcWriteback = 0;
    std::uint64_t llcFunctional = 0;
    std::uint64_t dramRead = 0;
    std::uint64_t dramWrite = 0;
    std::uint64_t callbacks = 0;      ///< completions handed across seams
    std::uint64_t readQSamples = 0;
    std::uint64_t readQSum = 0;       ///< pendingReads() after each read
    std::uint64_t readQMax = 0;
};

struct TracedResult
{
    Fingerprint fp;
    MachineCounts counts;
    SeamCounts seams;
    LayerNs self{};           ///< per-layer self time, ns
    std::uint64_t wallNs = 0; ///< start of the cores to the queue drained
};

/**
 * Run workload `w` (which must be single-shard) once under `tracer`.
 * The tracer keeps the spans; the result holds their reduction.
 */
TracedResult runTraced(const Workload &w, Tracer &tracer);

/** The layer an event's callback is charged to, by scheduling tag. */
Layer layerOfComp(std::size_t comp);

/**
 * Steps an EventQueue under a tracer: one common root span per event,
 * with the callback's duration (from the queue's profile hook) as a
 * child charged to the scheduling component's layer.
 */
class TracedQueue
{
  public:
    /** Attaches the profile hook: call before anything is scheduled. */
    TracedQueue(dbsim::EventQueue &queue, Tracer &tracer);

    TracedQueue(const TracedQueue &) = delete;
    TracedQueue &operator=(const TracedQueue &) = delete;

    /** Dispatch one event; false once the queue is empty. */
    bool step();

  private:
    dbsim::EventQueue &eq;
    Tracer &tr;
    dbsim::prof::QueueProfile profile;
    dbsim::prof::QueueProfile seen;  ///< profile as of the last step
};

/** BackingPort shim in front of a DramController. */
class TracedBacking : public dbsim::BackingPort
{
  public:
    TracedBacking(dbsim::DramController &controller, Tracer &tracer,
                  SeamCounts &counts)
        : dram(controller), tr(tracer), n(counts)
    {
    }

    void read(dbsim::Addr block_addr, dbsim::Cycle when,
              ReadCallback cb) override;
    void write(dbsim::Addr block_addr, dbsim::Cycle when) override;

    void
    functionalAccess(dbsim::Addr block_addr, bool is_write) override
    {
        dram.functionalAccess(block_addr, is_write);
    }

    const dbsim::DramAddrMap &
    addrMap() const override
    {
        return dram.addrMap();
    }

    std::size_t pendingWrites() const override
    {
        return dram.pendingWrites();
    }

    bool draining() const override { return dram.draining(); }

  private:
    dbsim::DramController &dram;
    Tracer &tr;
    SeamCounts &n;
};

} // namespace simbench

#endif // SIMBENCH_TRACED_HH
