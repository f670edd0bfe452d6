/**
 * @file
 * SMARTS-style sampling wrapper around any TraceSource. The wrapper
 * owns the underlying trace and splits its op stream into two regimes:
 * measured ops are handed to the detailed core model unchanged, while
 * fast-forward ops are consumed here and pushed through a functional
 * warming callback (tags/DBI/dcache/predictor state, zero events, zero
 * simulated cycles). `ffOps` ops are warmed before the first measured
 * op; with a period configured, every window of `sampleOps` measured
 * ops is followed by `periodOps - sampleOps` warmed ops. A disabled
 * config never constructs a wrapper at all, so plain runs are untouched
 * by design — the sampling differential suite then proves the composed
 * plumbing is bit-identical end to end.
 */

#ifndef DBSIM_WORKLOAD_SAMPLED_TRACE_HH
#define DBSIM_WORKLOAD_SAMPLED_TRACE_HH

#include <cstdint>
#include <functional>
#include <memory>

#include "common/types.hh"
#include "cpu/trace.hh"

namespace dbsim {

/** Fast-forward + periodic-sampling knobs (part of SystemConfig). */
struct SamplingConfig
{
    /** Ops functionally warmed before the first measured op. */
    std::uint64_t ffOps = 0;
    /** Measured ops per sampling window (0 with periodOps=0: off). */
    std::uint64_t sampleOps = 0;
    /** Window period in ops; warms periodOps - sampleOps per window. */
    std::uint64_t periodOps = 0;

    bool enabled() const { return ffOps > 0 || periodOps > 0; }

    /**
     * fatal() unless the knobs describe a run: with a period,
     * 0 < sampleOps <= periodOps; without one, no sampleOps. System
     * checks every config, sampled or not, so a window size that would
     * do nothing never passes silently.
     */
    void validate() const;
};

class SampledTrace : public TraceSource
{
  public:
    /** Functional warming sink: (address, isWrite), zero sim time. */
    using WarmFn = std::function<void(Addr, bool)>;

    SampledTrace(std::unique_ptr<TraceSource> inner_,
                 const SamplingConfig &cfg_, WarmFn warm_);

    TraceOp next() override;

    std::uint64_t opsEmitted() const override
    {
        return nWarmed + nMeasured;
    }

    std::uint64_t opsWarmed() const { return nWarmed; }
    std::uint64_t opsMeasured() const { return nMeasured; }
    TraceSource &inner() { return *src; }

  private:
    void warmSpan(std::uint64_t n);

    std::unique_ptr<TraceSource> src;
    SamplingConfig cfg;
    WarmFn warm;

    bool started = false;
    std::uint64_t windowMeasured = 0;
    std::uint64_t nWarmed = 0;
    std::uint64_t nMeasured = 0;
};

} // namespace dbsim

#endif // DBSIM_WORKLOAD_SAMPLED_TRACE_HH
