#include "workload/sampled_trace.hh"

#include <utility>

#include "common/logging.hh"

namespace dbsim {

void
SamplingConfig::validate() const
{
    fatal_if(periodOps > 0 && (sampleOps == 0 || sampleOps > periodOps),
             "sampling: need 0 < sample-ops (%llu) <= period (%llu)",
             static_cast<unsigned long long>(sampleOps),
             static_cast<unsigned long long>(periodOps));
    fatal_if(periodOps == 0 && sampleOps > 0,
             "sampling: sample-ops without a period has no effect; "
             "set --period too");
}

SampledTrace::SampledTrace(std::unique_ptr<TraceSource> inner_,
                           const SamplingConfig &cfg_, WarmFn warm_)
    : src(std::move(inner_)), cfg(cfg_), warm(std::move(warm_))
{}

void
SampledTrace::warmSpan(std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i) {
        TraceOp op = src->next();
        warm(op.addr, op.isWrite);
        ++nWarmed;
    }
}

TraceOp
SampledTrace::next()
{
    if (!started) {
        started = true;
        warmSpan(cfg.ffOps);
    }
    if (cfg.periodOps > 0 && windowMeasured == cfg.sampleOps) {
        warmSpan(cfg.periodOps - cfg.sampleOps);
        windowMeasured = 0;
    }
    ++windowMeasured;
    ++nMeasured;
    return src->next();
}

} // namespace dbsim
