#include "profiler.hh"

#include <cstdio>

namespace dbsim::telemetry {

namespace {

double
ms(std::uint64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

double
get(const std::map<std::string, double> &m, const std::string &key)
{
    auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
}

} // namespace

void
HostProfiler::beginRun()
{
    runStartNs = prof::nowNs();
}

void
HostProfiler::endRun()
{
    runNs = prof::nowNs() - runStartNs;
}

std::map<std::string, double>
HostProfiler::metrics() const
{
    std::map<std::string, double> out;
    out["runMs"] = ms(runNs);
    out["shards"] = 1.0;
    out["s0.workMs"] = ms(workNs);
    out["s0.events"] = static_cast<double>(numEvents);
    std::uint64_t dispatchNs = 0;
    for (std::size_t c = 0; c < prof::kNumComps; ++c) {
        dispatchNs += qp.ns[c];
        if (qp.events[c] == 0) {
            continue;
        }
        const std::string cp = std::string("s0.comp.") + prof::compName(c);
        out[cp + ".ms"] = ms(qp.ns[c]);
        out[cp + ".events"] = static_cast<double>(qp.events[c]);
    }
    out["s0.dispatchMs"] = ms(dispatchNs);
    return out;
}

std::string
HostProfiler::formatTable(const std::map<std::string, double> &m)
{
    std::string out;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "host profile: run %.3f ms, work %.3f ms, %.0f events, "
                  "dispatch %.3f ms\n",
                  get(m, "runMs"), get(m, "s0.workMs"), get(m, "s0.events"),
                  get(m, "s0.dispatchMs"));
    out += buf;
    std::string comps;
    for (std::size_t c = 0; c < prof::kNumComps; ++c) {
        auto it = m.find(std::string("s0.comp.") + prof::compName(c) +
                         ".ms");
        if (it == m.end()) {
            continue;
        }
        std::snprintf(buf, sizeof(buf), "  %s %.3f", prof::compName(c),
                      it->second);
        comps += buf;
    }
    if (!comps.empty()) {
        out += "  dispatch by comp (ms):" + comps + "\n";
    }
    return out;
}

} // namespace dbsim::telemetry
