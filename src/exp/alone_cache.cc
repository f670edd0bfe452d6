#include "alone_cache.hh"

namespace dbsim::exp {

SystemConfig
aloneRunConfig(const SystemConfig &base)
{
    SystemConfig cfg = base;
    cfg.numCores = 1;
    cfg.mech = Mechanism::Baseline;
    // Alone runs keep per-core LLC capacity, matching the shared
    // system (same convention as the legacy cache), but the machine
    // topology is pinned: inheriting llcSlices/dram.channels/
    // shardHopLatency from a sharded base would make --slices 4
    // silently change the fairness-metric denominators.
    cfg.llcSlices = 1;
    cfg.dram.channels = 1;
    cfg.shardHopLatency = 0;
    return cfg;
}

AloneIpcCache::AloneIpcCache(const SystemConfig &base)
    : baseCfg(base)
{
    compute = [this](const std::string &bench) {
        return runWorkload(aloneRunConfig(baseCfg),
                           WorkloadMix{bench})
            .ipc[0];
    };
}

AloneIpcCache::AloneIpcCache(const SystemConfig &base, ComputeFn fn)
    : baseCfg(base), compute(std::move(fn))
{
}

double
AloneIpcCache::get(const std::string &bench)
{
    std::shared_future<double> fut;
    std::packaged_task<double()> task;
    bool mine = false;
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = futures.find(bench);
        if (it != futures.end()) {
            fut = it->second;
        } else {
            task = std::packaged_task<double()>([this, bench] {
                ++computes;
                return compute(bench);
            });
            fut = task.get_future().share();
            futures.emplace(bench, fut);
            mine = true;
        }
    }
    if (mine) {
        // Run outside the lock so other benchmarks can be computed
        // concurrently; waiters block on the shared future only.
        task();
    }
    return fut.get();
}

std::vector<double>
AloneIpcCache::forMix(const WorkloadMix &mix)
{
    std::vector<double> alone;
    alone.reserve(mix.size());
    for (const auto &bench : mix) {
        alone.push_back(get(bench));
    }
    return alone;
}

} // namespace dbsim::exp
