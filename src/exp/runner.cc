#include "runner.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>

#include "common/logging.hh"
#include "exp/checkpoint.hh"
#include "exp/thread_pool.hh"
#include "sim/metrics.hh"

namespace dbsim::exp {

namespace {

/** Fill the standard per-run metrics from a SimResult. */
void
fillSimMetrics(PointRecord &rec, const SimResult &r)
{
    for (std::size_t c = 0; c < r.ipc.size(); ++c) {
        rec.metrics["ipc" + std::to_string(c)] = r.ipc[c];
    }
    rec.metrics["readRowHitRate"] = r.readRowHitRate;
    rec.metrics["writeRowHitRate"] = r.writeRowHitRate;
    rec.metrics["tagLookupsPki"] = r.tagLookupsPki;
    rec.metrics["wpki"] = r.wpki;
    rec.metrics["mpki"] = r.mpki;
    rec.metrics["dramEnergyPj"] = r.dramEnergyPj;
    rec.metrics["totalInstrs"] = static_cast<double>(r.totalInstrs);
    rec.metrics["windowCycles"] = static_cast<double>(r.windowCycles);
    rec.stats = r.stats;
}

using HostClock = std::chrono::steady_clock;

double
msSince(HostClock::time_point from, HostClock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

/** Evaluate one point into a record. */
PointRecord
evalPoint(const SweepPoint &p, const RunOptions &opts,
          std::size_t total_points, AloneIpcCache *alone)
{
    PointRecord rec;
    rec.index = p.index;
    rec.experiment = opts.experiment;
    rec.tags = p.tags;

    // The audit period and the observers reach every point's config
    // the same way, Custom points included.
    SystemConfig cfg = p.cfg;
    if (opts.auditEvery) {
        cfg.auditEvery = *opts.auditEvery;
    }
    if (opts.telemetry.enabled()) {
        cfg.telemetry = total_points > 1
                            ? opts.telemetry.withPointSuffix(p.index)
                            : opts.telemetry;
    }
    if (opts.profile) {
        cfg.profile = true;
    }

    switch (p.kind) {
      case PointKind::Custom: {
        auto t0 = HostClock::now();
        p.custom(cfg, rec);
        if (opts.profile) {
            rec.host["evalMs"] = msSince(t0, HostClock::now());
        }
        break;
      }
      case PointKind::Sim:
      case PointKind::MixSim: {
        rec.mechanism = p.cfg.mech.label;
        rec.mix = mixLabel(p.mix);
        auto t0 = HostClock::now();
        System sys(cfg, p.mix);
        auto t_built = HostClock::now();
        SimResult r = sys.run();
        auto t_ran = HostClock::now();
        fillSimMetrics(rec, r);
        for (const auto &[k, v] : r.telemetry) {
            rec.metrics[k] = v;
        }
        for (const auto &[k, v] : r.metadata) {
            rec.metrics[k] = v;
        }
        if (p.kind == PointKind::MixSim) {
            panic_if(!alone, "MixSim point without an alone-IPC cache");
            std::vector<double> alone_ipcs = alone->forMix(p.mix);
            for (std::size_t c = 0; c < alone_ipcs.size(); ++c) {
                rec.metrics["aloneIpc" + std::to_string(c)] =
                    alone_ipcs[c];
            }
            rec.metrics["weightedSpeedup"] =
                weightedSpeedup(r.ipc, alone_ipcs);
            rec.metrics["instructionThroughput"] =
                instructionThroughput(r.ipc);
            rec.metrics["harmonicSpeedup"] =
                harmonicSpeedup(r.ipc, alone_ipcs);
            rec.metrics["maxSlowdown"] = maxSlowdown(r.ipc, alone_ipcs);
        }
        // Phase timings and profiler attribution ride in the host
        // map: wall-clock derived, so they stay out of the
        // deterministic metrics.
        if (opts.profile) {
            rec.host["buildMs"] = msSince(t0, t_built);
            rec.host["runMs"] = msSince(t_built, t_ran);
            rec.host["collectMs"] = msSince(t_ran, HostClock::now());
        }
        for (const auto &[k, v] : r.hostProfile) {
            rec.host["profile." + k] = v;
        }
        break;
      }
    }
    return rec;
}

} // namespace

std::vector<PointRecord>
ExperimentRunner::run(const SweepSpec &spec)
{
    const auto &points = spec.points();
    std::vector<PointRecord> records(points.size());
    last = RunStats{};
    if (points.empty()) {
        return records;
    }

    std::unique_ptr<AloneIpcCache> alone;
    if (spec.hasMixSim()) {
        SystemConfig alone_base = spec.aloneBase();
        if (opts.auditEvery) {
            alone_base.auditEvery = *opts.auditEvery;
        }
        alone = std::make_unique<AloneIpcCache>(alone_base);
    }

    // The content cache, owned by this run.
    std::unique_ptr<ResultCache> cache;
    if (!opts.cacheDir.empty()) {
        cache = std::make_unique<ResultCache>(opts.cacheDir);
    }
    const SystemConfig aloneCanonBase = spec.aloneBase();
    auto cacheable = [&](const SweepPoint &p) {
        // Observers (telemetry, profiling) bypass: a hit would skip
        // producing their side artifacts, and profiled host times must
        // always be fresh measurements.
        return cache && p.kind != PointKind::Custom &&
               !opts.telemetry.enabled() && !opts.profile;
    };

    std::optional<CheckpointSink> ckpt;
    if (!opts.jsonlPath.empty()) {
        ckpt.emplace(opts.jsonlPath, sweepSpecHash(spec), opts.resume);
    }

    // Sink state shared by the workers.
    std::mutex sinkMu;
    std::size_t completed = 0;
    std::size_t timed = 0;
    double pointSecondsSum = 0.0;
    auto t0 = HostClock::now();

    auto progressLine = [&] {
        // Caller holds sinkMu.
        double elapsed =
            std::chrono::duration<double>(HostClock::now() - t0)
                .count();
        std::size_t remaining = points.size() - completed;
        // ETA from the measured mean point cost spread over the
        // worker pool, not elapsed/completed: the latter overshoots
        // while the pool is still ramping up its first batch.
        double per_point = timed ? pointSecondsSum / timed : 0.0;
        std::size_t lanes = opts.jobs > 1 ? opts.jobs : 1;
        double eta = per_point * remaining / lanes;
        std::fprintf(stderr,
                     "\r[%zu/%zu] %5.1f%%  elapsed %.0fs  eta %.0fs ",
                     completed, points.size(),
                     100.0 * completed / points.size(), elapsed, eta);
        if (cache) {
            CacheStats cs = cache->stats();
            std::fprintf(stderr, " cache %llu hit / %llu miss / %llu byp ",
                         static_cast<unsigned long long>(cs.hits),
                         static_cast<unsigned long long>(cs.misses),
                         static_cast<unsigned long long>(cs.bypasses));
        }
        if (completed == points.size()) {
            std::fprintf(stderr, "\n");
        }
    };

    auto sink = [&](const PointRecord &rec, double point_seconds) {
        std::lock_guard<std::mutex> lock(sinkMu);
        if (ckpt) {
            ckpt->append(rec.index, rec.toJsonLine());
        }
        ++completed;
        ++timed;
        pointSecondsSum += point_seconds;
        if (opts.progress) {
            progressLine();
        }
    };

    // Restore checkpointed points: their lines are already on disk in
    // their original bytes, so they are counted and used to warm the
    // content cache, but never re-appended.
    std::vector<const SweepPoint *> todo;
    todo.reserve(points.size());
    for (const auto &p : points) {
        const PointRecord *prev =
            ckpt ? ckpt->record(p.index) : nullptr;
        if (!prev) {
            todo.push_back(&p);
            continue;
        }
        records[p.index] = *prev;
        ++last.resumedPoints;
        if (cacheable(p)) {
            std::string canon = canonicalPoint(p, aloneCanonBase);
            cache->insert(fnv1a64(canon), canon, *prev);
        }
        ++completed;
    }
    if (opts.progress && last.resumedPoints > 0) {
        inform("resumed %zu/%zu points from %s", last.resumedPoints,
               points.size(), opts.jsonlPath.c_str());
    }

    auto evalOne = [&](const SweepPoint &p) {
        auto t_point = HostClock::now();
        PointRecord rec;
        bool hit = false;
        std::string canon;
        std::uint64_t key = 0;
        if (cacheable(p)) {
            canon = canonicalPoint(p, aloneCanonBase);
            key = fnv1a64(canon);
            PointRecord payload;
            if (cache->lookup(key, canon, payload)) {
                rec = std::move(payload);
                rec.index = p.index;
                rec.experiment = opts.experiment;
                rec.tags = p.tags;
                hit = true;
            }
        } else if (cache) {
            cache->noteBypass();
        }
        if (!hit) {
            rec = evalPoint(p, opts, points.size(), alone.get());
            if (cacheable(p)) {
                cache->insert(key, canon, rec);
            }
        }
        double secs = std::chrono::duration<double>(HostClock::now() -
                                                    t_point)
                          .count();
        records[p.index] = std::move(rec);
        sink(records[p.index], secs);
    };

    const auto workers = static_cast<std::uint32_t>(
        std::min<std::size_t>(opts.jobs, todo.size()));
    if (workers <= 1) {
        for (const SweepPoint *p : todo) {
            evalOne(*p);
        }
    } else {
        ThreadPool pool(workers);
        last.workers = pool.threadCount();
        for (const SweepPoint *p : todo) {
            pool.submit([&evalOne, p] { evalOne(*p); });
        }
        pool.wait();
    }
    last.evaluatedPoints = todo.size();
    if (cache) {
        last.cache = cache->stats();
        if (opts.progress) {
            inform("result cache (%s): %llu hits, %llu misses, "
                   "%llu bypasses",
                   cache->directory().c_str(),
                   static_cast<unsigned long long>(last.cache.hits),
                   static_cast<unsigned long long>(last.cache.misses),
                   static_cast<unsigned long long>(last.cache.bypasses));
        }
    }
    return records;
}

} // namespace dbsim::exp
