#include "traced.hh"

#include <memory>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "workload/champsim_trace.hh"
#include "workload/sampled_trace.hh"
#include "workload/synthetic_trace.hh"

namespace simbench {

using namespace dbsim;

Layer
layerOfComp(std::size_t comp)
{
    switch (comp) {
      case prof::Core: return Layer::Cpu;
      case prof::Llc: return Layer::Llc;
      case prof::Dram: return Layer::Dram;
      default: return Layer::Common;
    }
}

TracedQueue::TracedQueue(EventQueue &queue, Tracer &tracer)
    : eq(queue), tr(tracer)
{
    eq.attachProfile(&profile);
}

bool
TracedQueue::step()
{
    const std::uint32_t root = tr.open(Layer::Common);
    const std::uint32_t callback = tr.openUntimed();
    const bool dispatched = eq.step();
    std::size_t comp = 0;
    while (comp <= prof::kCompMask &&
           profile.events[comp] == seen.events[comp]) {
        ++comp;
    }
    if (comp > prof::kCompMask) {
        tr.closeAs(callback, Layer::Common, 0);  // nothing dispatched
    } else {
        tr.closeAs(callback, layerOfComp(comp),
                   profile.ns[comp] - seen.ns[comp]);
        seen.events[comp] = profile.events[comp];
        seen.ns[comp] = profile.ns[comp];
    }
    tr.close(root);
    return dispatched;
}

void
TracedBacking::read(Addr block_addr, Cycle when, ReadCallback cb)
{
    const std::uint32_t s = tr.open(Layer::Dram);
    ++n.dramRead;
    ++n.callbacks;
    Tracer *t = &tr;
    dram.read(block_addr, when, [t, cb = std::move(cb)](Cycle done) {
        const std::uint32_t fill = t->open(Layer::Llc);
        cb(done);
        t->close(fill);
    });
    const std::uint64_t depth = dram.pendingReads();
    ++n.readQSamples;
    n.readQSum += depth;
    n.readQMax = std::max(n.readQMax, depth);
    tr.close(s);
}

void
TracedBacking::write(Addr block_addr, Cycle when)
{
    const std::uint32_t s = tr.open(Layer::Dram);
    ++n.dramWrite;
    dram.write(block_addr, when);
    tr.close(s);
}

namespace {

/** TraceSource shim. */
class TracedSource : public TraceSource
{
  public:
    TracedSource(std::unique_ptr<TraceSource> source, Tracer &tracer,
                 std::uint64_t *calls)
        : inner(std::move(source)), tr(tracer), nCalls(calls)
    {
    }

    TraceOp
    next() override
    {
        const std::uint32_t s = tr.open(Layer::Workload);
        if (nCalls) {
            ++*nCalls;
        }
        TraceOp op = inner->next();
        tr.close(s);
        return op;
    }

    std::uint64_t opsEmitted() const override { return inner->opsEmitted(); }

  private:
    std::unique_ptr<TraceSource> inner;
    Tracer &tr;
    std::uint64_t *nCalls;  ///< counted only on the raw source's shim
};

/** LlcPort shim in front of the (single) LLC slice. */
class TracedLlcPort : public LlcPort
{
  public:
    TracedLlcPort(Llc &slice, Tracer &tracer, SeamCounts &counts)
        : llc(slice), tr(tracer), n(counts)
    {
    }

    void
    read(Addr block_addr, std::uint32_t core, Cycle when,
         Callback cb) override
    {
        const std::uint32_t s = tr.open(Layer::Llc);
        ++n.llcRead;
        ++n.callbacks;
        Tracer *t = &tr;
        llc.read(block_addr, core, when,
                 [t, cb = std::move(cb)](Cycle done) {
                     const std::uint32_t fill = t->open(Layer::Cpu);
                     cb(done);
                     t->close(fill);
                 });
        tr.close(s);
    }

    void
    writeback(Addr block_addr, std::uint32_t core, Cycle when) override
    {
        const std::uint32_t s = tr.open(Layer::Llc);
        ++n.llcWriteback;
        llc.writeback(block_addr, core, when);
        tr.close(s);
    }

    void
    functionalAccess(Addr block_addr, std::uint32_t core,
                     bool is_write) override
    {
        const std::uint32_t s = tr.open(Layer::Llc);
        ++n.llcFunctional;
        llc.functionalAccess(block_addr, core, is_write);
        tr.close(s);
    }

  private:
    Llc &llc;
    Tracer &tr;
    SeamCounts &n;
};

/**
 * The single-shard machine System builds, composed here component by
 * component with the same configuration derivations and seeds (see
 * System::System), the shims in between.
 */
class TracedMachine
{
  public:
    TracedMachine(const Workload &w, Tracer &tracer)
        : cfg(w.cfg), tr(tracer), stepper(eq, tracer), stats("traced")
    {
        fatal_if(!w.singleShard(), "traced runs need a single-shard machine");
        fatal_if(cfg.mech.attachEcc || cfg.mech.attachDirectory ||
                     cfg.dcache.enable || cfg.auditEvery != 0,
                 "traced runs compose the plain LLC -> DRAM machine only");

        DramConfig dram_cfg = cfg.dram;
        dram_cfg.channels = 1;
        dram = std::make_unique<DramController>(dram_cfg, eq);
        backing = std::make_unique<TracedBacking>(*dram, tr, seams);

        LlcConfig llc_cfg = cfg.resolveLlc();
        DbiConfig dbi_cfg = cfg.dbi;
        dbi_cfg.seed = cfg.seed + 1009;
        std::shared_ptr<MissPredictor> pred;
        if (cfg.mech.needsPredictor()) {
            SkipPredictorConfig pc = cfg.pred;
            pc.numThreads = cfg.numCores;
            pred = std::make_shared<SkipPredictor>(pc);
        }
        llc = makeLlc(cfg.mech, llc_cfg, dbi_cfg, *backing, eq, pred);
        port = std::make_unique<TracedLlcPort>(*llc, tr, seams);

        llc->registerStats(stats);
        dram->registerStats(stats);

        for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
            std::unique_ptr<TraceSource> raw;
            if (!cfg.traceFile.empty()) {
                raw = std::make_unique<ChampSimTrace>(cfg.traceFile);
            } else {
                raw = std::make_unique<SyntheticTrace>(
                    benchmarkByName(w.mix[c]), c, cfg.seed);
            }
            std::unique_ptr<TraceSource> src = std::make_unique<TracedSource>(
                std::move(raw), tr, &seams.sourceNext);
            if (cfg.sampling.enabled()) {
                auto sampled = std::make_unique<SampledTrace>(
                    std::move(src), cfg.sampling, [this, c](Addr a, bool wr) {
                        mems[c]->functionalAccess(a, wr);
                    });
                samplers.push_back(sampled.get());
                src = std::make_unique<TracedSource>(std::move(sampled), tr,
                                                     nullptr);
            }
            traces.push_back(std::move(src));
            mems.push_back(std::make_unique<CoreMemory>(
                cfg.mem, *port, c, cfg.seed + 31 * c));
            mems.back()->registerStats(stats);
            cores.push_back(std::make_unique<Core>(c, cfg.core, *traces[c],
                                                   *mems[c], eq));
            cores.back()->onWarmed([this](std::uint32_t) { onWarmed(); });
            cores.back()->onDone([this](std::uint32_t) { onDone(); });
        }
    }

    TracedResult
    run()
    {
        TracedResult res;
        const std::uint64_t begin = nowNs();
        const std::uint32_t s = tr.open(Layer::Cpu);
        for (auto &core : cores) {
            core->start();
        }
        tr.close(s);
        while (stepper.step()) {
            if (eq.now() > cfg.maxCycles) {
                fatal("simulation exceeded %llu cycles: likely deadlock",
                      static_cast<unsigned long long>(cfg.maxCycles));
            }
        }
        res.wallNs = nowNs() - begin;
        panic_if(doneCount != cfg.numCores,
                 "event queue drained before all cores finished");

        res.fp.events = eq.dispatched();
        res.fp.windowCycles = doneTime - warmTime;
        for (auto &core : cores) {
            res.fp.ipc.push_back(core->ipc());
        }
        res.fp.dramReads = dram->statReads.value();
        res.fp.dramWrites = dram->statWrites.value();

        for (auto &mem : mems) {
            addCounts(res.counts, *mem);
        }
        for (SampledTrace *st : samplers) {
            res.counts.warmedOps += st->opsWarmed();
        }
        addCounts(res.counts, *llc);
        addCounts(res.counts, *dram);
        res.seams = seams;
        return res;
    }

  private:
    void
    onWarmed()
    {
        if (++warmedCount == cfg.numCores) {
            stats.snapshotAll();
            warmTime = eq.now();
        }
    }

    void
    onDone()
    {
        if (++doneCount == cfg.numCores) {
            doneTime = eq.now();
            for (auto &core : cores) {
                core->halt();
            }
        }
    }

    SystemConfig cfg;
    Tracer &tr;
    SeamCounts seams;
    EventQueue eq;
    TracedQueue stepper;
    StatSet stats;
    // Declared bottom-up, like System: each level references the one
    // below, so destruction tears the chain down top-first.
    std::unique_ptr<DramController> dram;
    std::unique_ptr<TracedBacking> backing;
    std::unique_ptr<Llc> llc;
    std::unique_ptr<TracedLlcPort> port;
    std::vector<std::unique_ptr<TraceSource>> traces;
    std::vector<SampledTrace *> samplers;
    std::vector<std::unique_ptr<CoreMemory>> mems;
    std::vector<std::unique_ptr<Core>> cores;
    std::uint32_t warmedCount = 0;
    std::uint32_t doneCount = 0;
    Cycle warmTime = 0;
    Cycle doneTime = 0;
};

} // namespace

TracedResult
runTraced(const Workload &w, Tracer &tracer)
{
    TracedMachine machine(w, tracer);
    TracedResult res = machine.run();
    res.self = selfTimes(tracer.spans());
    return res;
}

} // namespace simbench
