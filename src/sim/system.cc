#include "system.hh"

#include <cctype>
#include <cstdio>
#include <cstring>

#include "common/logging.hh"
#include "ecc/ecc_index.hh"
#include "model/storage_model.hh"
#include "telemetry/profiler.hh"
#include "telemetry/trace_merge.hh"
#include "workload/champsim_trace.hh"
#include "workload/trace_decode.hh"

namespace dbsim {

LlcConfig
SystemConfig::resolveLlc() const
{
    LlcConfig llc;
    llc.sizeBytes = llcBytesPerCore * numCores;
    llc.numCores = numCores;
    llc.seed = seed + 101;

    // Table 1: 16/32/32/32-way, tag 10/12/13/14, data 24/29/31/33 for
    // 1/2/4/8 cores.
    std::uint32_t assoc, tag_lat, data_lat;
    switch (numCores) {
      case 1:
        assoc = 16;
        tag_lat = 10;
        data_lat = 24;
        break;
      case 2:
        assoc = 32;
        tag_lat = 12;
        data_lat = 29;
        break;
      case 4:
        assoc = 32;
        tag_lat = 13;
        data_lat = 31;
        break;
      case 8:
      default:
        assoc = 32;
        tag_lat = 14;
        data_lat = 33;
        break;
    }
    llc.assoc = llcAssoc ? llcAssoc : assoc;
    llc.tagLatency = llcTagLatency ? llcTagLatency : tag_lat;
    llc.dataLatency = llcDataLatency ? llcDataLatency : data_lat;

    ReplPolicy non_base = useDrrip ? ReplPolicy::Drrip : ReplPolicy::TaDip;
    llc.repl = mech.baselineLru ? ReplPolicy::Lru : non_base;
    return llc;
}

ShardTopology
SystemConfig::topology() const
{
    fatal_if(numShards > 1,
             "numShards = %u: threaded execution of sliced machines was "
             "removed; every machine runs on one thread (use 0 or 1)",
             numShards);
    TopologySpec spec;
    spec.numCores = numCores;
    spec.llcSlices = llcSlices;
    spec.dramChannels = dram.channels;
    spec.hopLatency = shardHopLatency;
    spec.rowBytes = dram.rowBytes;
    spec.llcTotalBytes = llcBytesPerCore * numCores;
    spec.llcAssoc = resolveLlc().assoc;
    spec.dcachePageBytes = dcache.enable ? dcache.pageBytes : 0;
    return resolveTopology(spec);
}

namespace {

bool
endsWith(const std::string &str, const char *suffix)
{
    const std::size_t n = std::strlen(suffix);
    return str.size() >= n &&
           str.compare(str.size() - n, n, suffix) == 0;
}

/**
 * Open a trace file as the right TraceSource for its format. Extension
 * decides when it can: ".champsim"/".bin" (with an optional
 * ".gz"/".xz"/".zst" compression suffix) is ChampSim binary,
 * ".trace"/".txt" is the native text format. Anything else is sniffed:
 * a compression magic means ChampSim (the only format read compressed),
 * and otherwise the first bytes pick binary vs text.
 */
std::unique_ptr<TraceSource>
openTraceFile(const std::string &path)
{
    std::string base = path;
    bool compressed = false;
    for (const char *ext : {".gz", ".xz", ".zst", ".zstd"}) {
        if (endsWith(base, ext)) {
            compressed = true;
            base.resize(base.size() - std::strlen(ext));
            break;
        }
    }
    if (endsWith(base, ".champsim") || endsWith(base, ".bin")) {
        return std::make_unique<ChampSimTrace>(path);
    }
    if (endsWith(base, ".trace") || endsWith(base, ".txt")) {
        fatal_if(compressed,
                 "trace %s: compressed text traces are not supported; "
                 "decompress it first", path.c_str());
        return std::make_unique<FileTrace>(path);
    }
    if (sniffTraceCodec(path) != TraceCodec::Raw) {
        return std::make_unique<ChampSimTrace>(path);
    }
    // Unknown extension, uncompressed: peek at the head. The text
    // format is pure printable ASCII; ChampSim records are full of NULs
    // and high bytes within their first 64 bytes.
    std::FILE *f = std::fopen(path.c_str(), "rb");
    fatal_if(!f, "cannot open trace file %s", path.c_str());
    unsigned char head[64];
    std::size_t got = std::fread(head, 1, sizeof(head), f);
    std::fclose(f);
    for (std::size_t i = 0; i < got; ++i) {
        if (head[i] != '\t' && head[i] != '\n' && head[i] != '\r' &&
            (head[i] < 0x20 || head[i] > 0x7e)) {
            return std::make_unique<ChampSimTrace>(path);
        }
    }
    return std::make_unique<FileTrace>(path);
}

/**
 * A read a router has in flight across the fabric. The hop closures
 * carry only (router, slot id), which fits the fabric's capture budget,
 * so a round trip neither allocates nor copies the requester's callback
 * at each hop.
 */
struct HopRead
{
    Addr block = kInvalidAddr;
    std::uint32_t core = 0;  ///< requesting core (LLC reads only)
    std::uint32_t dst = 0;   ///< the shard serving the read
    std::function<void(Cycle)> cb;
};

/** Slot table of HopReads, recycled through a free list. */
class HopSlots
{
  public:
    std::uint32_t
    acquire()
    {
        if (freeIds.empty()) {
            slots.emplace_back();
            return static_cast<std::uint32_t>(slots.size() - 1);
        }
        std::uint32_t id = freeIds.back();
        freeIds.pop_back();
        return id;
    }

    void release(std::uint32_t id) { freeIds.push_back(id); }

    HopRead &operator[](std::uint32_t id) { return slots[id]; }

  private:
    std::vector<HopRead> slots;
    std::vector<std::uint32_t> freeIds;
};

} // namespace

/**
 * The LlcPort the cores of one shard talk to: forwards each access to
 * the slice owning its address — a direct call when the slice lives on
 * this shard, a fabric round-trip (hop each way) when it does not.
 */
class ShardLlcPort : public LlcPort
{
  public:
    ShardLlcPort(const ShardTopology &topology, ShardFabric &fabric,
                 const std::vector<std::unique_ptr<Llc>> &llc_slices,
                 std::uint32_t shard)
        : topo(topology), fab(fabric), slices(llc_slices), part(shard)
    {
    }

    void
    read(Addr block_addr, std::uint32_t core, Cycle when,
         Callback cb) override
    {
        std::uint32_t s = topo.sliceOf(block_addr);
        std::uint32_t dst = topo.partitionOfSlice(s);
        if (dst == part) {
            slices[s]->read(block_addr, core, when, std::move(cb));
            return;
        }
        std::uint32_t id = inflight.acquire();
        inflight[id] = HopRead{block_addr, core, dst, std::move(cb)};
        fab.send(part, dst, when,
                 [this, id](Cycle at) { serveRead(id, at); }, "llcRead");
    }

    void
    writeback(Addr block_addr, std::uint32_t core, Cycle when) override
    {
        std::uint32_t s = topo.sliceOf(block_addr);
        std::uint32_t dst = topo.partitionOfSlice(s);
        Llc *llc = slices[s].get();
        if (dst == part) {
            llc->writeback(block_addr, core, when);
            return;
        }
        Addr a = blockAlign(block_addr);
        if (core < kBlockBytes) {
            // The core id rides in the block-offset bits, so the closure
            // fits std::function's inline buffer and the hop allocates
            // nothing; machines past 64 cores take the wide closure.
            fab.send(part, dst, when, [llc, wb = a | core](Cycle at) {
                Addr b = blockAlign(wb);
                llc->writeback(b, static_cast<std::uint32_t>(wb - b), at);
            }, "llcWriteback");
            return;
        }
        fab.send(part, dst, when, [llc, a, core](Cycle at) {
            llc->writeback(a, core, at);
        }, "llcWriteback");
    }

    void
    functionalAccess(Addr block_addr, std::uint32_t core,
                     bool is_write) override
    {
        // Zero-time warming reaches the owning slice by direct call:
        // the fabric exists to model hop timing, and the functional
        // path has none.
        slices[topo.sliceOf(block_addr)]->functionalAccess(block_addr,
                                                           core,
                                                           is_write);
    }

  private:
    /** On the slice's shard: look the block up, then hop back. */
    void
    serveRead(std::uint32_t id, Cycle at)
    {
        const HopRead &h = inflight[id];
        slices[topo.sliceOf(h.block)]->read(
            h.block, h.core, at, [this, id](Cycle done) {
                fab.send(inflight[id].dst, part, done,
                         [this, id](Cycle t) { finishRead(id, t); },
                         "llcReadResp");
            });
    }

    /** Back on the core's shard: free the slot, answer the core. */
    void
    finishRead(std::uint32_t id, Cycle t)
    {
        Callback cb = std::move(inflight[id].cb);
        inflight.release(id);
        cb(t);
    }

    const ShardTopology &topo;
    ShardFabric &fab;
    const std::vector<std::unique_ptr<Llc>> &slices;
    std::uint32_t part;
    HopSlots inflight;
};

/**
 * Routes one LLC slice's memory traffic to the channel owning each
 * address: a direct call for the shard-local channel, a fabric
 * round-trip otherwise (slice->channel traffic is the second kind of
 * cross-shard message the tentpole names). A BackingPort like every
 * other level, so anything composed on top of it (the LLC directly, or
 * an interposed DramCache) is oblivious to the routing.
 */
class ShardMemRouter : public BackingPort
{
  public:
    ShardMemRouter(const ShardTopology &topology, ShardFabric &fabric,
                   const std::vector<std::unique_ptr<DramController>> &
                       channels,
                   std::uint32_t shard)
        : topo(topology), fab(fabric), chans(channels), part(shard)
    {
    }

    const DramAddrMap &
    addrMap() const override
    {
        // Machine-wide map: every channel's copy is identical.
        return chans[0]->addrMap();
    }

    void
    read(Addr block_addr, Cycle when, ReadCallback cb) override
    {
        std::uint32_t c = topo.channelOf(block_addr);
        std::uint32_t dst = topo.partitionOfChannel(c);
        if (dst == part) {
            chans[c]->enqueueRead(block_addr, when, std::move(cb));
            return;
        }
        std::uint32_t id = inflight.acquire();
        inflight[id] = HopRead{block_addr, 0, dst, std::move(cb)};
        fab.send(part, dst, when,
                 [this, id](Cycle at) { serveRead(id, at); }, "dramRead");
    }

    void
    write(Addr block_addr, Cycle when) override
    {
        std::uint32_t c = topo.channelOf(block_addr);
        std::uint32_t dst = topo.partitionOfChannel(c);
        DramController *dc = chans[c].get();
        if (dst == part) {
            dc->enqueueWrite(block_addr, when);
            return;
        }
        fab.send(part, dst, when, [dc, block_addr](Cycle at) {
            dc->enqueueWrite(block_addr, at);
        }, "dramWrite");
    }

  private:
    /** On the channel's shard: queue the read, then hop back. */
    void
    serveRead(std::uint32_t id, Cycle at)
    {
        const HopRead &h = inflight[id];
        chans[topo.channelOf(h.block)]->enqueueRead(
            h.block, at, [this, id](Cycle done) {
                fab.send(inflight[id].dst, part, done,
                         [this, id](Cycle t) { finishRead(id, t); },
                         "dramReadResp");
            });
    }

    /** Back on the slice's shard: free the slot, answer the slice. */
    void
    finishRead(std::uint32_t id, Cycle t)
    {
        ReadCallback cb = std::move(inflight[id].cb);
        inflight.release(id);
        cb(t);
    }

    const ShardTopology &topo;
    ShardFabric &fab;
    const std::vector<std::unique_ptr<DramController>> &chans;
    std::uint32_t part;
    HopSlots inflight;
};

/**
 * Routes fabric message lifecycle into the per-shard telemetry sinks,
 * turning every cross-shard message into a flow arrow in the merged
 * trace. A send is recorded by the sending shard's sink, a delivery by
 * the destination's sink in the delivery event.
 */
class ShardFlowTracer : public FlowObserver
{
  public:
    explicit ShardFlowTracer(
        std::vector<std::unique_ptr<telemetry::SimTelemetry>> &sinks)
        : telems(sinks)
    {
    }

    void
    onSend(std::uint32_t src, std::uint32_t dst, Cycle send_time,
           Cycle deliver_time, std::uint64_t flow_id,
           const char *kind) override
    {
        if (src < telems.size() && telems[src]) {
            telems[src]->fabricSend(kind, src, dst, send_time,
                                    deliver_time, flow_id);
        }
    }

    void
    onDeliver(std::uint32_t src, std::uint32_t dst, Cycle deliver_time,
              std::uint64_t flow_id, const char *kind) override
    {
        if (dst < telems.size() && telems[dst]) {
            telems[dst]->fabricDeliver(kind, src, dst, deliver_time,
                                       flow_id);
        }
    }

  private:
    std::vector<std::unique_ptr<telemetry::SimTelemetry>> &telems;
};

System::System(const SystemConfig &config, const WorkloadMix &mix)
    : cfg(config), workload(mix), topo(config.topology()),
      statSet("system")
{
    fatal_if(workload.size() != cfg.numCores,
             "workload has %zu entries for %u cores", workload.size(),
             cfg.numCores);
    cfg.sampling.validate();

    const std::uint32_t P = topo.partitions;
    if (topo.sharded()) {
        fab = std::make_unique<ShardFabric>(P, topo.hopLatency, eq);
    }

    // The profiler attaches before any component exists: schedule()
    // tags events only while a profile is attached, so attaching after
    // the first schedule would mix tagged and untagged nodes.
    if constexpr (!telemetry::kEnabled) {
        if (cfg.telemetry.enabled() || cfg.profile) {
            warn("telemetry or profiling requested but this build has "
                 "DBSIM_TELEMETRY off; ignoring");
        }
    } else if (cfg.profile) {
        profiler = std::make_unique<telemetry::HostProfiler>();
        eq.attachProfile(profiler->queueProfile());
    }

    DramConfig dram_cfg = cfg.dram;
    dram_cfg.channels = topo.channels;
    for (std::uint32_t c = 0; c < topo.channels; ++c) {
        chans.push_back(std::make_unique<DramController>(dram_cfg, eq));
    }

    // Machine-wide capacity, divided evenly across slices (validated by
    // resolveTopology); slice 0 keeps the unsliced seeds exactly so the
    // Table-1 machine is bit-identical to the pre-shard simulator.
    LlcConfig llc_cfg = cfg.resolveLlc();
    llc_cfg.sizeBytes /= topo.slices;

    SkipPredictorConfig pc = cfg.pred;
    pc.numThreads = cfg.numCores;

    // Compose each slice's backing chain bottom-up before the slice
    // itself exists, so the final port is injected through the Llc
    // constructor: channel -> [router] -> [dcache] -> slice.
    if (topo.sharded()) {
        for (std::uint32_t s = 0; s < topo.slices; ++s) {
            memRouters.push_back(std::make_unique<ShardMemRouter>(
                topo, *fab, chans, topo.partitionOfSlice(s)));
        }
    }
    if (cfg.dcache.enable) {
        DCacheConfig dc_cfg = cfg.dcache;
        fatal_if(topo.slices > 1 &&
                 dc_cfg.sizeBytes % topo.slices != 0,
                 "dcache capacity %llu is not divisible into %u slices",
                 static_cast<unsigned long long>(dc_cfg.sizeBytes),
                 topo.slices);
        dc_cfg.sizeBytes /= topo.slices;
        for (std::uint32_t s = 0; s < topo.slices; ++s) {
            DCacheConfig slice_dc = dc_cfg;
            slice_dc.seed = cfg.seed + 3023 + 104729ull * s;
            BackingPort &below =
                topo.sharded()
                    ? static_cast<BackingPort &>(*memRouters[s])
                    : static_cast<BackingPort &>(
                          *chans[s % topo.channels]);
            dcaches.push_back(
                std::make_unique<DramCache>(slice_dc, below, eq));
        }
    }

    for (std::uint32_t s = 0; s < topo.slices; ++s) {
        LlcConfig slice_cfg = llc_cfg;
        slice_cfg.seed = llc_cfg.seed + 7919ull * s;
        DbiConfig dbi_cfg = cfg.dbi;
        dbi_cfg.seed = cfg.seed + 1009 + 104729ull * s;

        // Slice-local policy tuple: each slice composes its own
        // DirtyStore/WritebackPolicy/LookupPolicy and predictor.
        std::shared_ptr<MissPredictor> pred;
        if (cfg.mech.needsPredictor()) {
            pred = std::make_shared<SkipPredictor>(pc);
        }
        predictors.push_back(pred);

        BackingPort &backing =
            cfg.dcache.enable
                ? static_cast<BackingPort &>(*dcaches[s])
                : (topo.sharded()
                       ? static_cast<BackingPort &>(*memRouters[s])
                       : static_cast<BackingPort &>(
                             *chans[s % topo.channels]));
        slices.push_back(
            makeLlc(cfg.mech, slice_cfg, dbi_cfg, backing, eq, pred));

        // The metadata subsystem the spec attaches (Section 3.3) hangs
        // off the slice's DBI organization. It is a passive observer, so
        // the simulation's timing and stats are identical with or
        // without it.
        if (cfg.mech.attachEcc) {
            const Dbi *d = slices[s]->dbiIndex();
            fatal_if(!d, "the hetero-ECC attachment requires a DBI store");
            StorageParams sp;
            sp.cacheBytes = slice_cfg.sizeBytes;
            sp.assoc = slice_cfg.assoc;
            sp.alpha = dbi_cfg.alpha;
            sp.granularity = dbi_cfg.granularity;
            sp.dbiAssoc = dbi_cfg.assoc;
            metaIndexes.push_back(std::make_unique<HeteroEccIndex>(
                d->trackableBlocks(), sp));
            slices[s]->attachMetadata(metaIndexes.back().get());
        }
    }

    if (cfg.auditEvery > 0) {
        for (std::uint32_t s = 0; s < topo.slices; ++s) {
            audit::AuditConfig ac;
            ac.checkEvery = cfg.auditEvery;
            ac.shardId = topo.partitionOfSlice(s);
            auditors.push_back(std::make_unique<audit::InvariantAuditor>(
                *slices[s], ac));
            if (cfg.dcache.enable) {
                dcacheAuditors.push_back(
                    std::make_unique<audit::DCacheAuditor>(*dcaches[s],
                                                           ac));
            }
        }
    }

    if (topo.sharded()) {
        for (std::uint32_t p = 0; p < P; ++p) {
            corePorts.push_back(std::make_unique<ShardLlcPort>(
                topo, *fab, slices, p));
        }
    }

    if constexpr (telemetry::kEnabled) {
        if (cfg.telemetry.enabled()) {
            for (std::uint32_t p = 0; p < P; ++p) {
                setupTelemetry(p);
            }
            if (fab && !cfg.telemetry.tracePath.empty()) {
                flowTracer = std::make_unique<ShardFlowTracer>(telems);
                fab->attachFlowObserver(flowTracer.get());
            }
        }
    }

    for (auto &slice : slices) {
        slice->registerStats(statSet);
    }
    for (auto &dc : dcaches) {
        dc->registerStats(statSet);
    }
    for (auto &chan : chans) {
        chan->registerStats(statSet);
    }
    if (fab) {
        fab->registerStats(statSet);
    }

    for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
        std::uint32_t p = topo.partitionOfCore(c);
        std::unique_ptr<TraceSource> src;
        if (!cfg.traceFile.empty()) {
            // Trace-driven run: every core streams the same file (each
            // through its own decoder, so cores don't share a cursor).
            src = openTraceFile(cfg.traceFile);
        } else if (!workload[c].empty() && workload[c][0] == '@') {
            src = openTraceFile(workload[c].substr(1));
        } else {
            const BenchProfile &prof = benchmarkByName(workload[c]);
            src = std::make_unique<SyntheticTrace>(prof, c, cfg.seed);
        }
        if (cfg.sampling.enabled()) {
            // Interpose the SMARTS sampler: warmed ops go through the
            // core's private hierarchy functionally (and on down the
            // functional chain); measured ops reach the Core untouched.
            src = std::make_unique<SampledTrace>(
                std::move(src), cfg.sampling,
                [this, c](Addr a, bool w) {
                    mems[c]->functionalAccess(a, w);
                });
        }
        traces.push_back(std::move(src));
        LlcPort &below = topo.sharded()
                             ? static_cast<LlcPort &>(*corePorts[p])
                             : static_cast<LlcPort &>(*slices[0]);
        mems.push_back(std::make_unique<CoreMemory>(cfg.mem, below, c,
                                                    cfg.seed + 31 * c));
        mems.back()->registerStats(statSet);
        cores.push_back(
            std::make_unique<Core>(c, cfg.core, *traces[c], *mems[c], eq));
        cores.back()->onWarmed(
            [this](std::uint32_t id) { onCoreWarmed(id); });
        cores.back()->onDone([this](std::uint32_t id) { onCoreDone(id); });
    }
}

System::~System() = default;

void
System::setupTelemetry(std::uint32_t part)
{
    telemetry::TelemetryConfig tc =
        topo.sharded() ? cfg.telemetry.withShardSuffix(part)
                       : cfg.telemetry;
    auto t = std::make_unique<telemetry::SimTelemetry>(tc);
    Llc *llc = part < topo.slices ? slices[part].get() : nullptr;
    DramController *dc = part < topo.channels ? chans[part].get()
                                              : nullptr;
    if (llc) {
        llc->attachTelemetry(t.get());
    }
    if (dc) {
        dc->attachObserver(t.get());
    }

    telemetry::StatSampler *s = t->sampler();
    if (!s) {
        telems.push_back(std::move(t));
        return;
    }
    // Gauges read component state through stat-free const accessors
    // only; counters/rates are tracked with sampler-private last-value
    // bookkeeping. Either way the sampled run's stats stay identical
    // to an unsampled run's.
    if (llc) {
        Dbi *d = llc->dbiIndex();
        if (d) {
            s->addGauge("dirtyBlocks",
                        [d] { return double(d->countDirtyBlocks()); });
            s->addGauge("dbiValidEntries",
                        [d] { return double(d->countValidEntries()); });
        } else {
            const TagStore &ts = llc->tags();
            s->addGauge("dirtyBlocks",
                        [&ts] { return double(ts.countDirty()); });
        }
    }
    if (dc) {
        s->addGauge("writeQueueDepth",
                    [dc] { return double(dc->pendingWrites()); });
        s->addGauge("readQueueDepth",
                    [dc] { return double(dc->pendingReads()); });
        s->addGauge("drainMode",
                    [dc] { return dc->draining() ? 1.0 : 0.0; });
        s->addCounter("dramReads", dc->statReads);
        s->addCounter("dramWrites", dc->statWrites);
        s->addRate("readRowHitRate", dc->statReadRowHits, dc->statReads);
        s->addRate("writeRowHitRate", dc->statWriteRowHits,
                   dc->statWrites);
    }
    if (llc) {
        s->addCounter("llcDemandMisses", llc->statDemandMisses);
        s->addCounter("llcWbToDram", llc->statWbToDram);
    }
    telems.push_back(std::move(t));
}

Dbi *
System::dbi()
{
    return slices[0]->dbiIndex();
}

std::uint64_t
System::eventsDispatched() const
{
    return eq.dispatched();
}

void
System::onCoreWarmed(std::uint32_t)
{
    ++warmedCount;
    if (warmedCount == cfg.numCores) {
        // All cores crossed their warmup boundary: the measurement
        // window for system-wide stats starts here.
        statSet.snapshotAll();
        warmTime = eq.now();
    }
}

void
System::onCoreDone(std::uint32_t)
{
    ++doneCount;
    if (doneCount == cfg.numCores) {
        doneTime = eq.now();
        for (auto &core : cores) {
            core->halt();
        }
    }
}

void
System::runSingle()
{
    // Samplers are polled (one comparison each) rather than event-driven:
    // scheduling sampling events would keep the queue alive and perturb
    // same-cycle FIFO ordering, breaking run/no-run identity.
    std::vector<telemetry::StatSampler *> samplers;
    if constexpr (telemetry::kEnabled) {
        for (auto &t : telems) {
            if (t && t->sampler()) {
                samplers.push_back(t->sampler());
            }
        }
    }
    const std::uint64_t prof_begin = profiler ? prof::nowNs() : 0;
    while (eq.step()) {
        for (telemetry::StatSampler *sampler : samplers) {
            sampler->poll(eq.now());
        }
        if (eq.now() > cfg.maxCycles) {
            fatal("simulation exceeded %llu cycles: likely deadlock",
                  static_cast<unsigned long long>(cfg.maxCycles));
        }
    }
    if (profiler) {
        profiler->recordWork(prof::nowNs() - prof_begin, eq.dispatched());
    }
    panic_if(doneCount != cfg.numCores,
             "event queue drained before all cores finished");
}

SimResult
System::assembleResult()
{
    SimResult res;
    res.windowCycles = doneTime - warmTime;
    for (auto &core : cores) {
        res.ipc.push_back(core->ipc());
        res.totalInstrs += core->measuredInstrs();
    }
    res.stats = statSet.collect();

    std::uint64_t reads = 0, read_hits = 0, writes = 0, write_hits = 0;
    for (auto &chan : chans) {
        reads += chan->statReads.sinceSnapshot();
        read_hits += chan->statReadRowHits.sinceSnapshot();
        writes += chan->statWrites.sinceSnapshot();
        write_hits += chan->statWriteRowHits.sinceSnapshot();
    }
    res.readRowHitRate =
        reads ? static_cast<double>(read_hits) / reads : 0.0;
    res.writeRowHitRate =
        writes ? static_cast<double>(write_hits) / writes : 0.0;

    double kilo_instrs = static_cast<double>(res.totalInstrs) / 1000.0;
    res.tagLookupsPki =
        static_cast<double>(res.stats["llc.tagLookups"]) / kilo_instrs;
    res.wpki = static_cast<double>(res.stats["dram.writes"]) / kilo_instrs;
    res.mpki =
        static_cast<double>(res.stats["llc.demandMisses"]) / kilo_instrs;
    for (auto &chan : chans) {
        res.dramEnergyPj += chan->energySince(res.windowCycles).totalPj();
    }

    if constexpr (telemetry::kEnabled) {
        for (std::uint32_t p = 0; p < telems.size(); ++p) {
            if (!telems[p]) {
                continue;
            }
            if (p < topo.channels) {
                telems[p]->setTotal("dram.drainCycles",
                                    chans[p]->statDrainCycles.value());
                telems[p]->setTotal("dram.drains",
                                    chans[p]->statDrains.value());
            }
            telems[p]->finish(eq.now());
            std::string prefix =
                topo.sharded() ? "s" + std::to_string(p) + "." : "";
            for (const auto &[key, value] :
                 telems[p]->summaryMetrics()) {
                res.telemetry[prefix + key] = value;
            }
        }
        // All per-shard trace documents are closed: fold them into one
        // trace at the un-suffixed path (pid == shard id throughout).
        if (topo.sharded() && !cfg.telemetry.tracePath.empty() &&
            !telems.empty()) {
            telemetry::mergeShardTraces(cfg.telemetry.tracePath,
                                        topo.partitions);
        }
    }

    if (profiler) {
        res.hostProfile = profiler->metrics();
    }

    for (std::size_t s = 0; s < metaIndexes.size(); ++s) {
        if (topo.slices == 1) {
            metaIndexes[s]->reportMetrics(res.metadata);
        } else {
            std::map<std::string, double> m;
            metaIndexes[s]->reportMetrics(m);
            std::string prefix = "s" + std::to_string(s) + ".";
            for (const auto &[key, value] : m) {
                res.metadata[prefix + key] = value;
            }
        }
    }

    if (cfg.dcache.enable && !dcaches.empty()) {
        // Storage accounting for the dirty-tracking ablation: what the
        // SRAM index costs vs the per-page bits the tags-mode keeps in
        // stacked DRAM (machine totals across slices).
        DCacheMetaParams mp;
        mp.sliceBytes = dcaches[0]->config().sizeBytes;
        mp.pageBytes = cfg.dcache.pageBytes;
        mp.indexEntries = cfg.dcache.indexEntries;
        mp.indexAssoc = cfg.dcache.indexAssoc;
        const DCacheMetaBits mb = dcacheMetaBits(mp);
        res.metadata["dcache.indexSramBits"] =
            static_cast<double>(mb.indexSramBits * topo.slices);
        res.metadata["dcache.tagDirtyBits"] =
            static_cast<double>(mb.tagDirtyBits * topo.slices);
        res.metadata["dcache.indexCoverage"] =
            static_cast<double>(mb.indexPages) /
            static_cast<double>(mb.slicePages);
    }

    for (auto &slice : slices) {
        slice->checkInvariants();
    }
    for (auto &watch : auditors) {
        // End-of-run differential: the mechanism's final dirty state
        // must reproduce the ground-truth memory image exactly, slice
        // by slice.
        watch->checkNow();
        panic_if(watch->finalImage() != watch->shadow().finalImage(),
                 "final memory image diverges from ground truth");
    }
    for (auto &watch : dcacheAuditors) {
        // Second dirty level: the DRAM cache's flush set must cover
        // exactly the blocks whose data never reached backing DDR.
        watch->checkFinal();
    }
    return res;
}

SimResult
System::run()
{
    if (profiler) {
        profiler->beginRun();
    }
    for (auto &core : cores) {
        core->start();
    }
    runSingle();
    if (profiler) {
        profiler->endRun();
    }
    return assembleResult();
}

SimResult
runWorkload(const SystemConfig &config, const WorkloadMix &mix)
{
    System sys(config, mix);
    return sys.run();
}

} // namespace dbsim
