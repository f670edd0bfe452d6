#include "dram_controller.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dbsim {

DramController::DramController(const DramConfig &config,
                               EventQueue &event_queue)
    : cfg(config), eq(event_queue),
      map(config.rowBytes, config.numBanks,
          config.channels ? config.channels : 1),
      banks(config.numBanks), readQ(config.numBanks),
      writeQ(config.numBanks)
{
    fatal_if(cfg.writeBufEntries == 0, "write buffer needs capacity");
    fatal_if(cfg.drainLowWatermark >= cfg.writeBufEntries,
             "drain low watermark must be below capacity");
}

void
DramController::registerStats(StatSet &set)
{
    set.add("dram.reads", statReads);
    set.add("dram.writes", statWrites);
    set.add("dram.readRowHits", statReadRowHits);
    set.add("dram.writeRowHits", statWriteRowHits);
    set.add("dram.activates", statActivates);
    set.add("dram.drains", statDrains);
    set.add("dram.drainCycles", statDrainCycles);
    set.add("dram.forwards", statForwards);
    set.add("dram.coalesced", statCoalesced);
}

double
DramController::readRowHitRate() const
{
    std::uint64_t n = statReads.sinceSnapshot();
    return n ? static_cast<double>(statReadRowHits.sinceSnapshot()) / n
             : 0.0;
}

double
DramController::writeRowHitRate() const
{
    std::uint64_t n = statWrites.sinceSnapshot();
    return n ? static_cast<double>(statWriteRowHits.sinceSnapshot()) / n
             : 0.0;
}

DramEnergy
DramController::energySince(Cycle now) const
{
    DramEnergy e;
    e.activatePj = cfg.eActivatePj *
                   static_cast<double>(statActivates.sinceSnapshot());
    e.readPj = cfg.eReadPj * static_cast<double>(statReads.sinceSnapshot());
    e.writePj =
        cfg.eWritePj * static_cast<double>(statWrites.sinceSnapshot());
    // background: mW * cycles / 2.67GHz -> pJ; 1 mW = 1e-3 J/s.
    double seconds = static_cast<double>(now) / 2.67e9;
    e.backgroundPj = cfg.backgroundMw * 1e-3 * seconds * 1e12;
    return e;
}

void
DramController::enqueueRead(Addr block_addr, Cycle when, ReadCallback cb)
{
    Addr a = blockAlign(block_addr);
    // Read-around-write: forward from the write buffer if present.
    if (writeQAddrs.contains(a)) {
        ++statForwards;
        Cycle done = when + cfg.ioLatency;
        eq.schedule(done, [cb = std::move(cb), done] { cb(done); },
                    prof::Dram);
        return;
    }
    std::uint32_t b = map.bank(a);
    readQ.push(ReadQueue::Request{a, when, map.rowId(a), b, std::move(cb)},
               banks[b].openRow);
    scheduleService(when);
}

void
DramController::enqueueWrite(Addr block_addr, Cycle when)
{
    Addr a = blockAlign(block_addr);
    if (!writeQAddrs.insert(a, 0)) {
        ++statCoalesced;
        return;
    }
    std::uint32_t b = map.bank(a);
    writeQ.push(WriteQueue::Request{a, when, map.rowId(a), b, {}},
                banks[b].openRow);
    if (writeQ.size() >= cfg.writeBufEntries && !drainMode) {
        drainMode = true;
        drainStartAt = std::max(when, eq.now());
        drainWrites = 0;
        ++statDrains;
        if (obs) {
            obs->onDrainStart(drainStartAt);
        }
    }
    scheduleService(when);
}

void
DramController::scheduleService(Cycle when)
{
    if (servicePending) {
        return;
    }
    servicePending = true;
    Cycle at = std::max(when, eq.now());
    eq.schedule(at, [this] {
        servicePending = false;
        serviceNext();
    }, prof::Dram);
}

Cycle
DramController::issue(std::uint32_t bank_idx, std::uint64_t row,
                      bool is_write, Cycle arrive, Cycle now)
{
    Bank &bank = banks[bank_idx];

    bool row_hit = bank.openRow >= 0 &&
                   static_cast<std::uint64_t>(bank.openRow) == row;

    // Bank preparation overlaps other banks' bus transfers: it may have
    // begun as soon as the request arrived and the bank was free, even
    // though the data bus only frees up later (bank-level parallelism).
    if (!row_hit) {
        // Precharge waits for write recovery (tWR) in this bank, then
        // the activate is rate-limited globally by tRRD and tFAW — this
        // is what makes row-scattered drains slower than clustered ones.
        Cycle pre = std::max({arrive, bank.prechargeOkAt,
                              bank.colCmdOkAt});
        Cycle act = pre;
        if (bank.openRow >= 0) {
            act += static_cast<Cycle>(cfg.tRp) * cfg.tCkCpu;
        }
        if (numActivates >= 1) {
            Cycle rrd_ok = recentActivates[(activateIdx + 3) % 4] +
                           static_cast<Cycle>(cfg.tRrd) * cfg.tCkCpu;
            act = std::max(act, rrd_ok);
        }
        if (numActivates >= 4) {
            Cycle faw_ok = recentActivates[activateIdx] +
                           static_cast<Cycle>(cfg.tFaw) * cfg.tCkCpu;
            act = std::max(act, faw_ok);
        }
        recentActivates[activateIdx] = act;
        activateIdx = (activateIdx + 1) % 4;
        ++numActivates;
        ++statActivates;

        bank.rowReadyAt = act + static_cast<Cycle>(cfg.tRcd) * cfg.tCkCpu;
        bank.openRow = static_cast<std::int64_t>(row);
        readQ.rowOpened(bank_idx, row);
        writeQ.rowOpened(bank_idx, row);
        // tRAS floor for the next precharge.
        bank.prechargeOkAt =
            act + static_cast<Cycle>(cfg.tRas) * cfg.tCkCpu;
    }

    Cycle turnaround = 0;
    if (is_write != lastWasWrite) {
        turnaround =
            static_cast<Cycle>(is_write ? cfg.tRtw : cfg.tWtr) * cfg.tCkCpu;
    }

    Cycle col_cmd = std::max({arrive, bank.rowReadyAt, bank.colCmdOkAt});
    Cycle data_start =
        std::max({col_cmd + static_cast<Cycle>(cfg.tCas) * cfg.tCkCpu,
                  busFreeAt + turnaround, now});
    Cycle data_end =
        data_start + static_cast<Cycle>(cfg.tBurst) * cfg.tCkCpu;

    // Column commands to the same bank chain at the burst rate (tCCD);
    // the CAS latency itself pipelines behind the previous transfer.
    bank.colCmdOkAt = data_start;
    busFreeAt = data_end;
    if (is_write) {
        bank.prechargeOkAt = std::max(
            bank.prechargeOkAt,
            data_end + static_cast<Cycle>(cfg.tWr) * cfg.tCkCpu);
        ++statWrites;
        if (row_hit) {
            ++statWriteRowHits;
        }
    } else {
        bank.prechargeOkAt = std::max(bank.prechargeOkAt, data_end);
        ++statReads;
        if (row_hit) {
            ++statReadRowHits;
        }
    }
    lastWasWrite = is_write;
    return data_end;
}

void
DramController::endDrain(Cycle now)
{
    drainMode = false;
    Cycle credited = now > drainStartAt ? now - drainStartAt : 0;
    statDrainCycles += credited;
    if (obs) {
        obs->onDrainEnd(drainStartAt, drainStartAt + credited,
                        drainWrites);
    }
}

void
DramController::serviceNext()
{
    Cycle now = eq.now();

    bool do_write;
    if (drainMode) {
        do_write = !writeQ.empty();
        if (!do_write) {
            // Defensive only: the drain now ends at the dequeue that
            // crosses the watermark, so it never runs the queue empty.
            endDrain(now);
        }
    } else if (!readQ.empty()) {
        do_write = false;
    } else if (cfg.writeWhenIdle && !writeQ.empty()) {
        do_write = true;
    } else {
        return;  // nothing to do; next enqueue reschedules us
    }

    if (do_write) {
        panic_if(writeQ.empty(), "drain with empty write queue");
        WriteQueue::Request req = writeQ.take(writeQ.pick());
        writeQAddrs.erase(req.addr);
        issue(req.bank, req.row, true, req.arrive, now);
        if (drainMode) {
            ++drainWrites;
        }
        // The drain window ends the moment this dequeue reaches the low
        // watermark. Waiting for a later service event to observe the
        // transition (as this used to) under-counts statDrainCycles —
        // a drain that empties the queue with no subsequent traffic was
        // never credited at all — and leaves drainMode latched on.
        if (drainMode && writeQ.size() <= cfg.drainLowWatermark) {
            endDrain(now);
        }
    } else {
        if (readQ.empty()) {
            return;
        }
        ReadQueue::Request req = readQ.take(readQ.pick());
        Cycle data_end = issue(req.bank, req.row, false, req.arrive, now);
        Cycle done = data_end + cfg.ioLatency;
        eq.schedule(done,
                    [cb = std::move(req.payload), done] { cb(done); },
                    prof::Dram);
    }

    if (!readQ.empty() || !writeQ.empty()) {
        // Next command can begin once the bus frees; overlap bank prep.
        scheduleService(std::max(now + 1, busFreeAt));
    }
}

} // namespace dbsim
