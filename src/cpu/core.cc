#include "core.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dbsim {

Core::Core(std::uint32_t core_id, const CoreConfig &config,
           TraceSource &trace_source, CoreMemory &memory,
           EventQueue &event_queue)
    : coreId(core_id), cfg(config), trace(trace_source), mem(memory),
      eq(event_queue)
{
    fatal_if(cfg.robSize == 0 || cfg.mshrs == 0, "bad core configuration");
    fatal_if(cfg.warmupInstrs == 0, "need at least one warmup instruction");
    completion.assign(cfg.robSize, 0);
    retireTime.assign(cfg.robSize, 0);
    doneTarget = cfg.warmupInstrs + cfg.measureInstrs;
    haltTarget = cfg.maxOverrun != 0 ? doneTarget * cfg.maxOverrun : 0;

    // Resume after an MSHR-full stall.
    mem.onMshrFreed([this] {
        if (blocked && !halted) {
            blocked = false;
            lastIssueCycle = std::max(lastIssueCycle, eq.now());
            runAhead();
        }
    });
}

void
Core::start()
{
    panic_if(started, "core started twice");
    started = true;
    eq.schedule(eq.now(), [this] { runAhead(); }, prof::Core);
}

double
Core::ipc() const
{
    panic_if(!done(), "IPC queried before the core finished");
    return static_cast<double>(cfg.measureInstrs) /
           static_cast<double>(doneAt - warmedAt);
}

void
Core::advanceResolution()
{
    while (resolvedUpTo < nextIssue) {
        std::uint32_t slot = resolvedSlot;
        Cycle c = completion[slot];
        if (c == kCycleMax) {
            break;  // oldest unresolved instruction still pending
        }
        Cycle retire = std::max(c, lastRetireCycle + 1);
        retireTime[slot] = retire;
        lastRetireCycle = retire;
        ++resolvedUpTo;
        if (++resolvedSlot == cfg.robSize) {
            resolvedSlot = 0;
        }

        if (resolvedUpTo == cfg.warmupInstrs) {
            warmedAt = retire;
            if (warmedFn) {
                warmedFn(coreId);
            }
        }
        if (resolvedUpTo == doneTarget) {
            doneAt = retire;
            if (doneFn) {
                doneFn(coreId);
            }
        }
        if (resolvedUpTo == haltTarget) {
            halted = true;  // stop contending; see CoreConfig::maxOverrun
        }
    }
}

void
Core::memoryDone(std::uint64_t instr_idx, Cycle c)
{
    std::uint32_t slot = static_cast<std::uint32_t>(instr_idx % cfg.robSize);
    panic_if(completion[slot] != kCycleMax,
             "memory completion for a resolved instruction");
    completion[slot] = c;
    if (instr_idx == lastMemIdx) {
        lastMemCompletion = c;  // dependent successors may now issue
    }
    advanceResolution();
    if (blocked && !halted) {
        blocked = false;
        // The block resolved now; nothing can issue earlier than this.
        lastIssueCycle = std::max(lastIssueCycle, eq.now());
        runAhead();
    }
}

void
Core::runAhead()
{
    if (halted) {
        return;
    }
    for (;;) {
        // Bounded run-ahead: yield once we are `slack` cycles past
        // global time so other cores' events interleave.
        if (lastIssueCycle > eq.now() + cfg.slack) {
            yielded = true;
            eq.schedule(lastIssueCycle, [this] {
                yielded = false;
                runAhead();
            }, prof::Core);
            return;
        }

        if (gapLeft == 0 && !opPending) {
            curOp = trace.next();
            gapLeft = curOp.gap;
            opPending = true;
        }

        // Window constraint: instruction i needs slot i-ROB retired.
        // (A genuine deadlock here is impossible: the head of the
        // window is a pending load whose completion callback resumes
        // us; System::run's maxCycles guard backstops real bugs.)
        if (nextIssue >= cfg.robSize &&
            nextIssue - cfg.robSize >= resolvedUpTo) {
            blocked = true;
            return;
        }

        Cycle min_issue = lastIssueCycle + 1;
        if (nextIssue >= cfg.robSize) {
            // (nextIssue - robSize) and nextIssue share a ring slot.
            min_issue =
                std::max(min_issue, retireTime[nextIssueSlot] + 1);
        }

        Cycle issue = min_issue;
        Cycle comp;
        std::uint64_t idx = nextIssue;

        if (gapLeft > 0) {
            // Non-memory instruction: single-cycle execute.
            --gapLeft;
            comp = issue + 1;
        } else {
            // The memory access of the current record.
            if (mem.mshrsInUse() >= cfg.mshrs) {
                blocked = true;  // wait for an MSHR to free
                return;
            }
            // Pointer-chasing dependence: wait for the previous memory
            // op's value before issuing.
            if (curOp.dependent) {
                if (lastMemCompletion == kCycleMax) {
                    blocked = true;
                    return;
                }
                issue = std::max(issue, lastMemCompletion);
            }
            if (curOp.isWrite) {
                // Stores retire promptly (store buffer); store-miss
                // fills still occupy an MSHR until they return.
                comp = issue + 1;
                mem.store(curOp.addr, issue, [](Cycle) {});
                lastMemCompletion = comp;
            } else {
                auto res = mem.load(curOp.addr, issue,
                                    [this, idx](Cycle c) {
                                        memoryDone(idx, c);
                                    });
                if (res.pending) {
                    comp = kCycleMax;
                } else {
                    comp = issue + res.latency;
                }
                lastMemCompletion = comp;
                lastMemIdx = idx;
            }
            opPending = false;
        }

        completion[nextIssueSlot] = comp;
        lastIssueCycle = issue;
        ++nextIssue;
        if (++nextIssueSlot == cfg.robSize) {
            nextIssueSlot = 0;
        }
        advanceResolution();

        if (halted) {
            return;  // a milestone callback may have halted us
        }
    }
}

} // namespace dbsim
