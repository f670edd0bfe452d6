#include "shard.hh"

#include <algorithm>

namespace dbsim {

void
ShardFabric::deliverAll(const std::vector<EventQueue *> &queues)
{
    fatal_if(queues.size() != numShards_,
             "fabric has %u shards but %zu queues", numShards_,
             queues.size());
    for (std::uint32_t dst = 0; dst < numShards_; ++dst) {
        merged.clear();
        // Merge the incoming lanes of `dst` into one deterministic
        // stream. Sort keys are unique — seq is per-lane and src breaks
        // inter-lane ties — so the order is a total order independent of
        // which host threads produced the messages.
        for (std::uint32_t src = 0; src < numShards_; ++src) {
            Lane &lane = lanes[std::size_t(src) * numShards_ + dst];
            for (Message &msg : lane.box) {
                merged.push_back(std::move(msg));
                merged.back().seq = merged.back().seq * numShards_ + src;
            }
            lane.box.clear();
        }
        std::sort(merged.begin(), merged.end(),
                  [](const Message &a, const Message &b) {
                      if (a.deliverAt != b.deliverAt) {
                          return a.deliverAt < b.deliverAt;
                      }
                      return a.seq < b.seq;
                  });
        for (Message &msg : merged) {
            statMessages += 1;
            if (observer) {
                // src is recoverable from the flow id; Message does not
                // carry it separately.
                const auto src = static_cast<std::uint32_t>(
                    (msg.flowId / numShards_) % numShards_);
                observer->onDeliver(src, dst, msg.deliverAt, msg.flowId,
                                    msg.kind);
            }
            queues[dst]->schedule(
                msg.deliverAt,
                [fn = std::move(msg.fn), at = msg.deliverAt] { fn(at); },
                prof::Fabric);
        }
    }
    merged.clear();
}

std::uint64_t
ShardFabric::inFlight() const
{
    std::uint64_t n = 0;
    for (const Lane &lane : lanes) {
        n += lane.box.size();
    }
    return n;
}

namespace {

/** One spin-wait step: tell the core we are busy-waiting. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/**
 * A barrier wait first pauses for kPauseSteps steps, cheap when the
 * awaited thread is running on another core, then yields the CPU for up
 * to kSpinSteps in all: where threads outnumber the cores they may use
 * (a CPU quota, an affinity mask), the yield hands the core to the
 * thread being waited for. Only then does the waiter sleep. The yield
 * phase is kept short because on a core shared with a busy process a
 * yield gives that process a whole time slice: 2048 steps instead of
 * 256 made the 4-worker host_perf point 4x slower with three CPU-bound
 * processes on a 4-CPU host.
 */
constexpr std::uint32_t kPauseSteps = 64;
constexpr std::uint32_t kSpinSteps = 256;

} // namespace

ShardWorkers::ShardWorkers(std::uint32_t num_workers)
    : numWorkers(num_workers ? num_workers : 1)
{
    threads.reserve(numWorkers - 1);
    for (std::uint32_t w = 1; w < numWorkers; ++w) {
        threads.emplace_back([this, w] { workerLoop(w); });
    }
}

ShardWorkers::~ShardWorkers()
{
    {
        std::lock_guard<std::mutex> lock(m);
        stopping.store(true);
    }
    cvStart.notify_all();
    for (std::thread &t : threads) {
        t.join();
    }
}

template <typename Pred>
bool
ShardWorkers::spinUntil(Pred pred)
{
    for (std::uint32_t i = 0; i < kSpinSteps; ++i) {
        if (pred()) {
            return true;
        }
        if (i < kPauseSteps) {
            cpuRelax();
        } else {
            std::this_thread::yield();
        }
    }
    return pred();
}

void
ShardWorkers::run(const std::function<void(std::uint32_t)> &fn)
{
    if (numWorkers == 1) {
        fn(0);
        return;
    }
    {
        // Under m, so a worker cannot test the predicate between this
        // change and the notify and then sleep through it.
        std::lock_guard<std::mutex> lock(m);
        work = &fn;
        running.store(numWorkers - 1, std::memory_order_relaxed);
        generation.fetch_add(1, std::memory_order_release);
    }
    cvStart.notify_all();
    fn(0);
    auto all_done = [this] {
        return running.load(std::memory_order_acquire) == 0;
    };
    if (!spinUntil(all_done)) {
        std::unique_lock<std::mutex> lock(m);
        cvDone.wait(lock, all_done);
    }
}

void
ShardWorkers::workerLoop(std::uint32_t index)
{
    std::uint64_t seen = 0;
    auto woken = [&] {
        return stopping.load(std::memory_order_relaxed) ||
               generation.load(std::memory_order_acquire) != seen;
    };
    for (;;) {
        if (!spinUntil(woken)) {
            std::unique_lock<std::mutex> lock(m);
            cvStart.wait(lock, woken);
        }
        if (stopping.load(std::memory_order_relaxed)) {
            return;
        }
        seen = generation.load(std::memory_order_acquire);
        (*work)(index);
        bool last;
        {
            std::lock_guard<std::mutex> lock(m);
            last = running.fetch_sub(1, std::memory_order_acq_rel) == 1;
        }
        if (last) {
            cvDone.notify_one();  // run() may have gone to sleep
        }
    }
}

} // namespace dbsim
