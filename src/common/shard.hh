/**
 * @file
 * The inter-shard fabric (ShardFabric) of a sharded machine.
 *
 * A shard is one partition of the simulated machine: an LLC slice and
 * (when the machine has that many) a DRAM channel, plus the cores
 * placed on it. Every shard schedules into the same EventQueue. Within
 * a shard every interaction is a direct call. Across shards, traffic
 * goes through the ShardFabric, which models the NUCA hop: a message
 * sent at cycle t is an ordinary event at t + hopLatency on that one
 * queue. Delivery order is therefore the queue's own order (cycle,
 * then schedule order), a pure function of the simulation.
 */

#ifndef DBSIM_COMMON_SHARD_HH
#define DBSIM_COMMON_SHARD_HH

#include <cstdint>
#include <utility>

#include "event_queue.hh"
#include "logging.hh"
#include "stats.hh"
#include "types.hh"

namespace dbsim {

/**
 * Observer of cross-shard message lifecycle, for flight-recorder style
 * tracing. Purely passive: it sees (but cannot alter) every fabric
 * message, identified by a deterministic flow id that is unique over a
 * run and encodes (send sequence, src, dst).
 *
 * onSend runs inside send(), at the sender's cycle. onDeliver runs in
 * the delivery event, just before the message's handler.
 */
class FlowObserver
{
  public:
    virtual ~FlowObserver() = default;

    virtual void onSend(std::uint32_t src, std::uint32_t dst,
                        Cycle send_time, Cycle deliver_time,
                        std::uint64_t flow_id, const char *kind) = 0;
    virtual void onDeliver(std::uint32_t src, std::uint32_t dst,
                           Cycle deliver_time, std::uint64_t flow_id,
                           const char *kind) = 0;
};

/**
 * The inter-shard hop: a message sent at cycle t runs its handler at
 * t + hopLatency, as an event on the machine's one queue.
 */
class ShardFabric
{
  public:
    ShardFabric(std::uint32_t num_shards, Cycle hop_latency,
                EventQueue &event_queue)
        : numShards_(num_shards), hop(hop_latency), q(event_queue)
    {
        fatal_if(num_shards < 1, "fabric needs at least one shard");
        fatal_if(hop_latency < 1,
                 "cross-shard hop latency must be >= 1 cycle");
    }

    /**
     * Send a message from shard `src` to shard `dst` at cycle
     * `send_time`: `fn(Cycle at)` runs at at == send_time + the hop
     * latency.
     * `kind` labels the message for tracing (static string; never
     * affects delivery). The delivery event must fit the queue's inline
     * storage, so `fn` may capture at most 24 bytes.
     */
    template <typename F>
    void
    send(std::uint32_t src, std::uint32_t dst, Cycle send_time, F &&fn,
         const char *kind = "msg")
    {
        const Cycle at = send_time + hop;
        if (!observer) {
            q.schedule(at, [this, fn = std::forward<F>(fn)]() mutable {
                statMessages += 1;
                fn(q.now());
            }, prof::Fabric);
            return;
        }
        // Flow id: unique per run, recoverable to (src, dst), and
        // deterministic through the send sequence.
        const std::uint64_t id =
            (nextFlow++ * numShards_ + src) * numShards_ + dst;
        observer->onSend(src, dst, send_time, at, id, kind);
        q.schedule(at, [this, fn = std::forward<F>(fn), id, kind]() mutable {
            statMessages += 1;
            observer->onDeliver(
                static_cast<std::uint32_t>((id / numShards_) % numShards_),
                static_cast<std::uint32_t>(id % numShards_), q.now(), id,
                kind);
            fn(q.now());
        }, prof::Fabric);
    }

    /**
     * Attach a passive flow observer (nullptr detaches). Call before
     * the run starts.
     */
    void attachFlowObserver(FlowObserver *obs) { observer = obs; }

    /** Messages delivered over the fabric's lifetime. */
    Counter statMessages;

    /** Register fabric counters for snapshotting. */
    void
    registerStats(StatSet &set)
    {
        set.add("fabric.messages", statMessages);
    }

  private:
    std::uint32_t numShards_;
    Cycle hop;
    EventQueue &q;
    FlowObserver *observer = nullptr;
    std::uint64_t nextFlow = 0;  ///< observed sends so far
};

} // namespace dbsim

#endif // DBSIM_COMMON_SHARD_HH
