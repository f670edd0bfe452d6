/**
 * @file
 * Sharded execution layer: the ShardContext handle components schedule
 * through and the time-stamped inter-shard mailbox (ShardFabric).
 *
 * A shard is one execution partition of the simulated machine: it owns
 * an EventQueue, an LLC slice, and (when the machine has that many) a
 * DRAM channel. Within a shard every interaction is a direct call, as
 * before. Across shards, all traffic goes through the ShardFabric: a
 * message sent at cycle t is delivered at t + hopLatency into the
 * destination shard's queue, and hopLatency doubles as the conservative
 * lookahead of the epoch loop (System::runSharded):
 *
 *   - Shards execute epoch k = cycles [k*W, (k+1)*W) one after another,
 *     each on its own EventQueue, where W == hopLatency.
 *   - A message sent during epoch k has deliverAt >= (k+1)*W, i.e. it
 *     can only matter in a *later* epoch, so the order in which the
 *     shards of one epoch run cannot miss or reorder any interaction.
 *   - At the barrier between epochs deliverAll drains every lane in a
 *     fixed total order — (deliverAt, per-lane sequence number, source
 *     shard) — so delivery order is a pure function of the simulation.
 */

#ifndef DBSIM_COMMON_SHARD_HH
#define DBSIM_COMMON_SHARD_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "event_queue.hh"
#include "logging.hh"
#include "stats.hh"
#include "types.hh"

namespace dbsim {

class ShardFabric;

/**
 * Observer of cross-shard message lifecycle, for flight-recorder style
 * tracing. Purely passive: it sees (but cannot alter) every fabric
 * message, identified by a deterministic flow id that is unique over a
 * run and encodes (lane sequence, src, dst).
 *
 * onSend runs mid-epoch, while shard `src` executes. onDeliver runs at
 * the epoch barrier (inside deliverAll), when no shard is executing.
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
 * The handle through which a component reaches its simulation kernel:
 * which shard it lives on, that shard's EventQueue, and the fabric for
 * cross-shard traffic (nullptr on single-shard machines).
 *
 * Implicitly constructible from a bare EventQueue& so pre-shard code
 * (`Llc llc(cfg, dram, eq)`) keeps compiling: such components live on
 * shard 0 of an unsharded world.
 */
class ShardContext
{
  public:
    ShardContext(EventQueue &event_queue)  // NOLINT: implicit by design
        : q(&event_queue)
    {
    }

    ShardContext(std::uint32_t shard_id, EventQueue &event_queue,
                 ShardFabric *shard_fabric)
        : q(&event_queue), fab(shard_fabric), id(shard_id)
    {
    }

    EventQueue &queue() const { return *q; }
    std::uint32_t shard() const { return id; }

    /** The cross-shard mailbox; nullptr when the world has one shard. */
    ShardFabric *fabric() const { return fab; }
    bool sharded() const { return fab != nullptr; }

  private:
    EventQueue *q;
    ShardFabric *fab = nullptr;
    std::uint32_t id = 0;
};

/**
 * Time-stamped inter-shard mailbox.
 *
 * During an epoch each shard appends messages to its outgoing lanes.
 * At the epoch barrier deliverAll() merges every destination's
 * incoming lanes in (deliverAt, seq, src) order and schedules the
 * callbacks into the destination queues. Messages sent at cycle t
 * deliver at t + hopLatency.
 */
class ShardFabric
{
  public:
    using Handler = std::function<void(Cycle)>;

    ShardFabric(std::uint32_t num_shards, Cycle hop_latency)
        : numShards_(num_shards), hop(hop_latency),
          lanes(std::size_t(num_shards) * num_shards)
    {
        fatal_if(num_shards < 1, "fabric needs at least one shard");
        fatal_if(hop_latency < 1,
                 "cross-shard hop latency must be >= 1 cycle (it is the "
                 "epoch lookahead)");
    }

    std::uint32_t numShards() const { return numShards_; }

    /** The cross-shard latency; also the epoch window W. */
    Cycle hopLatency() const { return hop; }

    /**
     * Send a message from shard `src` to shard `dst` at cycle
     * `send_time`; `fn` runs on shard dst at send_time + hopLatency().
     * `kind` labels the message for tracing (static string; never
     * affects delivery). Called only while shard src executes.
     */
    void
    send(std::uint32_t src, std::uint32_t dst, Cycle send_time, Handler fn,
         const char *kind = "msg")
    {
        Lane &lane = lanes[std::size_t(src) * numShards_ + dst];
        // Flow id: unique per run and recoverable to (src, dst), and
        // deterministic through the per-lane sequence.
        const std::uint64_t id =
            (lane.nextSeq * numShards_ + src) * numShards_ + dst;
        lane.box.push_back(
            Message{send_time + hop, lane.nextSeq++, std::move(fn), id,
                    kind});
        if (observer) {
            observer->onSend(src, dst, send_time, send_time + hop, id,
                             kind);
        }
    }

    /**
     * Attach a passive flow observer (nullptr detaches). Call before
     * the run starts.
     */
    void attachFlowObserver(FlowObserver *obs) { observer = obs; }

    /**
     * Barrier-time delivery: schedule every in-flight message into its
     * destination queue, in (deliverAt, seq, src) order per destination.
     * No shard may be executing. `queues[s]` is shard s's EventQueue.
     */
    void deliverAll(const std::vector<EventQueue *> &queues);

    /** Messages currently buffered in lanes (barrier-time only). */
    std::uint64_t inFlight() const;

    /** Messages delivered over the fabric's lifetime. */
    Counter statMessages;

    /** Register fabric counters for snapshotting. */
    void
    registerStats(StatSet &set)
    {
        set.add("fabric.messages", statMessages);
    }

  private:
    struct Message
    {
        Cycle deliverAt;
        std::uint64_t seq;
        Handler fn;
        std::uint64_t flowId;
        const char *kind;
    };

    /** One (src, dst) lane, written by shard src mid-epoch. */
    struct Lane
    {
        std::vector<Message> box;
        std::uint64_t nextSeq = 0;
    };

    std::uint32_t numShards_;
    Cycle hop;
    FlowObserver *observer = nullptr;
    std::vector<Lane> lanes;  ///< lane (src, dst) at src*numShards+dst
    std::vector<Message> merged;  ///< deliverAll scratch (reused)
};

} // namespace dbsim

#endif // DBSIM_COMMON_SHARD_HH
