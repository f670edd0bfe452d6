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
        // inter-lane ties — so the order is a total order.
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

} // namespace dbsim
