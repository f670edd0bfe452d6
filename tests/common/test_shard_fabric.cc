/**
 * @file
 * ShardFabric unit tests: delivery timing (always send time + hop, so a
 * message lands strictly after the epoch it was sent in), deterministic
 * total ordering of same-cycle messages regardless of which lane they
 * arrived on, and a randomized no-message-loss property whose failures
 * are ddmin-shrunk to a minimal reproducing message set.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/event_queue.hh"
#include "common/rng.hh"
#include "common/shard.hh"

namespace dbsim {
namespace {

/** N queues + a fabric, with the epoch plumbing tests drive by hand. */
struct Mesh
{
    explicit Mesh(std::uint32_t n, Cycle hop) : fab(n, hop)
    {
        for (std::uint32_t i = 0; i < n; ++i) {
            queues.push_back(std::make_unique<EventQueue>());
            ptrs.push_back(queues.back().get());
        }
    }

    /** One conservative epoch: run every queue to `limit`, then flush. */
    void
    epoch(Cycle limit)
    {
        for (EventQueue *q : ptrs) {
            q->runUntil(limit);
        }
        fab.deliverAll(ptrs);
    }

    std::vector<std::unique_ptr<EventQueue>> queues;
    std::vector<EventQueue *> ptrs;
    ShardFabric fab;
};

TEST(ShardFabric, DeliversAtSendTimePlusHop)
{
    Mesh mesh(2, 10);
    Cycle delivered = 0;
    mesh.fab.send(0, 1, 5, [&](Cycle at) { delivered = at; });
    EXPECT_EQ(mesh.fab.inFlight(), 1u);

    mesh.epoch(9);  // epoch [0, 10): the send happened inside it
    EXPECT_EQ(mesh.fab.inFlight(), 0u);
    mesh.epoch(19);
    EXPECT_EQ(delivered, 15u);
    EXPECT_EQ(mesh.queues[1]->now(), 19u);
    EXPECT_EQ(mesh.fab.statMessages.value(), 1u);
}

TEST(ShardFabric, DeliveryIsNeverInsideTheSendingEpoch)
{
    // The conservative-window contract: with hop == W, a message sent
    // at any t in [B, B+W) delivers at t+W in [B+W, B+2W) — strictly
    // after the barrier, so no destination can have advanced past it.
    const Cycle W = 8;
    Mesh mesh(3, W);
    std::vector<Cycle> deliveries;
    for (Cycle base = 0; base < 5 * W; base += W) {
        const Cycle limit = base + W - 1;
        for (Cycle t = base; t <= limit; t += 3) {
            mesh.fab.send(0, 2, t, [&, base](Cycle at) {
                deliveries.push_back(at);
                EXPECT_GE(at, base + W) << "delivered in its own epoch";
            });
        }
        mesh.epoch(limit);
    }
    mesh.epoch(6 * W - 1);
    EXPECT_EQ(deliveries.size(), 15u);
    EXPECT_TRUE(std::is_sorted(deliveries.begin(), deliveries.end()));
}

TEST(ShardFabric, SameCycleMessagesOrderBySeqThenSourceLane)
{
    // Three sources hit shard 3 at the same delivery cycle. The merged
    // order must be a pure function of (deliverAt, per-lane seq, src) —
    // the lanes were filled in an arbitrary host order, but the result
    // interleaves round-robin by sequence number with source id
    // breaking ties, matching the documented total order.
    Mesh mesh(4, 4);
    std::vector<std::string> order;
    auto tag = [&](std::string label) {
        return [&order, label = std::move(label)](Cycle) {
            order.push_back(label);
        };
    };
    // Fill lanes deliberately out of source order.
    mesh.fab.send(2, 3, 0, tag("c0"));
    mesh.fab.send(2, 3, 0, tag("c1"));
    mesh.fab.send(0, 3, 0, tag("a0"));
    mesh.fab.send(1, 3, 0, tag("b0"));
    mesh.fab.send(0, 3, 0, tag("a1"));

    mesh.epoch(3);
    mesh.epoch(7);
    EXPECT_EQ(order, (std::vector<std::string>{"a0", "b0", "c0", "a1",
                                               "c1"}));
}

TEST(ShardFabric, LaterSendCycleAlwaysDeliversLater)
{
    Mesh mesh(2, 16);
    std::vector<int> order;
    mesh.fab.send(0, 1, 9, [&](Cycle) { order.push_back(2); });
    mesh.fab.send(1, 1, 3, [&](Cycle) { order.push_back(1); });
    mesh.epoch(15);
    mesh.epoch(31);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// ---- randomized no-loss property with ddmin shrinking ---------------

struct Msg
{
    std::uint32_t src;
    std::uint32_t dst;
    Cycle sendAt;  ///< relative to the start of the epoch that sends it
    std::uint32_t epoch;
};

/**
 * Replay `msgs` through a 4-shard mesh, one conservative epoch at a
 * time, and report how many were delivered. Correct fabrics deliver
 * every message exactly once, at sendAt + hop.
 */
std::size_t
deliveredCount(const std::vector<Msg> &msgs, Cycle hop)
{
    Mesh mesh(4, hop);
    std::size_t delivered = 0;
    std::uint32_t lastEpoch = 0;
    for (const Msg &m : msgs) {
        lastEpoch = std::max(lastEpoch, m.epoch);
    }
    for (std::uint32_t e = 0; e <= lastEpoch + 2; ++e) {
        const Cycle base = static_cast<Cycle>(e) * hop;
        for (const Msg &m : msgs) {
            if (m.epoch == e) {
                Cycle at = base + (m.sendAt % hop);
                mesh.fab.send(m.src, m.dst, at,
                              [&delivered, at, hop](Cycle when) {
                                  ++delivered;
                                  EXPECT_EQ(when, at + hop);
                              });
            }
        }
        mesh.epoch(base + hop - 1);
    }
    EXPECT_EQ(mesh.fab.inFlight(), 0u);
    return delivered;
}

/** ddmin: smallest subsequence of `msgs` still losing a message. */
std::vector<Msg>
shrinkLoss(std::vector<Msg> msgs, Cycle hop)
{
    std::size_t window = msgs.size() / 2;
    while (window >= 1) {
        bool shrunk = false;
        for (std::size_t at = 0; at + window <= msgs.size();) {
            std::vector<Msg> cand;
            cand.insert(cand.end(), msgs.begin(),
                        msgs.begin() + static_cast<std::ptrdiff_t>(at));
            cand.insert(cand.end(),
                        msgs.begin() +
                            static_cast<std::ptrdiff_t>(at + window),
                        msgs.end());
            if (deliveredCount(cand, hop) != cand.size()) {
                msgs = std::move(cand);  // still failing: keep it small
                shrunk = true;
            } else {
                at += window;
            }
        }
        if (!shrunk && window == 1) {
            break;
        }
        window = std::max<std::size_t>(1, window / 2);
    }
    return msgs;
}

TEST(ShardFabric, NoMessageLossUnderRandomTraffic)
{
    const Cycle hop = 16;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(0x5AB1E + seed);
        std::vector<Msg> msgs;
        for (int i = 0; i < 300; ++i) {
            Msg m;
            m.src = static_cast<std::uint32_t>(rng.below(4));
            m.dst = static_cast<std::uint32_t>(rng.below(4));
            m.sendAt = rng.below(hop);
            m.epoch = static_cast<std::uint32_t>(rng.below(12));
            msgs.push_back(m);
        }
        std::size_t got = deliveredCount(msgs, hop);
        if (got != msgs.size()) {
            std::vector<Msg> minimal = shrinkLoss(msgs, hop);
            std::string repro;
            for (const Msg &m : minimal) {
                repro += "  {" + std::to_string(m.src) + " -> " +
                         std::to_string(m.dst) + ", epoch " +
                         std::to_string(m.epoch) + ", +"+
                         std::to_string(m.sendAt) + "}\n";
            }
            FAIL() << "lost " << (msgs.size() - got) << "/"
                   << msgs.size() << " messages (seed " << seed
                   << "); minimal reproducer (" << minimal.size()
                   << " msgs):\n"
                   << repro;
        }
    }
}

// ---- flow-observer (flight recorder) accounting ---------------------

/** Records every flow id seen on both sides of the fabric seam. */
struct CollectObserver : FlowObserver
{
    struct Flow
    {
        std::uint32_t src, dst;
        Cycle sendAt, deliverAt;
        std::string kind;
    };
    std::map<std::uint64_t, Flow> sent;
    std::map<std::uint64_t, Flow> delivered;
    std::uint64_t duplicateSends = 0;
    std::uint64_t duplicateDeliveries = 0;

    void
    onSend(std::uint32_t src, std::uint32_t dst, Cycle send_time,
           Cycle deliver_time, std::uint64_t flow_id,
           const char *kind) override
    {
        if (!sent.emplace(flow_id,
                          Flow{src, dst, send_time, deliver_time, kind})
                 .second) {
            ++duplicateSends;
        }
    }

    void
    onDeliver(std::uint32_t src, std::uint32_t dst, Cycle deliver_time,
              std::uint64_t flow_id, const char *kind) override
    {
        if (!delivered
                 .emplace(flow_id,
                          Flow{src, dst, deliver_time, deliver_time,
                               kind})
                 .second) {
            ++duplicateDeliveries;
        }
    }
};

TEST(ShardFabric, FlowObserverSeesEveryMessageExactlyOnce)
{
    const Cycle hop = 16;
    CollectObserver obs;
    Rng rng(0xF10);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        std::vector<Msg> msgs;
        for (int i = 0; i < 200; ++i) {
            Msg m;
            m.src = static_cast<std::uint32_t>(rng.below(4));
            m.dst = static_cast<std::uint32_t>(rng.below(4));
            m.sendAt = rng.below(hop);
            m.epoch = static_cast<std::uint32_t>(rng.below(10));
            msgs.push_back(m);
        }

        Mesh mesh(4, hop);
        mesh.fab.attachFlowObserver(&obs);
        obs = CollectObserver{};
        std::size_t deliveredCbs = 0;
        std::uint32_t lastEpoch = 0;
        for (const Msg &m : msgs) {
            lastEpoch = std::max(lastEpoch, m.epoch);
        }
        for (std::uint32_t e = 0; e <= lastEpoch + 2; ++e) {
            const Cycle base = static_cast<Cycle>(e) * hop;
            for (const Msg &m : msgs) {
                if (m.epoch == e) {
                    mesh.fab.send(m.src, m.dst, base + (m.sendAt % hop),
                                  [&deliveredCbs](Cycle) {
                                      ++deliveredCbs;
                                  },
                                  "test");
                }
            }
            mesh.epoch(base + hop - 1);
        }

        // Every message begun exactly one flow and bound exactly one.
        EXPECT_EQ(obs.duplicateSends, 0u);
        EXPECT_EQ(obs.duplicateDeliveries, 0u);
        EXPECT_EQ(obs.sent.size(), msgs.size());
        EXPECT_EQ(obs.delivered.size(), deliveredCbs);
        ASSERT_EQ(deliveredCbs, msgs.size());

        for (const auto &[id, send] : obs.sent) {
            auto it = obs.delivered.find(id);
            ASSERT_NE(it, obs.delivered.end())
                << "flow " << id << " begun but never bound";
            // deliverAll recovers src from the id alone; it must agree
            // with what the sender reported, as must everything else.
            EXPECT_EQ(it->second.src, send.src);
            EXPECT_EQ(it->second.dst, send.dst);
            EXPECT_EQ(it->second.deliverAt, send.deliverAt);
            EXPECT_EQ(it->second.deliverAt, send.sendAt + hop);
            EXPECT_EQ(it->second.kind, "test");
        }
    }
}

TEST(ShardFabric, FlowIdsEncodeSourceAndDestination)
{
    Mesh mesh(4, 8);
    CollectObserver obs;
    mesh.fab.attachFlowObserver(&obs);
    for (std::uint32_t src = 0; src < 4; ++src) {
        for (std::uint32_t dst = 0; dst < 4; ++dst) {
            mesh.fab.send(src, dst, 0, [](Cycle) {});
        }
    }
    ASSERT_EQ(obs.sent.size(), 16u);
    for (const auto &[id, f] : obs.sent) {
        EXPECT_EQ((id / 4) % 4, f.src) << "id " << id;
        EXPECT_EQ(id % 4, f.dst) << "id " << id;
    }
    mesh.epoch(7);
    mesh.epoch(15);
    EXPECT_EQ(obs.delivered.size(), 16u);
}

TEST(ShardFabric, SingleShardHopStillDelaysSelfMessages)
{
    // A 1-shard fabric is degenerate but legal: self-sends still pay
    // the hop, so epoch maths stay uniform.
    Mesh mesh(1, 32);
    Cycle delivered = 0;
    mesh.fab.send(0, 0, 7, [&](Cycle at) { delivered = at; });
    mesh.epoch(31);
    mesh.epoch(63);
    EXPECT_EQ(delivered, 39u);
}

TEST(ShardWorkers, EachWorkerRunsOncePerRunAndItsWritesAreVisible)
{
    // Back-to-back runs keep the workers on the spin-wait side of the
    // barrier. The stamps are plain ints: run() returning must order
    // every worker's writes before the caller's reads (ThreadSanitizer
    // checks that in the tsan build).
    ShardWorkers pool(4);
    std::vector<int> stamp(pool.count(), -1);
    std::vector<int> calls(pool.count(), 0);
    int round = 0;
    const std::function<void(std::uint32_t)> fn = [&](std::uint32_t w) {
        stamp[w] = round;
        ++calls[w];
    };
    for (round = 0; round < 20'000; ++round) {
        pool.run(fn);
        for (std::uint32_t w = 0; w < pool.count(); ++w) {
            ASSERT_EQ(stamp[w], round) << "worker " << w;
        }
    }
    for (std::uint32_t w = 0; w < pool.count(); ++w) {
        EXPECT_EQ(calls[w], 20'000) << "worker " << w;
    }
}

TEST(ShardWorkers, SleepingWorkersWakeForTheNextRun)
{
    // A gap far longer than the spin-wait puts every worker to sleep
    // on the condition variable; a lost wakeup would hang run().
    ShardWorkers pool(3);
    std::vector<int> calls(pool.count(), 0);
    const std::function<void(std::uint32_t)> fn = [&](std::uint32_t w) {
        ++calls[w];
    };
    for (int round = 0; round < 20; ++round) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        pool.run(fn);
    }
    for (std::uint32_t w = 0; w < pool.count(); ++w) {
        EXPECT_EQ(calls[w], 20) << "worker " << w;
    }
}

} // namespace
} // namespace dbsim
