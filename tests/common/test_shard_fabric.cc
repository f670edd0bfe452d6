/**
 * @file
 * ShardFabric unit tests: a message is an ordinary event on the one
 * queue at send time + hop, same-cycle messages keep send order, and a
 * randomized no-message-loss property whose failures are ddmin-shrunk
 * to a minimal reproducing message set.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "common/rng.hh"
#include "common/shard.hh"

namespace dbsim {
namespace {

/** The machine's one queue plus a fabric over `n` shards. */
struct Mesh
{
    Mesh(std::uint32_t n, Cycle hop) : fab(n, hop, q) {}

    /** Run `fn` as an event at cycle `at` (a shard acting then). */
    template <typename F>
    void
    at(Cycle when, F fn)
    {
        q.schedule(when, std::move(fn));
    }

    EventQueue q;
    ShardFabric fab;
};

TEST(ShardFabric, DeliversAtSendTimePlusHop)
{
    Mesh mesh(2, 10);
    Cycle delivered = 0;
    mesh.fab.send(0, 1, 5, [&](Cycle at) { delivered = at; });
    EXPECT_EQ(mesh.fab.statMessages.value(), 0u);  // counted on delivery
    EXPECT_EQ(mesh.q.pending(), 1u);

    mesh.q.runAll();
    EXPECT_EQ(delivered, 15u);
    EXPECT_EQ(mesh.q.now(), 15u);
    EXPECT_EQ(mesh.fab.statMessages.value(), 1u);
}

TEST(ShardFabric, SameCycleMessagesDeliverInSendOrder)
{
    // Three sources hit shard 3 at the same delivery cycle: the queue's
    // FIFO order of one cycle is the order the sends happened in.
    Mesh mesh(4, 4);
    std::vector<int> order;
    const std::uint32_t srcs[] = {2, 2, 0, 1, 0};
    for (int i = 0; i < 5; ++i) {
        mesh.fab.send(srcs[i], 3, 0, [&order, i](Cycle) {
            order.push_back(i);
        });
    }
    mesh.q.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ShardFabric, LaterSendCycleAlwaysDeliversLater)
{
    Mesh mesh(2, 16);
    std::vector<int> order;
    mesh.fab.send(0, 1, 9, [&](Cycle) { order.push_back(2); });
    mesh.fab.send(1, 1, 3, [&](Cycle) { order.push_back(1); });
    mesh.q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// ---- randomized no-loss property with ddmin shrinking ---------------

struct Msg
{
    std::uint32_t src;
    std::uint32_t dst;
    Cycle sendAt;  ///< offset within the hop-long window that sends it
    std::uint32_t window;
};

Cycle
sendCycle(const Msg &m, Cycle hop)
{
    return static_cast<Cycle>(m.window) * hop + m.sendAt % hop;
}

/**
 * Replay `msgs` through a 4-shard mesh, each send made by an event at
 * its send cycle, and report how many were delivered. A correct fabric
 * delivers every message exactly once, at sendAt + hop.
 */
std::size_t
deliveredCount(const std::vector<Msg> &msgs, Cycle hop)
{
    Mesh mesh(4, hop);
    std::size_t delivered = 0;
    for (const Msg &m : msgs) {
        mesh.at(sendCycle(m, hop), [&mesh, &delivered, &m, hop] {
            const Cycle at = mesh.q.now();
            mesh.fab.send(m.src, m.dst, at, [&delivered, at, hop](Cycle when) {
                ++delivered;
                EXPECT_EQ(when, at + hop);
            });
        });
    }
    mesh.q.runAll();
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
            m.window = static_cast<std::uint32_t>(rng.below(12));
            msgs.push_back(m);
        }
        std::size_t got = deliveredCount(msgs, hop);
        if (got != msgs.size()) {
            std::vector<Msg> minimal = shrinkLoss(msgs, hop);
            std::string repro;
            for (const Msg &m : minimal) {
                repro += "  {" + std::to_string(m.src) + " -> " +
                         std::to_string(m.dst) + ", window " +
                         std::to_string(m.window) + ", +" +
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
    explicit CollectObserver(const EventQueue &queue) : q(queue) {}

    const EventQueue &q;
    std::map<std::uint64_t, Flow> sent;
    std::map<std::uint64_t, Flow> delivered;
    std::uint64_t duplicateSends = 0;
    std::uint64_t duplicateDeliveries = 0;
    std::uint64_t deliveriesOffCycle = 0;
    std::uint32_t armed = 0;  ///< onDeliver calls not yet handled

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
        // Fired in the delivery event itself, not at some later point.
        if (deliver_time != q.now()) {
            ++deliveriesOffCycle;
        }
        ++armed;
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
    // Every send gets exactly one onDeliver, at send + hop, in the
    // event that runs the message's handler (just before it).
    const Cycle hop = 16;
    Rng rng(0xF10);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        std::vector<Msg> msgs;
        for (int i = 0; i < 200; ++i) {
            Msg m;
            m.src = static_cast<std::uint32_t>(rng.below(4));
            m.dst = static_cast<std::uint32_t>(rng.below(4));
            m.sendAt = rng.below(hop);
            m.window = static_cast<std::uint32_t>(rng.below(10));
            msgs.push_back(m);
        }

        Mesh mesh(4, hop);
        CollectObserver obs(mesh.q);
        mesh.fab.attachFlowObserver(&obs);
        std::size_t handlers = 0;
        std::size_t unpaired = 0;  ///< handlers not right after onDeliver
        for (const Msg &m : msgs) {
            mesh.at(sendCycle(m, hop), [&, pm = &m] {
                mesh.fab.send(pm->src, pm->dst, mesh.q.now(),
                              [&obs, &handlers, &unpaired](Cycle) {
                                  ++handlers;
                                  unpaired += obs.armed != 1;
                                  obs.armed = 0;
                              },
                              "test");
            });
        }
        mesh.q.runAll();
        EXPECT_EQ(unpaired, 0u);

        EXPECT_EQ(obs.duplicateSends, 0u);
        EXPECT_EQ(obs.duplicateDeliveries, 0u);
        EXPECT_EQ(obs.deliveriesOffCycle, 0u);
        EXPECT_EQ(obs.sent.size(), msgs.size());
        EXPECT_EQ(obs.delivered.size(), handlers);
        ASSERT_EQ(handlers, msgs.size());
        EXPECT_EQ(mesh.fab.statMessages.value(), msgs.size());

        for (const auto &[id, send] : obs.sent) {
            auto it = obs.delivered.find(id);
            ASSERT_NE(it, obs.delivered.end())
                << "flow " << id << " begun but never bound";
            // Delivery recovers src and dst from the id alone; they
            // must agree with what the sender reported.
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
    CollectObserver obs(mesh.q);
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
    mesh.q.runAll();
    EXPECT_EQ(obs.delivered.size(), 16u);
}

TEST(ShardFabric, SingleShardHopStillDelaysSelfMessages)
{
    // A 1-shard fabric is degenerate but legal: self-sends still pay
    // the hop.
    Mesh mesh(1, 32);
    Cycle delivered = 0;
    mesh.fab.send(0, 0, 7, [&](Cycle at) { delivered = at; });
    mesh.q.runAll();
    EXPECT_EQ(delivered, 39u);
}

} // namespace
} // namespace dbsim
