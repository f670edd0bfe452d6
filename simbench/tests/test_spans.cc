/**
 * @file
 * Tests of the benchmark's own machinery: self-time arithmetic over
 * nested spans, the charging of DRAM completion callbacks to the layer
 * whose code they run, and the metric names the benchmark emits.
 */

#include <gtest/gtest.h>

#include <regex>
#include <string>

#include "common/event_queue.hh"
#include "dram/dram_controller.hh"
#include "spans.hh"
#include "traced.hh"

using namespace simbench;

namespace {

Span
span(Layer layer, std::uint64_t start, std::uint32_t dur,
     std::uint32_t parent = Span::kNoParent)
{
    return Span{start, dur, Tracer::pack(parent, layer)};
}

/** Busy-wait so a span has a duration well above clock resolution. */
void
spin(std::uint64_t ns)
{
    const std::uint64_t until = nowNs() + ns;
    while (nowNs() < until) {
    }
}

std::int64_t
at(const LayerNs &self, Layer l)
{
    return self[static_cast<std::size_t>(l)];
}

TEST(SelfTime, NestedSpansSubtractTheirChildren)
{
    // common [0,100) > dram [10,90) > llc [20,70) > cpu [30,50),
    // plus a second root: workload [200,230).
    std::vector<Span> spans = {
        span(Layer::Common, 0, 100),
        span(Layer::Dram, 10, 80, 0),
        span(Layer::Llc, 20, 50, 1),
        span(Layer::Cpu, 30, 20, 2),
        span(Layer::Workload, 200, 30),
    };
    const LayerNs self = selfTimes(spans);
    EXPECT_EQ(at(self, Layer::Common), 20);
    EXPECT_EQ(at(self, Layer::Dram), 30);
    EXPECT_EQ(at(self, Layer::Llc), 30);
    EXPECT_EQ(at(self, Layer::Cpu), 20);
    EXPECT_EQ(at(self, Layer::Workload), 30);
    std::int64_t sum = 0;
    for (std::int64_t ns : self) {
        sum += ns;
    }
    EXPECT_EQ(sum, 130);  // the two roots' durations
}

TEST(SelfTime, SiblingsAndSameLayerNesting)
{
    // llc [0,100) with two llc children (re-entry) and one dram child.
    std::vector<Span> spans = {
        span(Layer::Llc, 0, 100),
        span(Layer::Llc, 5, 10, 0),
        span(Layer::Dram, 20, 30, 0),
        span(Layer::Llc, 60, 15, 0),
    };
    const LayerNs self = selfTimes(spans);
    EXPECT_EQ(at(self, Layer::Llc), 70);
    EXPECT_EQ(at(self, Layer::Dram), 30);
}

TEST(Tracer, UntimedSpanTakesItsLayerAndDurationAtClose)
{
    Tracer t;
    const std::uint32_t root = t.open(Layer::Common);
    const std::uint32_t cb = t.openUntimed();
    const std::uint32_t child = t.open(Layer::Cpu);
    spin(1'000'000);
    t.close(child);
    t.closeAs(cb, Layer::Dram, 3'000'000);
    t.close(root);
    const auto &s = t.spans();
    EXPECT_EQ(s[cb].parent(), root);
    EXPECT_EQ(s[cb].layer(), Layer::Dram);
    EXPECT_EQ(s[cb].startNs, s[root].startNs);
    EXPECT_EQ(s[child].parent(), cb);
    EXPECT_TRUE(t.idle());

    const LayerNs self = selfTimes(s);
    EXPECT_EQ(at(self, Layer::Dram), 3'000'000 - at(self, Layer::Cpu));
    EXPECT_GE(at(self, Layer::Cpu), 1'000'000);
}

/**
 * A DRAM read completes into a callback that stands in for the LLC
 * fill. Stepped through the traced queue, the callback's time must be
 * charged to llc — the layer whose code it runs — and not to dram, the
 * component that scheduled the completion event.
 */
TEST(TracedQueue, DramCompletionRunningAnLlcFillIsChargedToLlc)
{
    Tracer t;
    SeamCounts n;
    dbsim::EventQueue eq;
    TracedQueue stepper(eq, t);
    dbsim::DramController dram(dbsim::DramConfig{}, eq);
    TracedBacking backing(dram, t, n);

    constexpr std::uint64_t kFillNs = 5'000'000;
    bool filled = false;
    backing.read(0x4000, 0, [&](dbsim::Cycle) {
        spin(kFillNs);
        filled = true;
    });
    while (stepper.step()) {
    }
    ASSERT_TRUE(filled);
    EXPECT_EQ(n.dramRead, 1u);
    EXPECT_EQ(n.callbacks, 1u);
    EXPECT_EQ(n.readQMax, 1u);

    // The fill ran inside an llc span nested in the completion event's
    // dram callback span, so its time is debited from dram.
    const SpanLog &spans = t.spans();
    std::size_t fills = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].layer() != Layer::Llc) {
            continue;
        }
        ++fills;
        EXPECT_GE(spans[i].durNs, kFillNs);
        ASSERT_NE(spans[i].parent(), Span::kNoParent);
        EXPECT_EQ(spans[spans[i].parent()].layer(), Layer::Dram);
    }
    EXPECT_EQ(fills, 1u);

    const LayerNs self = selfTimes(spans);
    EXPECT_GE(at(self, Layer::Llc), static_cast<std::int64_t>(kFillNs));
    EXPECT_GE(at(self, Layer::Dram), 0);
    EXPECT_GE(at(self, Layer::Common), 0);
}

TEST(Names, EveryLayerNameIsAMetricName)
{
    const std::regex ok("[A-Za-z0-9_.-]+");
    for (std::size_t l = 0; l < kNumLayers; ++l) {
        EXPECT_TRUE(std::regex_match(layerName(static_cast<Layer>(l)), ok));
    }
}

} // namespace
