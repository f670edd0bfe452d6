/**
 * @file
 * In-memory span recorder for the traced run. A span is one interval of
 * host time spent in one layer of the simulator: (layer, start, end,
 * parent). Spans are appended to a vector while the run executes and
 * reduced to per-layer self time only after it ends, so the run itself
 * does no I/O and no aggregation beyond two clock reads per span.
 *
 * Self time of a layer = the summed duration of its spans minus the
 * part of those intervals their child spans cover. Children of a span
 * nest strictly inside it (the recorder is a stack), so a parent's
 * covered part is the plain sum of its children's durations.
 */

#ifndef SIMBENCH_SPANS_HH
#define SIMBENCH_SPANS_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

namespace simbench {

/** The simulator layers host time is charged to (src/ module names). */
enum class Layer : std::uint8_t {
    Workload = 0,  ///< TraceSource: synthetic generator, ChampSim decode
    Cpu = 1,       ///< Core + CoreMemory (private L1/L2)
    Llc = 2,       ///< Llc, its policies, tag store, DBI, predictor
    Dram = 3,      ///< DramController
    Common = 4,    ///< the EventQueue kernel's own dispatch work
};

inline constexpr std::size_t kNumLayers = 5;

const char *layerName(Layer layer);

/** One recorded interval. 16 bytes, so a run's spans stay small. */
struct Span
{
    std::uint64_t startNs;
    std::uint32_t durNs;
    std::uint32_t parentAndLayer;  ///< parent index << 4 | layer

    static constexpr std::uint32_t kNoParent = 0x0fffffff;

    Layer layer() const { return static_cast<Layer>(parentAndLayer & 0xf); }
    std::uint32_t parent() const { return parentAndLayer >> 4; }
};

using LayerNs = std::array<std::int64_t, kNumLayers>;

/**
 * Append-only span storage in fixed 1 MiB chunks: growing never copies
 * what is already recorded, so a run's memory peak is its spans' size.
 */
class SpanLog
{
  public:
    std::size_t size() const { return n; }

    Span &operator[](std::size_t i) { return chunks[i >> kBits][i & kMask]; }
    const Span &
    operator[](std::size_t i) const
    {
        return chunks[i >> kBits][i & kMask];
    }

    void
    push_back(const Span &s)
    {
        if ((n & kMask) == 0) {
            chunks.push_back(std::make_unique<Span[]>(kMask + 1));
        }
        (*this)[n++] = s;
    }

  private:
    static constexpr std::size_t kBits = 16;
    static constexpr std::size_t kMask = (std::size_t(1) << kBits) - 1;
    std::vector<std::unique_ptr<Span[]>> chunks;
    std::size_t n = 0;
};

/**
 * Self time per layer: each span's duration is credited to its own
 * layer and debited from its parent's layer. The layers' self times sum
 * to the summed duration of the root spans.
 */
template <typename Spans>
LayerNs
selfTimes(const Spans &spans)
{
    LayerNs self{};
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        self[static_cast<std::size_t>(s.layer())] += s.durNs;
        if (s.parent() != Span::kNoParent) {
            self[static_cast<std::size_t>(spans[s.parent()].layer())] -=
                s.durNs;
        }
    }
    return self;
}

/** Monotonic host time in nanoseconds. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * The recorder: open() pushes a span onto the stack of open spans,
 * close() pops it and stamps its duration. Single-threaded by design —
 * the traced run drives one EventQueue on the calling thread.
 */
class Tracer
{
  public:
    std::uint32_t
    open(Layer layer)
    {
        const auto idx = static_cast<std::uint32_t>(spans_.size());
        if (idx == Span::kNoParent) {
            overflow();
        }
        const std::uint32_t parent =
            stack_.empty() ? Span::kNoParent : stack_.back();
        spans_.push_back(Span{nowNs(), 0, pack(parent, layer)});
        stack_.push_back(idx);
        return idx;
    }

    void
    close(std::uint32_t idx)
    {
        Span &s = spans_[idx];
        s.durNs = static_cast<std::uint32_t>(nowNs() - s.startNs);
        stack_.pop_back();
    }

    /**
     * Open a span whose start and duration the caller cannot observe
     * with clock reads of its own (the event kernel times a callback
     * internally and reports only the duration): it starts with its
     * parent and takes its layer and duration at closeAs().
     */
    std::uint32_t
    openUntimed()
    {
        const auto idx = static_cast<std::uint32_t>(spans_.size());
        if (idx == Span::kNoParent) {
            overflow();
        }
        const std::uint32_t parent = stack_.back();
        spans_.push_back(
            Span{spans_[parent].startNs, 0, pack(parent, Layer::Common)});
        stack_.push_back(idx);
        return idx;
    }

    void
    closeAs(std::uint32_t idx, Layer layer, std::uint64_t dur_ns)
    {
        Span &s = spans_[idx];
        s.durNs = static_cast<std::uint32_t>(dur_ns);
        s.parentAndLayer = pack(s.parent(), layer);
        stack_.pop_back();
    }

    /** True if no span is open. */
    bool idle() const { return stack_.empty(); }

    const SpanLog &spans() const { return spans_; }

    static std::uint32_t
    pack(std::uint32_t parent, Layer layer)
    {
        return parent << 4 | static_cast<std::uint32_t>(layer);
    }

  private:
    [[noreturn]] static void overflow();

    SpanLog spans_;
    std::vector<std::uint32_t> stack_;
};

} // namespace simbench

#endif // SIMBENCH_SPANS_HH
