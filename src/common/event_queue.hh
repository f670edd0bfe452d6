/**
 * @file
 * Discrete-event simulation kernel. A single global EventQueue drives the
 * whole system: cores, the shared LLC, and the DRAM controller schedule
 * callbacks at absolute cycle times. Events at the same cycle execute in
 * FIFO (schedule) order, which keeps the simulation deterministic.
 *
 * The kernel is allocation-free on the steady-state path. Callbacks are
 * stored inline in fixed-size event nodes (a context + trampoline pair,
 * never a heap-allocated std::function), nodes and per-cycle buckets are
 * recycled through slab-backed freelists, and same-cycle ties batch into
 * one FIFO bucket so the binary heap holds one entry per distinct
 * pending cycle instead of one per event. See DESIGN.md §11 for the
 * layout and the measured effect.
 */

#ifndef DBSIM_COMMON_EVENT_QUEUE_HH
#define DBSIM_COMMON_EVENT_QUEUE_HH

#include <algorithm>
#include <cinttypes>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "logging.hh"
#include "prof.hh"
#include "types.hh"

namespace dbsim {

/**
 * Global discrete-event queue.
 *
 * Components schedule callables at absolute cycle times. Scheduling an
 * event in the past is a simulator bug (panic); same-cycle ties break
 * by insertion order. Any callable up to kInlineCallbackBytes (with
 * standard alignment) can be scheduled; larger closures are rejected at
 * compile time — pack their state behind a pointer instead.
 */
class EventQueue
{
  public:
    /** Inline storage per event callback (covers a captured
     *  std::function plus a Cycle, the largest closure in the tree). */
    static constexpr std::size_t kInlineCallbackBytes = 48;

    EventQueue() : cache(kCacheSlots) {}

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    ~EventQueue()
    {
        // Destroy the callbacks of any never-dispatched events; the
        // slabs themselves are freed by their owning vector.
        drainBucket(active);
        for (Bucket *b : heap) {
            drainBucket(b);
        }
    }

    /** Current simulation time (time of the last dispatched event). */
    Cycle now() const { return curTime; }

    /** Number of pending events. */
    std::size_t pending() const { return numPending; }

    /** True if no events remain. */
    bool empty() const { return numPending == 0; }

    /**
     * Schedule a callable at absolute time `when`. `comp` names the
     * component the dispatch cost is charged to when a profiler is
     * attached; it has no effect otherwise.
     * @pre when >= now()
     */
    template <typename F>
    void
    schedule(Cycle when, F &&fn, prof::Comp comp = prof::Other)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= kInlineCallbackBytes,
                      "callback exceeds EventQueue inline storage; "
                      "capture a pointer to external state instead");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "over-aligned callback");
        static_assert(alignof(CbOps) > prof::kCompMask,
                      "CbOps alignment must leave the tag bits free");
        panic_if(when < curTime,
                 "event scheduled in the past (%" PRIu64 " < %" PRIu64 ")",
                 when, curTime);

        EventNode *n = allocNode();
        ::new (static_cast<void *>(n->storage)) Fn(std::forward<F>(fn));
        n->ops = &CbOpsFor<Fn>::ops;
#ifdef DBSIM_TELEMETRY
        // Fold the component tag into the free low bits of the vtable
        // pointer — but only when profiling, so unprofiled runs never
        // carry (or need to strip) a tag.
        if (prof_) {
            n->ops = reinterpret_cast<const CbOps *>(
                reinterpret_cast<std::uintptr_t>(n->ops) |
                static_cast<std::uintptr_t>(comp));
        }
#else
        (void)comp;
#endif
        n->next = nullptr;
        ++numPending;

        // Same-cycle events scheduled while that cycle dispatches join
        // the active bucket's FIFO and run in this very dispatch loop.
        if (active && when == curTime) {
            appendTo(active, n);
            return;
        }
        CacheSlot &slot = cache[cacheIndex(when)];
        if (slot.bucket && slot.when == when) {
            appendTo(slot.bucket, n);
            return;
        }
        // No bucket for this cycle reachable: open one. A cycle whose
        // bucket was displaced from the cache gets a second bucket; the
        // (when, seq) heap order still replays them in FIFO order.
        Bucket *b = allocBucket();
        b->when = when;
        b->seq = ++bucketSeq;
        b->head = b->tail = n;
        heap.push_back(b);
        std::push_heap(heap.begin(), heap.end(), BucketLater{});
        slot.when = when;
        slot.bucket = b;
    }

    /** Time of the earliest pending event; kCycleMax if none. */
    Cycle
    nextTime() const
    {
        if (active) {
            return curTime;  // partially drained bucket at now()
        }
        return heap.empty() ? kCycleMax : heap.front()->when;
    }

    /**
     * Dispatch the earliest event, advancing now().
     * @return false if the queue was empty.
     */
    bool
    step()
    {
        if (!active) {
            if (heap.empty()) {
                return false;
            }
            std::pop_heap(heap.begin(), heap.end(), BucketLater{});
            active = heap.back();
            heap.pop_back();
            curTime = active->when;
        }
        EventNode *n = active->head;
        active->head = n->next;
        --numPending;
        ++numDispatched;
#ifdef DBSIM_TELEMETRY
        if (prof_) {
            const auto raw = reinterpret_cast<std::uintptr_t>(n->ops);
            const CbOps *ops =
                reinterpret_cast<const CbOps *>(raw & ~prof::kCompMask);
            const std::uint64_t t0 = prof::nowNs();
            ops->invokeAndDestroy(n->storage);
            prof_->record(raw & prof::kCompMask, prof::nowNs() - t0);
        } else {
            n->ops->invokeAndDestroy(n->storage);
        }
#else
        n->ops->invokeAndDestroy(n->storage);
#endif
        freeNode(n);
        // The callback may have appended to the active bucket; only a
        // drained bucket is retired.
        if (!active->head) {
            freeBucket(active);
            active = nullptr;
        }
        return true;
    }

    /** Run events until the queue drains. */
    void
    runAll()
    {
        while (step()) {
        }
    }

    /** Run events with time <= limit; now() may end up past-limit-free. */
    void
    runUntil(Cycle limit)
    {
        while (numPending != 0 && nextTime() <= limit) {
            step();
        }
        if (curTime < limit) {
            curTime = limit;
        }
    }

    // -- Host-side introspection (never affects the simulation) --------

    /** Events dispatched over the queue's lifetime. */
    std::uint64_t dispatched() const { return numDispatched; }

    /**
     * Slab growth events (node or bucket chunk allocations). Constant
     * once the queue reaches its high-water mark: the steady-state
     * schedule/dispatch path recycles freelist memory and never touches
     * the heap (asserted by tests/common/test_event_queue_stress.cc).
     */
    std::uint64_t slabAllocations() const { return numSlabAllocs; }

    /**
     * Attach (or detach, with nullptr) the per-component dispatch
     * profile. Must be called before any event is scheduled and never
     * mid-run: tag bits are written at schedule time based on whether a
     * profile is attached, so toggling with events pending would strip
     * or misread tags. No-op in DBSIM_TELEMETRY=OFF builds.
     */
    void
    attachProfile(prof::QueueProfile *profile)
    {
#ifdef DBSIM_TELEMETRY
        panic_if(numPending != 0,
                 "attachProfile with %zu events pending", numPending);
        prof_ = profile;
#else
        (void)profile;
#endif
    }

  private:
    struct CbOps
    {
        void (*invokeAndDestroy)(unsigned char *storage);
        void (*destroy)(unsigned char *storage);
    };

    template <typename Fn>
    struct CbOpsFor
    {
        static void
        invokeAndDestroy(unsigned char *storage)
        {
            Fn *f = std::launder(reinterpret_cast<Fn *>(storage));
            (*f)();
            f->~Fn();
        }
        static void
        destroy(unsigned char *storage)
        {
            std::launder(reinterpret_cast<Fn *>(storage))->~Fn();
        }
        static constexpr CbOps ops = {&invokeAndDestroy, &destroy};
    };

    /** One scheduled event: an intrusive FIFO link plus the callback
     *  stored inline (trampoline table + construction in place). */
    struct EventNode
    {
        EventNode *next;
        const CbOps *ops;
        alignas(std::max_align_t) unsigned char storage[kInlineCallbackBytes];
    };

    /** All events of one cycle, in FIFO order. Exactly one bucket per
     *  distinct pending cycle is reachable for appends at any time. */
    struct Bucket
    {
        Cycle when;
        std::uint64_t seq;  ///< creation order; tie-break for re-opened cycles
        EventNode *head;
        EventNode *tail;
        Bucket *nextFree;
    };

    struct BucketLater
    {
        bool
        operator()(const Bucket *a, const Bucket *b) const
        {
            if (a->when != b->when) {
                return a->when > b->when;
            }
            return a->seq > b->seq;
        }
    };

    /** Direct-mapped cycle -> bucket cache; a displaced entry only costs
     *  a second bucket for that cycle, never correctness. */
    struct CacheSlot
    {
        Cycle when = 0;
        Bucket *bucket = nullptr;
    };

    static constexpr std::size_t kCacheSlots = 2048;  // power of two
    static constexpr std::size_t kNodesPerChunk = 1024;
    static constexpr std::size_t kBucketsPerChunk = 256;

    static std::size_t
    cacheIndex(Cycle when)
    {
        return static_cast<std::size_t>(when) & (kCacheSlots - 1);
    }

    static void
    appendTo(Bucket *b, EventNode *n)
    {
        if (b->head) {
            b->tail->next = n;
        } else {
            b->head = n;
        }
        b->tail = n;
    }

    EventNode *
    allocNode()
    {
        if (!freeNodes) {
            auto chunk = std::make_unique<EventNode[]>(kNodesPerChunk);
            for (std::size_t i = 0; i < kNodesPerChunk; ++i) {
                chunk[i].next = freeNodes;
                freeNodes = &chunk[i];
            }
            nodeSlabs.push_back(std::move(chunk));
            ++numSlabAllocs;
        }
        EventNode *n = freeNodes;
        freeNodes = n->next;
        return n;
    }

    void
    freeNode(EventNode *n)
    {
        n->next = freeNodes;
        freeNodes = n;
    }

    Bucket *
    allocBucket()
    {
        if (!freeBuckets) {
            auto chunk = std::make_unique<Bucket[]>(kBucketsPerChunk);
            for (std::size_t i = 0; i < kBucketsPerChunk; ++i) {
                chunk[i].nextFree = freeBuckets;
                freeBuckets = &chunk[i];
            }
            bucketSlabs.push_back(std::move(chunk));
            ++numSlabAllocs;
        }
        Bucket *b = freeBuckets;
        freeBuckets = b->nextFree;
        return b;
    }

    void
    freeBucket(Bucket *b)
    {
        // Un-cache the retired bucket so a later same-cycle schedule
        // (legal while now() has not advanced past it) cannot append to
        // recycled memory.
        CacheSlot &slot = cache[cacheIndex(b->when)];
        if (slot.bucket == b) {
            slot.bucket = nullptr;
        }
        b->nextFree = freeBuckets;
        freeBuckets = b;
    }

    /** The node's vtable with any profiler tag bits stripped. */
    static const CbOps *
    opsOf(const EventNode *n)
    {
#ifdef DBSIM_TELEMETRY
        return reinterpret_cast<const CbOps *>(
            reinterpret_cast<std::uintptr_t>(n->ops) & ~prof::kCompMask);
#else
        return n->ops;
#endif
    }

    /** Destroy the callbacks of a bucket's never-run events (dtor). */
    void
    drainBucket(Bucket *b)
    {
        if (!b) {
            return;
        }
        for (EventNode *n = b->head; n; n = n->next) {
            opsOf(n)->destroy(n->storage);
        }
    }

    Cycle curTime = 0;
    std::size_t numPending = 0;
    std::uint64_t numDispatched = 0;
    std::uint64_t numSlabAllocs = 0;
    std::uint64_t bucketSeq = 0;

    std::vector<Bucket *> heap;   ///< min-heap over (when, seq)
    Bucket *active = nullptr;     ///< bucket currently dispatching
    std::vector<CacheSlot> cache;

#ifdef DBSIM_TELEMETRY
    prof::QueueProfile *prof_ = nullptr;  ///< per-component dispatch times
#endif

    EventNode *freeNodes = nullptr;
    Bucket *freeBuckets = nullptr;
    std::vector<std::unique_ptr<EventNode[]>> nodeSlabs;
    std::vector<std::unique_ptr<Bucket[]>> bucketSlabs;
};

} // namespace dbsim

#endif // DBSIM_COMMON_EVENT_QUEUE_HH
