/**
 * @file
 * Event-driven DDR3 memory controller: open-row policy, row-interleaved
 * address mapping, FR-FCFS read scheduling, and a drain-when-full write
 * buffer. This is the substrate whose row-buffer behaviour the DBI's
 * aggressive writeback optimization exploits: writes that drain to the
 * same open row cost one burst each, while scattered writes pay a full
 * precharge+activate per block.
 */

#ifndef DBSIM_DRAM_DRAM_CONTROLLER_HH
#define DBSIM_DRAM_DRAM_CONTROLLER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/addr_index.hh"
#include "common/addr_map.hh"
#include "common/event_queue.hh"
#include "common/event_queue.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/dram_config.hh"
#include "mem/backing_port.hh"

namespace dbsim {

/** Aggregate energy figures derived from the controller's counters. */
struct DramEnergy
{
    double activatePj = 0.0;
    double readPj = 0.0;
    double writePj = 0.0;
    double backgroundPj = 0.0;

    double totalPj() const
    {
        return activatePj + readPj + writePj + backgroundPj;
    }
};

/**
 * Observer of the controller's write-drain windows (telemetry seam,
 * mirroring LlcAuditObserver). Notifications are synchronous, must not
 * re-enter the controller, and are strictly passive: an attached
 * observer changes no timing and no stats, so observed and unobserved
 * runs are cycle- and stat-identical.
 */
class DramObserver
{
  public:
    virtual ~DramObserver() = default;

    /** The write buffer filled and a drain window opened at `when`. */
    virtual void onDrainStart(Cycle when) = 0;

    /**
     * The drain window [start, end] closed after servicing `writes`
     * write bursts. end - start is exactly the amount credited to
     * statDrainCycles for this window.
     */
    virtual void onDrainEnd(Cycle start, Cycle end,
                            std::uint64_t writes) = 0;
};

/**
 * One FR-FCFS request queue (the read queue or the write buffer).
 *
 * Requests live in a recycled node pool, linked twice: into one list
 * in arrival order, and into a list per DRAM row (indexed by row id)
 * holding that row's requests oldest first. Each request's (bank, row)
 * is decoded once, at push, and each bank remembers the oldest queued
 * request to its open row. pick() is therefore O(banks) and push(),
 * take() and rowOpened() are O(1), whatever the queue depth, while
 * pick() returns exactly what a scan of one arrival-ordered queue
 * would: the oldest row hit, else the oldest request.
 */
template <typename Payload>
class FrFcfsQueue
{
  public:
    using Index = std::uint32_t;
    static constexpr Index kNone = ~Index{0};

    struct Request
    {
        Addr addr;
        Cycle arrive;
        std::uint64_t row;  ///< global row id (DramAddrMap::rowId)
        std::uint32_t bank;
        Payload payload;
    };

    explicit FrFcfsQueue(std::uint32_t num_banks) : hits(num_banks) {}

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }

    /**
     * Append a request; `open_row` is its bank's open row id (-1 when
     * the bank is closed).
     */
    void
    push(Request req, std::int64_t open_row)
    {
        Index i;
        if (freeHead != kNone) {
            i = freeHead;
            freeHead = nodes[i].next;
            nodes[i].req = std::move(req);
        } else {
            i = static_cast<Index>(nodes.size());
            nodes.push_back(Node{std::move(req)});
        }
        Node &n = nodes[i];
        n.seq = nextSeq++;
        n.prev = tail;
        n.next = kNone;
        n.nextInRow = kNone;
        n.lastInRow = i;
        if (tail != kNone) {
            nodes[tail].next = i;
        } else {
            head = i;
        }
        tail = i;

        Index first = rowFirst.find(rowKey(n.req.row));
        if (first != kNone) {
            Node &f = nodes[first];
            nodes[f.lastInRow].nextInRow = i;
            f.lastInRow = i;
        } else {
            rowFirst.insert(rowKey(n.req.row), i);
            if (open_row >= 0 &&
                static_cast<std::uint64_t>(open_row) == n.req.row) {
                setHit(hits[n.req.bank], i);
            }
        }
        ++count;
    }

    /** The request FR-FCFS serves next. @pre !empty() */
    Index
    pick() const
    {
        Index best = kNone;
        std::uint64_t best_seq = kNoSeq;
        for (const Hit &h : hits) {
            if (h.seq < best_seq) {
                best_seq = h.seq;
                best = h.idx;
            }
        }
        return best != kNone ? best : head;
    }

    /**
     * Unlink request i and hand it out; its node is recycled.
     * @pre i came from pick(), so it is the oldest request to its row.
     */
    Request
    take(Index i)
    {
        Node &n = nodes[i];
        Addr key = rowKey(n.req.row);
        if (n.nextInRow != kNone) {
            nodes[n.nextInRow].lastInRow = n.lastInRow;
            rowFirst.assign(key, n.nextInRow);
        } else {
            rowFirst.erase(key);
        }
        Hit &h = hits[n.req.bank];
        if (h.idx == i) {
            setHit(h, n.nextInRow);
        }
        if (n.prev != kNone) {
            nodes[n.prev].next = n.next;
        } else {
            head = n.next;
        }
        if (n.next != kNone) {
            nodes[n.next].prev = n.prev;
        } else {
            tail = n.prev;
        }
        --count;
        n.next = freeHead;
        freeHead = i;
        return std::move(n.req);
    }

    /** Bank `bank` opened row `row`: its oldest request becomes the hit. */
    void
    rowOpened(std::uint32_t bank, std::uint64_t row)
    {
        setHit(hits[bank], rowFirst.find(rowKey(row)));
    }

  private:
    static constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

    struct Node
    {
        Request req;
        std::uint64_t seq = 0;     ///< arrival order within this queue
        Index prev = kNone;        ///< arrival list
        Index next = kNone;        ///< arrival list, or the free list
        Index nextInRow = kNone;   ///< next (younger) request to the row
        Index lastInRow = kNone;   ///< youngest of the row (first only)
    };

    /** A bank's oldest queued request to its open row. */
    struct Hit
    {
        Index idx = kNone;
        std::uint64_t seq = kNoSeq;
    };

    /** AddrIndex key of a row id (it hashes block numbers). */
    static Addr rowKey(std::uint64_t row) { return row << kBlockShift; }

    void
    setHit(Hit &h, Index i)
    {
        h.idx = i;
        h.seq = i != kNone ? nodes[i].seq : kNoSeq;
    }

    std::vector<Node> nodes;
    std::vector<Hit> hits;  ///< per bank
    AddrIndex rowFirst;     ///< row key -> its oldest request
    Index head = kNone;     ///< oldest request
    Index tail = kNone;
    Index freeHead = kNone;
    std::uint64_t nextSeq = 0;
    std::size_t count = 0;
};

/**
 * The memory controller: the terminal BackingPort of every hierarchy
 * composition. Reads complete through a callback carrying the
 * completion cycle; writes are fire-and-forget into the write buffer.
 */
class DramController : public BackingPort
{
  public:
    using ReadCallback = BackingPort::ReadCallback;

    DramController(const DramConfig &config, EventQueue &event_queue);
    ~DramController() override = default;

    /** Enqueue a block read arriving at cycle `when`. */
    void enqueueRead(Addr block_addr, Cycle when, ReadCallback cb);

    /** Enqueue a block writeback arriving at cycle `when`. */
    void enqueueWrite(Addr block_addr, Cycle when);

    // -- BackingPort -----------------------------------------------------

    void
    read(Addr block_addr, Cycle when, ReadCallback cb) override
    {
        enqueueRead(block_addr, when, std::move(cb));
    }

    void
    write(Addr block_addr, Cycle when) override
    {
        enqueueWrite(block_addr, when);
    }

    /** Number of buffered (unserviced) writes. */
    std::size_t pendingWrites() const override { return writeQ.size(); }

    /** Number of waiting (unserviced) reads. */
    std::size_t pendingReads() const { return readQ.size(); }

    /** True while a write drain is in progress. */
    bool draining() const override { return drainMode; }

    /** Attach (or detach, with nullptr) a passive drain observer. */
    void attachObserver(DramObserver *observer) { obs = observer; }

    const DramAddrMap &addrMap() const override { return map; }
    const DramConfig &config() const { return cfg; }

    /** Row hit rate over serviced reads since the last stat snapshot. */
    double readRowHitRate() const;

    /** Row hit rate over serviced writes since the last stat snapshot. */
    double writeRowHitRate() const;

    /** Energy consumed since the last stat snapshot, up to cycle now. */
    DramEnergy energySince(Cycle now) const;

    /** Register all counters on `set` for snapshot/collection. */
    void registerStats(StatSet &set);

    Counter statReads;
    Counter statWrites;
    Counter statReadRowHits;
    Counter statWriteRowHits;
    Counter statActivates;
    Counter statDrains;
    Counter statDrainCycles; ///< cycles spent in write-drain mode
    Counter statForwards;     ///< reads served from the write buffer
    Counter statCoalesced;    ///< writes merged into an existing entry

  private:
    /** A write carries nothing beyond its address and arrival. */
    struct NoPayload
    {
    };

    using ReadQueue = FrFcfsQueue<ReadCallback>;
    using WriteQueue = FrFcfsQueue<NoPayload>;

    struct Bank
    {
        std::int64_t openRow = -1;  ///< -1 = precharged/closed
        Cycle rowReadyAt = 0;       ///< open row usable (post-tRCD)
        Cycle colCmdOkAt = 0;       ///< next column command (tCCD chain)
        Cycle prechargeOkAt = 0;    ///< earliest precharge (tWR/tRAS)
    };

    /** Ensure a service event is pending. */
    void scheduleService(Cycle when);

    /** Dispatch one request (called from the event queue). */
    void serviceNext();

    /** Close the current drain window and credit statDrainCycles. */
    void endDrain(Cycle now);

    /**
     * Issue one request to its bank; returns data-end cycle.
     * @param arrive when the request entered the queue — bank
     *        preparation (precharge/activate) is modeled as starting
     *        while the request waited, so banks overlap bus transfers.
     */
    Cycle issue(std::uint32_t bank_idx, std::uint64_t row, bool is_write,
                Cycle arrive, Cycle now);

    DramConfig cfg;
    EventQueue &eq;
    DramAddrMap map;

    std::vector<Bank> banks;
    Cycle busFreeAt = 0;
    bool lastWasWrite = false;

    /** Recent activate times (ring) enforcing tRRD and tFAW. */
    std::array<Cycle, 4> recentActivates{};
    std::uint32_t activateIdx = 0;
    std::uint64_t numActivates = 0;

    ReadQueue readQ;
    WriteQueue writeQ;

    /**
     * Addresses currently in writeQ (coalescing keeps them distinct).
     * Pure membership mirror so read-forwarding and write-coalescing
     * checks are O(1) instead of scanning the buffer; never iterated,
     * so it cannot perturb determinism.
     */
    AddrIndex writeQAddrs;
    bool drainMode = false;
    Cycle drainStartAt = 0;
    std::uint64_t drainWrites = 0;  ///< writes serviced this window
    bool servicePending = false;
    DramObserver *obs = nullptr;
};

} // namespace dbsim

#endif // DBSIM_DRAM_DRAM_CONTROLLER_HH
