/**
 * @file
 * Discrete-event simulation kernel. A single EventQueue drives the whole
 * simulated machine: processors, directories, network links, and memory
 * controllers all schedule callbacks on it.
 *
 * Determinism: events scheduled for the same tick fire in the order they
 * were scheduled (FIFO tie-break via a monotonically increasing sequence
 * number), so a simulation is exactly reproducible for a given seed.
 *
 * Implementation: a two-level calendar queue. Its near level spans
 * 4,096 ticks because at scale many delays run past a few hundred
 * cycles: on a 1024-node mesh, NIC queueing behind flat multicast
 * fan-out and routes of up to 62 hops put ~40% of scheduled events
 * 256 or more ticks ahead, but only ~0.35% 4,096 or more (at 256
 * nodes over 8 PDES domains ~5.5% and ~0.02%; 0-6% and none per
 * Table-3 app at 64 nodes; ~0.4% and none on 32-node hot-key maps).
 *
 *  - The near level is a timing wheel of kWindowTicks per-tick FIFO
 *    buckets covering the sliding window [windowStart, windowStart +
 *    kWindowTicks). Any delay below kWindowTicks lands here. A 4,096-bit
 *    occupancy bitmap marks the non-empty buckets, and one summary
 *    word marks its non-zero words, so the earliest bucket is found
 *    with at most two count-trailing-zeros steps past the cursor word
 *    - no scan, and no comparisons against other events. 4,096 is the
 *    largest span whose bitmap fits under a single summary word.
 *  - Events beyond the window go to a far-future overflow heap ordered
 *    by (when, seq). Whenever the window slides forward (time advances
 *    to the next event, or past the whole window), newly covered
 *    overflow events migrate into their wheel buckets in (when, seq)
 *    order before anything else can enter those buckets, preserving
 *    the FIFO guarantee.
 *
 * Event nodes are recycled through an intrusive free list and carry an
 * InlineFunction callback (captures <= 48 bytes stored in place), so
 * the steady state performs no heap allocation: memory is only
 * allocated when the number of simultaneously pending events exceeds
 * every previous high-water mark.
 */

#ifndef TCC_SIM_EVENT_QUEUE_HH
#define TCC_SIM_EVENT_QUEUE_HH

#include <bit>
#include <cstdint>
#include <memory>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/arena.hh"
#include "common/log.hh"
#include "common/types.hh"
#include "sim/inline_function.hh"

namespace tcc {

/**
 * The central event queue.
 *
 * Components schedule callbacks at absolute or relative ticks. The
 * queue never runs backwards; scheduling in the past is a simulator
 * bug (panic).
 */
class EventQueue
{
  public:
    /** Span of the near-level wheel: an event fewer than this many
     *  ticks past the window start skips the overflow heap. */
    static constexpr Tick kWindowTicks = Tick{1} << 12;

    /** Event callback: inline up to 48 bytes of capture. */
    using Callback = InlineFunction<48>;

    // The whole point of Callback is that popping an event moves it -
    // a copying pop would silently reintroduce per-event allocations.
    static_assert(!std::is_copy_constructible_v<Callback> &&
                      !std::is_copy_assignable_v<Callback>,
                  "event callbacks must be move-only");

    /** @param arena node slabs come from here (nullptr = heap). */
    explicit EventQueue(Arena *arena = nullptr) : nodeArena(arena) {}
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    ~EventQueue()
    {
        // Arena-backed slabs were placement-new'd into raw memory; run
        // the node destructors (a pending InlineFunction may own
        // out-of-line state). The arena reclaims the bytes itself.
        for (Node *slab : arenaSlabs) {
            for (std::size_t i = 0; i < kSlabNodes; ++i)
                slab[i].~Node();
        }
    }

    /** Current simulated time in cycles. */
    Tick now() const { return curTick; }

    /** Stable pointer to the current tick, valid for the queue's
     *  lifetime. Lets low layers (e.g. the functional store's
     *  write-log clock) read the time without depending on this
     *  header. */
    const Tick *nowRef() const { return &curTick; }

    /** Schedule @p fn to run @p delay cycles from now. */
    template <typename F>
    void
    schedule(Tick delay, F &&fn)
    {
        scheduleAt(curTick + delay, std::forward<F>(fn));
    }

    /**
     * Schedule @p fn (any void() callable, or a Callback) to run at
     * absolute tick @p when. A callable is constructed straight into
     * its event node: the capture is copied once, with no intermediate
     * Callback to relocate.
     */
    template <typename F>
    void
    scheduleAt(Tick when, F &&fn)
    {
        if (when < curTick)
            panic("event scheduled in the past (%llu < %llu)",
                  (unsigned long long)when, (unsigned long long)curTick);
        Node *n = allocNode();
        n->when = when;
        n->seq = nextSeq++;
        n->next = nullptr;
        n->fn = std::forward<F>(fn);
        if (when - windowStart < kWindowTicks)
            pushBucket(n);
        else
            overflow.push(n);
    }

    /** @return true iff no events remain. */
    bool empty() const { return wheelCount == 0 && overflow.empty(); }

    /** Number of pending events (diagnostics). */
    std::size_t pending() const { return wheelCount + overflow.size(); }

    /**
     * Run the earliest event, advancing time to it, unless that event
     * lies past @p limit (the one tick-limit rule of every run loop:
     * events at or before the limit run, later ones never do).
     * @return false if no event at or before @p limit was pending.
     */
    bool
    step(Tick limit = kTickMax)
    {
        Node *n = popEarliest(limit);
        if (!n)
            return false;
        curTick = n->when;
        // Slide the window up to now *before* running the callback:
        // newly covered overflow events enter their buckets first, so
        // a callback scheduling at the same tick still queues behind
        // them (FIFO by sequence number).
        if (windowStart < curTick) {
            windowStart = curTick;
            migrateOverflow();
        }
        n->fn();
        ++executedEvents;
        freeNode(n);
        return true;
    }

    /**
     * Run events until the queue drains or time would pass @p limit.
     * Events at exactly @p limit still execute. On return, now() has
     * advanced to @p limit even when later events remain, so callers
     * that time-slice the simulation observe contiguous time.
     * @return number of events executed.
     */
    std::uint64_t
    runUntil(Tick limit)
    {
        std::uint64_t n = 0;
        while (step(limit))
            ++n;
        if (curTick < limit)
            curTick = limit;
        return n;
    }

    /** Run until the queue is completely drained. */
    std::uint64_t
    run()
    {
        std::uint64_t n = 0;
        while (step())
            ++n;
        return n;
    }

    /** Total events executed so far (diagnostics / tests). */
    std::uint64_t executed() const { return executedEvents; }

    /** Tick of the earliest pending event (kTickMax when empty). */
    Tick
    nextWhen() const
    {
        if (wheelCount != 0)
            return wheel[earliestBucket()].head->when;
        if (!overflow.empty())
            return overflow.top()->when;
        return kTickMax;
    }

    /** Event-node capacity high-water mark (allocation diagnostics). */
    std::size_t
    nodeCapacity() const
    {
        return (slabs.size() + arenaSlabs.size()) * kSlabNodes;
    }

  private:
    static constexpr Tick kWheelMask = kWindowTicks - 1;
    static constexpr std::size_t kWheelWords = kWindowTicks / 64;
    static_assert(kWheelWords <= 64,
                  "the summary word has one bit per bitmap word");
    static constexpr std::size_t kSlabNodes = 256;

    struct Node {
        Tick when = 0;
        std::uint64_t seq = 0;
        Node *next = nullptr; ///< bucket FIFO chain / free list
        Callback fn;
    };

    /** Per-tick FIFO bucket (intrusive singly-linked list). Left
     *  uninitialized: a bucket's fields are meaningful only while its
     *  occupancy bit is set, so a new queue touches none of the 64 KiB
     *  wheel and its pages fault in as buckets are first used. */
    struct Bucket {
        Node *head;
        Node *tail;
    };

    /** Overflow heap order: earliest (when, seq) on top. */
    struct Later {
        bool
        operator()(const Node *a, const Node *b) const
        {
            if (a->when != b->when)
                return a->when > b->when;
            return a->seq > b->seq;
        }
    };

    Node *
    allocNode()
    {
        if (!freeList) {
            Node *slab;
            if (nodeArena) {
                void *raw = nodeArena->allocate(
                    sizeof(Node) * kSlabNodes, alignof(Node));
                slab = static_cast<Node *>(raw);
                for (std::size_t i = 0; i < kSlabNodes; ++i)
                    new (&slab[i]) Node();
                arenaSlabs.push_back(slab);
            } else {
                slabs.push_back(std::make_unique<Node[]>(kSlabNodes));
                slab = slabs.back().get();
            }
            for (std::size_t i = 0; i < kSlabNodes; ++i) {
                slab[i].next = freeList;
                freeList = &slab[i];
            }
        }
        Node *n = freeList;
        freeList = n->next;
        return n;
    }

    void
    freeNode(Node *n)
    {
        n->fn.reset(); // run the callable's destructor eagerly
        n->next = freeList;
        freeList = n;
    }

    void
    pushBucket(Node *n)
    {
        const std::size_t idx = n->when & kWheelMask;
        Bucket &b = wheel[idx];
        std::uint64_t &word = occupied[idx >> 6];
        const std::uint64_t bit = std::uint64_t{1} << (idx & 63);
        if (word & bit)
            b.tail->next = n;
        else
            b.head = n;
        b.tail = n;
        word |= bit;
        summary |= std::uint64_t{1} << (idx >> 6);
        ++wheelCount;
    }

    /**
     * Move every overflow event now covered by the window into its
     * wheel bucket. The heap pops in (when, seq) order and buckets
     * append at the tail, so same-tick FIFO survives migration.
     */
    void
    migrateOverflow()
    {
        while (!overflow.empty() &&
               overflow.top()->when - windowStart < kWindowTicks) {
            Node *n = overflow.top();
            overflow.pop();
            n->next = nullptr;
            pushBucket(n);
        }
    }

    /**
     * Index of the earliest non-empty bucket. Within the window the
     * rotated index (idx - windowStart) mod kWindowTicks is monotonic in
     * `when`, so the search starts at the window cursor and wraps
     * once: the cursor word's bits at or after the cursor, then the
     * first occupied word above the cursor word, then the first
     * occupied word at or below it (whose bits lie one revolution
     * ahead; the cursor word qualifies here only with bits below the
     * cursor, since its high bits were empty). Pre: wheelCount != 0.
     */
    std::size_t
    earliestBucket() const
    {
        const std::size_t cw = (windowStart & kWheelMask) >> 6;
        const std::uint64_t w =
            occupied[cw] & (~std::uint64_t{0} << (windowStart & 63));
        if (w)
            return cw * 64 + static_cast<std::size_t>(std::countr_zero(w));
        const std::uint64_t above = summary & (~std::uint64_t{1} << cw);
        const std::size_t k = static_cast<std::size_t>(
            std::countr_zero(above ? above : summary));
        if (k >= kWheelWords)
            panic("event wheel count/bitmap out of sync");
        return k * 64 +
               static_cast<std::size_t>(std::countr_zero(occupied[k]));
    }

    /** Detach and return the earliest pending event, or nullptr when
     *  none is pending at or before @p limit. */
    Node *
    popEarliest(Tick limit)
    {
        if (wheelCount == 0) {
            if (overflow.empty() || overflow.top()->when > limit)
                return nullptr;
            // Jump the window forward to the next far-future event.
            windowStart = overflow.top()->when;
            migrateOverflow();
        }
        const std::size_t idx = earliestBucket();
        Bucket &b = wheel[idx];
        Node *n = b.head;
        if (n->when > limit)
            return nullptr;
        b.head = n->next;
        if (!b.head) {
            std::uint64_t &word = occupied[idx >> 6];
            word &= ~(std::uint64_t{1} << (idx & 63));
            if (word == 0)
                summary &= ~(std::uint64_t{1} << (idx >> 6));
        }
        --wheelCount;
        return n;
    }

    Bucket wheel[kWindowTicks];
    std::uint64_t occupied[kWheelWords] = {};
    /// Bit k set iff occupied[k] != 0.
    std::uint64_t summary = 0;
    std::size_t wheelCount = 0;
    /**
     * Start of the sliding window the wheel covers. Invariants: every
     * wheel event is in [windowStart, windowStart + kWindowTicks); every
     * overflow event is at or beyond windowStart + kWindowTicks;
     * windowStart <= the earliest pending event and never decreases.
     */
    Tick windowStart = 0;

    std::priority_queue<Node *, std::vector<Node *>, Later> overflow;

    /// Node storage: slabs own the nodes; freeList threads spares.
    /// With an arena, slabs live there instead (see allocNode).
    Arena *nodeArena = nullptr;
    std::vector<std::unique_ptr<Node[]>> slabs;
    std::vector<Node *> arenaSlabs;
    Node *freeList = nullptr;

    Tick curTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t executedEvents = 0;
};

} // namespace tcc

#endif // TCC_SIM_EVENT_QUEUE_HH
