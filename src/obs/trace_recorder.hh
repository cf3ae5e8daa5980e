/**
 * @file
 * Per-System structured protocol event recorder.
 *
 * An arena-backed, append-only binary ring of fixed-size TraceEvent
 * records: simulated tick, node, TID, event kind, and two payload
 * words. Emit sites are threaded through the processor's transaction
 * lifecycle and commit engine, the directory's NSTID machinery, and
 * the network's send/deliver path; every site is gated by the
 * existing Trace category flags (common/log.hh), so with tracing off
 * the total cost per site is one relaxed atomic load and one
 * predictably-not-taken branch - golden run fingerprints are
 * bit-identical whether the recorder exists or not, because
 * recording is purely observational (it never schedules events or
 * touches simulated state).
 *
 * On top of the raw ring sit three consumers:
 *   - obs/chrome_trace.hh: Perfetto/Chrome trace_event JSON export;
 *   - obs/tx_ledger.hh: per-transaction lifecycle ledger;
 *   - core/stats_dump.cc: tx_ledger sections in the stats dump.
 *
 * Thread confinement: a recorder belongs to one System and inherits
 * its confinement invariant (DESIGN.md section 7) - concurrent sweep
 * workers each append to their own ring, sharing only the global
 * Trace flags (atomics).
 */

#ifndef TCC_OBS_TRACE_RECORDER_HH
#define TCC_OBS_TRACE_RECORDER_HH

#include <cstddef>
#include <cstdint>

#include "common/arena.hh"
#include "common/log.hh"
#include "common/types.hh"
#include "sim/event_queue.hh"

namespace tcc {

/**
 * What happened. Payload word meanings are per-kind (documented
 * inline); unused words are zero.
 */
enum class TraceEventKind : std::uint16_t {
    // --- processor: transaction lifecycle (TraceCat::Proc) ----------
    TxBegin = 0,   ///< attempt starts; a0 = consecutive prior
                   ///< violations, a1 = ops in the transaction
    TxViolation,   ///< rollback; a0 = consecutive violations (incl.
                   ///< this one), tid = held TID (may be invalid)
    ViolationCause,///< conflicting invalidation; a0 = line address,
                   ///< tid = the *writer's* TID
    SoloDrain,     ///< solo-mode write-set drain; a0 = batches sent

    // --- processor: commit engine (TraceCat::Commit) ----------------
    TidAcquire,    ///< TID granted; tid = the acquired TID
    ProbeSend,     ///< a0 = target directory, a1 = wantWrite
    ProbeReplyRecv,///< a0 = replying directory, a1 = observed NSTID
    SkipSend,      ///< a0 = target directory
    MarkSend,      ///< a0 = target directory, a1 = lines marked
    CommitStart,   ///< commit phase entered; a0 = writing dirs,
                   ///< a1 = sharing-only dirs
    TxCommit,      ///< validated + published; a0 = words read,
                   ///< a1 = words written

    // --- directory (TraceCat::Dir) -----------------------------------
    DirSkip,        ///< skip received; tid = skipped TID, a0 = sender
    DirProbeDefer,  ///< probe deferred; tid = prober's TID,
                    ///< a0 = prober, a1 = wantWrite
    DirNstidAdvance,///< a0 = new NSTID, a1 = TIDs consumed from the
                    ///< skip window
    DirInvalidate,  ///< a0 = line address, a1 = invalidations sent,
                    ///< tid = committing TID

    // --- network (TraceCat::Net) -------------------------------------
    NetSend,    ///< node = src; a0 = address; a1 = packed route info
    NetDeliver, ///< node = dst; a0 = address; a1 = packed route info

    CommitFanout, ///< a0 = directories touched (write + share-only),
                  ///< a1 = NIC-serialized multicast events this attempt

    NumKinds,
};

/** Human-readable kind name (exporters, tests). */
const char *traceEventKindName(TraceEventKind k);

/** Pack (dst, opcode, traffic class, bytes) into a Net* payload word. */
inline std::uint64_t
packNetInfo(NodeId dst, std::uint8_t msg_type, std::uint8_t traffic_class,
            std::uint32_t bytes)
{
    return static_cast<std::uint64_t>(dst) |
           (static_cast<std::uint64_t>(msg_type) << 32) |
           (static_cast<std::uint64_t>(traffic_class) << 40) |
           (static_cast<std::uint64_t>(bytes & 0xffff) << 48);
}

inline NodeId
netInfoDst(std::uint64_t a1)
{
    return static_cast<NodeId>(a1 & 0xffffffffu);
}

inline std::uint8_t
netInfoType(std::uint64_t a1)
{
    return static_cast<std::uint8_t>(a1 >> 32);
}

inline std::uint8_t
netInfoClass(std::uint64_t a1)
{
    return static_cast<std::uint8_t>(a1 >> 40);
}

inline std::uint32_t
netInfoBytes(std::uint64_t a1)
{
    return static_cast<std::uint32_t>(a1 >> 48);
}

/** One fixed-size binary record in the ring. */
struct TraceEvent {
    Tick tick = 0;          ///< simulated cycle of the event
    std::uint64_t arg0 = 0; ///< first payload word (per-kind)
    std::uint64_t arg1 = 0; ///< second payload word (per-kind)
    Tid tid = kInvalidTid;  ///< transaction the event belongs to
    NodeId node = kInvalidNode; ///< emitting node
    TraceEventKind kind = TraceEventKind::NumKinds;
    std::uint16_t pad = 0;
};
static_assert(sizeof(TraceEvent) == 40,
              "TraceEvent must stay a fixed-size binary record");

/**
 * The per-System ring. Capacity is fixed at construction; when the
 * ring is full the oldest record is overwritten (captured() keeps
 * counting, so dropped() reports how much history was lost). Storage
 * is allocated from the System's arena lazily on the first emit, so
 * runs that never trace pay nothing.
 */
class TraceRecorder
{
  public:
    static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

    /**
     * @param eq       timestamps come from this queue's now()
     * @param arena    ring storage (nullptr = heap)
     * @param capacity ring size in events (clamped to >= 1)
     */
    TraceRecorder(const EventQueue &eq, Arena *arena,
                  std::size_t capacity = kDefaultCapacity);

    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    ~TraceRecorder();

    /**
     * Unconditionally append one record (the gate lives in
     * traceEmit() below). Out-of-line: the hot path only ever inlines
     * the category check.
     */
    void push(TraceEventKind kind, NodeId node, Tid tid,
              std::uint64_t arg0, std::uint64_t arg1);

    /** Append a pre-built record verbatim, keeping its original tick
     *  (PDES merges per-domain rings into the System ring at finalize
     *  in canonical (tick, domain) order; see sim/domain.hh). */
    void pushRaw(const TraceEvent &src);

    /** Count @p n events lost before they reached this ring (a PDES
     *  domain ring's drops, at the merge). */
    void noteDropped(std::uint64_t n) { lost += n; }

    /** Total events emitted, including any lost to ring wrap. */
    std::uint64_t captured() const { return total + lost; }

    /** Events currently held (min(captured, capacity)). */
    std::size_t
    size() const
    {
        return total < cap ? static_cast<std::size_t>(total) : cap;
    }

    /** Ring capacity in events. */
    std::size_t capacity() const { return cap; }

    /** Events lost to ring wrap, here or in a merged ring. */
    std::uint64_t
    dropped() const
    {
        return (total > cap ? total - cap : 0) + lost;
    }

    /** The @p i-th stored event, oldest first (i in [0, size())). */
    const TraceEvent &
    at(std::size_t i) const
    {
        const std::size_t base =
            total > cap ? static_cast<std::size_t>(total % cap) : 0;
        std::size_t idx = base + i;
        if (idx >= cap)
            idx -= cap;
        return buf[idx];
    }

    /** Visit every stored event, oldest first. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        const std::size_t n = size();
        for (std::size_t i = 0; i < n; ++i)
            fn(at(i));
    }

    /** Forget everything recorded so far (storage is retained). */
    void
    clear()
    {
        total = 0;
        lost = 0;
    }

  private:
    const EventQueue &eventq;
    Arena *arena;
    TraceEvent *buf = nullptr; ///< lazily allocated ring storage
    std::size_t cap;
    std::uint64_t total = 0;   ///< events ever pushed
    std::uint64_t lost = 0;    ///< see noteDropped()
    bool heapStorage = false;  ///< buf came from ::operator new
};

/**
 * The one emit gate every instrumentation site goes through. With the
 * category off this is a single relaxed load and a predictable branch
 * - the null recorder check is only reached when tracing is on.
 */
inline void
traceEmit(TraceRecorder *rec, TraceCat cat, TraceEventKind kind,
          NodeId node, Tid tid, std::uint64_t arg0 = 0,
          std::uint64_t arg1 = 0)
{
    if (!Trace::on(cat)) [[likely]]
        return;
    if (rec != nullptr)
        rec->push(kind, node, tid, arg0, arg1);
}

} // namespace tcc

#endif // TCC_OBS_TRACE_RECORDER_HH
