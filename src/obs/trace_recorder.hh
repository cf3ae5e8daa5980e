/**
 * @file
 * Per-System structured protocol event recorder.
 *
 * An arena-backed, append-only binary ring of fixed-size TraceEvent
 * records: simulated tick, node, TID, event kind, and two payload
 * words. Emit sites are threaded through the processor's transaction
 * lifecycle and commit engine, the directory's NSTID machinery, and
 * the network's send/deliver path. Tracing is armed per System by
 * TraceConfig::capacity (core/system.hh): 0 hands every component a
 * null recorder, so with tracing off the total cost per site is one
 * predictably-not-taken null-pointer branch - golden run fingerprints
 * are bit-identical armed or not, because recording is purely
 * observational (it never schedules events or touches simulated
 * state).
 *
 * The ring is history only: it feeds formatTraceEvent() below (tccsim
 * --trace, protocol_trace, the invariant checker's failure tail) and
 * the Perfetto/Chrome trace_event JSON export (obs/chrome_trace.hh).
 * Per-commit facts do not come from it: the processors write the tx
 * ledger (obs/tx_ledger.hh) themselves, in every run.
 *
 * Thread confinement: a recorder belongs to one System and inherits
 * its confinement invariant (DESIGN.md section 7) - concurrent sweep
 * workers each append to their own ring and share nothing.
 */

#ifndef TCC_OBS_TRACE_RECORDER_HH
#define TCC_OBS_TRACE_RECORDER_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/arena.hh"
#include "common/types.hh"
#include "sim/event_queue.hh"

namespace tcc {

/**
 * What happened. Payload word meanings are per-kind (documented
 * inline); unused words are zero.
 */
enum class TraceEventKind : std::uint16_t {
    // --- processor: transaction lifecycle ---------------------------
    TxBegin = 0,   ///< attempt starts; a0 = consecutive prior
                   ///< violations, a1 = ops in the transaction
    TxViolation,   ///< rollback; a0 = consecutive violations (incl.
                   ///< this one), tid = held TID (may be invalid)
    ViolationCause,///< conflicting invalidation; a0 = line address,
                   ///< tid = the *writer's* TID
    SoloDrain,     ///< solo-mode write-set drain; a0 = batches sent

    // --- processor: commit engine -----------------------------------
    TidAcquire,    ///< TID granted; tid = the acquired TID
    ProbeSend,     ///< a0 = target directory, a1 = wantWrite
    ProbeReplyRecv,///< a0 = replying directory, a1 = observed NSTID
    SkipSend,      ///< a0 = target directory
    MarkSend,      ///< a0 = target directory, a1 = lines marked
    CommitStart,   ///< commit phase entered; a0 = writing dirs,
                   ///< a1 = sharing-only dirs
    TxCommit,      ///< validated + published; a0 = words read,
                   ///< a1 = words written

    // --- directory ---------------------------------------------------
    DirSkip,        ///< skip received; tid = skipped TID, a0 = sender
    DirProbeDefer,  ///< probe deferred; tid = prober's TID,
                    ///< a0 = prober, a1 = wantWrite
    DirNstidAdvance,///< a0 = new NSTID, a1 = TIDs consumed from the
                    ///< skip window
    DirInvalidate,  ///< a0 = line address, a1 = invalidations sent,
                    ///< tid = committing TID

    // --- network -----------------------------------------------------
    NetSend,    ///< node = src; a0 = address; a1 = packed route info
    NetDeliver, ///< node = dst; a0 = address; a1 = packed route info

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

/** One line of text for @p e: "[tick] kind node=N tid=T a0=.. a1=..". */
std::string formatTraceEvent(const TraceEvent &e);

/**
 * The per-System ring. Capacity is fixed at construction, which claims
 * the storage from the owner's arena; when the ring is full the oldest
 * record is overwritten (captured() keeps counting, so dropped()
 * reports how much history was lost). A zero-capacity recorder holds
 * no storage and is never handed to an emit site.
 */
class TraceRecorder
{
  public:
    /** A ring size that holds a short run whole (protocol_trace, tests,
     *  tccsim --trace). */
    static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

    /**
     * @param eq       timestamps come from this queue's now()
     * @param arena    ring storage
     * @param capacity ring size in events; 0 = tracing off
     */
    TraceRecorder(const EventQueue &eq, Arena &arena,
                  std::size_t capacity);

    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    /** True iff the ring has storage (capacity != 0). */
    bool armed() const { return cap != 0; }

    /**
     * Unconditionally append one record (the gate lives in traceEmit()
     * below). Out-of-line: the hot path only ever inlines the
     * null-pointer check.
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

    /** Forget everything recorded so far (ring storage is
     *  retained). */
    void
    clear()
    {
        total = 0;
        lost = 0;
    }

  private:
    const EventQueue &eventq;
    std::size_t cap;
    TraceEvent *buf;         ///< ring storage (nullptr when unarmed)
    std::uint64_t total = 0; ///< events ever pushed
    std::uint64_t lost = 0;  ///< see noteDropped()
};

/**
 * The one emit gate every instrumentation site goes through. With
 * tracing off every component holds a null recorder, so this is a
 * single predictable branch.
 */
inline void
traceEmit(TraceRecorder *rec, TraceEventKind kind, NodeId node, Tid tid,
          std::uint64_t arg0 = 0, std::uint64_t arg1 = 0)
{
    if (rec != nullptr) [[unlikely]]
        rec->push(kind, node, tid, arg0, arg1);
}

} // namespace tcc

#endif // TCC_OBS_TRACE_RECORDER_HH
