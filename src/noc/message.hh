/**
 * @file
 * Coherence messages for the Scalable TCC protocol. The request types
 * mirror Table 1 of the paper; the remaining types are the replies and
 * acknowledgements those requests imply.
 */

#ifndef TCC_NOC_MESSAGE_HH
#define TCC_NOC_MESSAGE_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace tcc {

/**
 * Message opcodes.
 *
 * Paper Table 1 requests:
 *   LoadReq     "Load Request"  load a cache line
 *   TidReq      "TID Request"   request a transaction identifier
 *   Skip        instructs a directory to skip a given TID
 *   Probe       probes for a Now Serving TID
 *   Mark        marks a line intended to be committed
 *   Commit      instructs a directory to commit marked lines
 *   Abort       instructs a directory to abort a given TID
 *   WriteBack   write back a committed line, removing it from the cache
 *   FlushData   "Flush" - write back a committed line (owner responds
 *               to a DataReq, invalidating its copy)
 *   DataReq     "Data Request" - directory asks the owner to flush
 *
 * Replies / acks:
 *   LoadReply, TidReply, ProbeReply, Inv, InvAck
 */
enum class MsgType : std::uint8_t {
    LoadReq,
    LoadReply,
    TidReq,
    TidReply,
    Skip,
    Probe,
    ProbeReply,
    Mark,
    Commit,
    Abort,
    WriteBack,
    DataReq,
    FlushData,
    Inv,
    InvAck,
    /**
     * Overflow virtualization ("solo mode", substituting for the
     * paper's VTM/XTM reference): commit a batch of marked lines
     * without retiring the TID, so an unviolable oldest transaction
     * can drain speculative state that no longer fits in its cache.
     */
    PartialCommit,
    /** Directory -> processor: the partial batch fully committed. */
    PartialAck,
};

/** Human-readable opcode name (tracing / tests). */
const char *msgTypeName(MsgType t);

/**
 * One protocol message. A single POD struct (rather than a class
 * hierarchy) keeps the hot path allocation-free; unused fields are
 * simply ignored by each opcode.
 *
 * The struct is packed to 40 bytes so that a delivery event can carry
 * the message by value: {this, Message} fills the event queue's
 * 48-byte inline callback exactly (see Network::deliver). The flags are
 * one-bit fields, and two pairs of fields that no opcode uses together
 * share storage: wordMask (Mark/Inv) with nstid (ProbeReply), and seq
 * (LoadReq/LoadReply) with numMarks (Commit/PartialCommit). A handler
 * reads only the member its opcode sets.
 */
struct Message {
    MsgType type = MsgType::LoadReq;

    /** Probe: true when the prober intends to commit (write) here. */
    bool wantWrite : 1 = false;

    /**
     * FlushData: true when this flush answers an invalidation of a
     * dirty line during a commit (it doubles as the InvAck); false when
     * it answers a DataReq.
     */
    bool invResponse : 1 = false;

    /** FlushData: false when the owner no longer had the dirty data
     *  (its WriteBack is already in flight). */
    bool hadData : 1 = true;

    /**
     * InvAck / FlushData(invResponse): the acking processor still
     * holds speculative (SR/SM) state on this line and must stay in
     * the sharers list. Without this, a transaction that survives a
     * non-overlapping word-level invalidation would silently stop
     * receiving invalidations for the words it *did* read.
     */
    bool keepSharer : 1 = false;

    /** Payload size in bytes (for traffic accounting), set by sender. */
    std::uint16_t bytes = 0;

    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;

    union {
        /**
         * LoadReq / LoadReply: per-requester sequence number echoed by
         * the directory in the reply. On a network that can duplicate
         * or reorder replies, the miss handler matches replies against
         * the outstanding request's sequence; without the tag, a
         * duplicated reply from an earlier request could satisfy a
         * *later* miss to the same line before the directory
         * re-registers the requester as a sharer - a silently missed
         * conflict window.
         */
        std::uint32_t seq = 0;

        /** Commit / PartialCommit: number of Mark messages the
         *  directory should have. */
        std::uint32_t numMarks;
    };

    /** Line-aligned address (Load/Mark/Inv/WriteBack/...). */
    Addr addr = 0;

    /** Transaction ID this message belongs to or reports. */
    Tid tid = kInvalidTid;

    union {
        /**
         * Per-word flags within the line. For Mark: the speculatively
         * written words; for Inv: the committed words (used for
         * word-level conflict detection). All-ones under line
         * granularity.
         */
        std::uint64_t wordMask = 0;

        /** ProbeReply: the directory's Now-Serving TID at reply time. */
        Tid nstid;
    };

    /** Short rendering for traces: the common header plus whichever
     *  overlaid field the opcode uses. */
    std::string toString() const;
};

// Network::deliver and Directory::receive capture {this, Message} in
// an event callback; keep that inside the callback's inline buffer.
static_assert(sizeof(Message) <= 40,
              "Message must stay small enough to ride inside an event");

/** Traffic classes for the Figure 9 bandwidth breakdown. */
enum class TrafficClass : std::uint8_t {
    Overhead,  ///< protocol control: TID, skip, probe, mark, commit, acks
    Miss,      ///< load requests + data replies from memory
    WriteBack, ///< evicted/flushed committed data to memory
    Shared,    ///< cache-to-cache transfers (DataReq forwarding)
    NumClasses,
};

/** Map an opcode to its Figure-9 traffic class. */
TrafficClass trafficClassOf(MsgType t);

/**
 * Wire size of a message: header-only control messages, address
 * messages, or address + one line of data.
 */
std::uint32_t msgBytes(MsgType t, std::uint32_t line_bytes);

} // namespace tcc

#endif // TCC_NOC_MESSAGE_HH
