/**
 * @file
 * Scalable TCC directory controller (paper Figure 4 and Section 3).
 *
 * Each node hosts one directory controlling the slice of physical
 * memory homed at that node. The directory:
 *
 *  - tracks, per line: the speculative sharers list, the owner (last
 *    committer holding the only up-to-date copy), the Marked bit for an
 *    in-flight commit, and the TID of the last commit to the line (used
 *    to drop stale write-backs on an unordered network);
 *  - serves commits strictly in TID order via the Now-Serving TID
 *    (NSTID) register and the Skip Vector;
 *  - defers Probe replies until the probed condition holds (write
 *    probes wait for NSTID == tid, read probes for NSTID >= tid);
 *  - gang-upgrades Marked lines to Owned on Commit, multicasts
 *    invalidations to sharers, and advances the NSTID only after every
 *    invalidation has been acknowledged (race elimination);
 *  - stalls loads that hit Marked lines until the commit resolves.
 */

#ifndef TCC_DIRECTORY_DIRECTORY_HH
#define TCC_DIRECTORY_DIRECTORY_HH

#include <cstdint>
#include <list>
#include <span>
#include <vector>

#include "check/invariant_checker.hh"
#include "common/arena.hh"
#include "common/flat_map.hh"
#include "common/nodeset.hh"
#include "common/skip_vector.hh"
#include "common/types.hh"
#include "mem/global_store.hh"
#include "mem/home_map.hh"
#include "noc/network.hh"
#include "sim/event_queue.hh"
#include "sim/pool.hh"
#include "sim/stats.hh"

namespace tcc {

/** Directory/memory timing parameters (Table 2). */
struct DirectoryConfig {
    /** Directory cache access latency per message (cycles). */
    Tick lookupLatency = 10;
    /** Main memory access latency (cycles). */
    Tick memLatency = 100;
    std::uint32_t lineBytes = 32;
    /**
     * Directory cache capacity in entries (paper: 1 MB directory
     * cache). Protocol state is backed by memory, so a miss costs an
     * extra memLatency on the controller instead of losing state.
     * 0 models a perfectly-sized cache (no misses).
     */
    std::uint32_t dirCacheEntries = 0;
};

/**
 * One directory controller. All handling is message-driven; the
 * controller is a single server (messages queue when it is busy),
 * which yields the occupancy statistic of Table 3.
 */
class Directory
{
  public:
    Directory(NodeId node, std::uint32_t num_nodes, EventQueue &eq,
              Network &net, const DirectoryConfig &cfg,
              Arena *arena = nullptr);

    /** Network entry point for all directory-bound messages. */
    void receive(const Message &msg);

    /** Now-Serving TID (tests / assertions). */
    Tid nstid() const { return nowServing; }

    /** Per-directory statistics. */
    struct Stats {
        std::uint64_t loadsServed = 0;
        std::uint64_t loadsStalled = 0;     ///< hit a Marked line
        std::uint64_t loadsForwarded = 0;   ///< served by owner flush
        std::uint64_t skipsReceived = 0;
        std::uint64_t commitsServed = 0;
        std::uint64_t partialCommitsServed = 0;
        std::uint64_t abortsServed = 0;
        std::uint64_t invalidationsSent = 0;
        std::uint64_t writeBacksAccepted = 0;
        std::uint64_t writeBacksDropped = 0; ///< stale TID (race rule)
        std::uint64_t marksReceived = 0;
        std::uint64_t probesDeferred = 0;
        std::uint64_t dirCacheMisses = 0;
        /** Busy cycles per serviced commit (Table 3 "Occupancy"). */
        Distribution commitOccupancy;
        /** Directory working set: entries with remote sharers, sampled
         *  at each commit (Table 3 "Working set"). */
        Distribution workingSet;
        std::uint64_t busyCycles = 0;
    };

    const Stats &stats() const { return dirStats; }

    /** Number of entries currently tracked (diagnostics). */
    std::size_t numEntries() const { return entries.size(); }

    /** Sanity check used by tests: no pending state left behind. */
    bool quiesced() const;

    /** Human-readable dump of any stuck state (debugging aid). */
    std::string debugDump() const;

    /** Attach the System's protocol event ring (may be null). */
    void setTraceRecorder(TraceRecorder *rec) { tracer = rec; }

    /** Attach the online protocol-invariant checker (may be null).
     *  With a checker attached, invalid retirements are recorded as
     *  invariant failures instead of panicking, so checker-efficacy
     *  tests can assert on the diagnostic. */
    void setInvariantChecker(InvariantChecker *c) { invariants = c; }

    /** Write-through commit ablation: committed data goes straight to
     *  memory; lines are never owned by a processor. The System sets
     *  this and the processors' flag from
     *  SystemConfig::writeThroughCommit. */
    void setWriteThroughCommit(bool on) { writeThrough = on; }

  private:
    using WordMaskT = std::uint64_t;

    struct Entry {
        NodeSet sharers;
        bool owned = false;
        NodeId owner = kInvalidNode;
        bool marked = false;
        WordMaskT markedWords = 0;
        /** TID of the last commit to this line (write-back ordering);
         *  kInvalidTid until the first commit. */
        Tid commitTid = kInvalidTid;
        /** Write-backs that overtook their own commit on an unordered
         *  network; replayed once the commit is processed. */
        std::vector<Message> deferredWriteBacks;
        /** One load waiting for an owner flush / write-back; the seq
         *  is echoed in the eventual LoadReply so the requester can
         *  match it against its outstanding miss. */
        struct PendingLoad {
            NodeId node;
            std::uint32_t seq;
        };
        std::vector<PendingLoad> pendingLoads;
        bool dataReqOutstanding = false;
        /** Set when the owner answered a DataReq with "already
         *  evicted"; its WriteBack is in flight. */
        bool awaitingWriteBack = false;
    };

    /** In-flight commit bookkeeping for the currently served TID. */
    struct PendingCommit {
        bool active = false;
        NodeId committer = kInvalidNode;
        Tid tid = kInvalidTid;
        std::uint32_t marksReceived = 0;
        std::vector<Addr> markedLines;
        bool commitSeen = false;
        /** Batch commits without retiring the TID (solo-mode drain). */
        bool partial = false;
        std::uint32_t expectedMarks = 0;
        std::uint32_t pendingAcks = 0;
        bool invsSent = false;
        Tick busyStart = 0;
        Tick serviceCycles = 0;
    };

    Entry &entry(Addr lineAddr);

    // Message handlers (run after the controller occupancy delay).
    void handleLoad(const Message &msg);
    void handleSkip(const Message &msg);
    void handleProbe(const Message &msg);
    void handleMark(const Message &msg);
    void handleCommit(const Message &msg);
    void handlePartialCommit(const Message &msg);
    void handleAbort(const Message &msg);
    void handleWriteBack(const Message &msg);
    void handleFlushData(const Message &msg);
    void handleInvAck(const Message &msg);

    /** Record TID @p t in the Skip Vector (t >= nowServing). */
    void recordSkip(Tid t, InvariantChecker::Retire how);

    /** Shift the Skip Vector past every retired TID and release any
     *  deferred probes / stalled loads that become serviceable. */
    void advance();

    /** Start commit processing once all marks and the Commit arrived. */
    void maybeFinishCommit();

    /** Complete the in-flight commit (all marks+commit present):
     *  upgrade marked lines and send invalidations. */
    void finishCommit();

    /** Advance past the served TID after all inv acks arrived. */
    void retireCurrent();

    /** Serve a load from memory or by forwarding to the owner. */
    void serveLoad(NodeId requester, std::uint32_t seq, Addr lineAddr);

    /** Re-try loads waiting on an owner flush / write-back. */
    void pumpPendingLoads(Addr lineAddr);

    /** Reply to a load from the home memory slice. */
    void replyFromMemory(NodeId requester, std::uint32_t seq,
                         Addr lineAddr);

    /** Send one protocol message (fills in src and size). */
    void post(Message msg);

    /** Send one payload to every node in `dsts` via the network's
     *  multicast layer (invalidation fan-out). */
    void postMulticast(Message msg, std::span<const NodeId> dsts);

    /** Message byte size by opcode (traffic accounting). */
    std::uint32_t sizeOf(MsgType t) const;

    void sampleWorkingSet();
    void noteSharerChange(Entry &e, bool had_remote_before);
    bool hasRemoteSharer(const Entry &e) const;

    NodeId nodeId;
    std::uint32_t numNodes;
    EventQueue &eventq;
    Network &network;
    DirectoryConfig config;
    bool writeThrough = false;
    /** Run-private memory for every map/pool below (may be null). */
    Arena *arena;

    Tid nowServing = 0;
    /** Bit i set means TID nowServing + i is retired (packed ring). */
    SkipVector skipWindow;

    /** Per-line protocol state, touched once per directory message:
     *  open addressing keeps the lookup a single probe, no chase. */
    FlatMap<Addr, Entry> entries;
    PendingCommit pending;

    using MsgVec = std::vector<Message, ArenaAllocator<Message>>;
    /** Probes waiting for their TID condition. */
    MsgVec deferredProbes;
    /** Loads stalled on Marked lines. */
    MsgVec stalledLoads;
    /** advance()'s re-dispatch buffer: swapped with stalledLoads and
     *  cleared, never freed, so NSTID advances allocate nothing. */
    MsgVec loadScratch;

    /** Scratch destination list for invalidation multicasts. */
    std::vector<NodeId, ArenaAllocator<NodeId>> mcastBuf;

    /** Directory-cache recency tracking (LRU over entry addresses). */
    Tick dirCachePenalty(Addr lineAddr);
    std::list<Addr> lruList;
    FlatMap<Addr, std::list<Addr>::iterator> lruIndex;

    /** Single-server occupancy model. */
    Tick busyUntil = 0;

    /** Slab for messages parked during the occupancy delay, keeping
     *  the deferred-dispatch event capture inline (no allocation). */
    ObjectPool<Message> msgPool;

    /** Entries that currently have a remote sharer (working set). */
    std::uint64_t remoteSharerEntries = 0;

    Stats dirStats;

    /** Protocol event ring (owned by the System; may be null). */
    TraceRecorder *tracer = nullptr;

    /** Online invariant checker (owned by the System; may be null). */
    InvariantChecker *invariants = nullptr;
};

} // namespace tcc

#endif // TCC_DIRECTORY_DIRECTORY_HH
