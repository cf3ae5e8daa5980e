/**
 * @file
 * The Scalable TCC processor model (paper Figure 1b and Section 3).
 *
 * Each processor executes a stream of transactions from its
 * TransactionSource with CPI=1 for compute, buffering all speculative
 * state in its private SpecCache, then runs the two-phase commit:
 *
 *   1. acquire a TID from the global vendor (in parallel, early-probe
 *      the directories in its Sharing and Writing vectors);
 *   2. multicast Skip to every directory outside its write-set;
 *   3. for each writing directory, once that directory's NSTID equals
 *      the TID, send Mark messages for the write-set lines homed there;
 *   4. once every writing directory is fully marked and every sharing
 *      directory's NSTID has reached the TID, the transaction is
 *      validated (it can no longer violate): publish the write buffer
 *      and multicast Commit.
 *
 * Violations: an invalidation whose committed words overlap the
 * current transaction's speculatively-read words, carrying a TID lower
 * than ours (or while we have no TID), rolls the transaction back.
 * A violated transaction that had already sent Skips releases its TID
 * by multicasting Abort to its writing directories; after
 * `agingThreshold` consecutive violations it requests its TID eagerly
 * at restart and retains it, which stalls all younger commits until it
 * finishes - the paper's starvation mitigation.
 */

#ifndef TCC_PROC_PROCESSOR_HH
#define TCC_PROC_PROCESSOR_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "cache/spec_cache.hh"
#include "check/invariant_checker.hh"
#include "common/arena.hh"
#include "common/flat_map.hh"
#include "common/nodeset.hh"
#include "common/types.hh"
#include "mem/global_store.hh"
#include "mem/home_map.hh"
#include "noc/network.hh"
#include "obs/tx_ledger.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "workload/transaction_source.hh"

namespace tcc {

class ContentionProfiler; // obs/contention.hh

/** Per-processor protocol/timing knobs. */
struct ProcessorConfig {
    /** Cycles to restore the register checkpoint after a violation. */
    Tick violationRestartPenalty = 10;
    /**
     * Consecutive violations of one transaction before it requests its
     * TID eagerly at restart and retains it (aging). 0 disables aging.
     */
    std::uint32_t agingThreshold = 3;
    /**
     * Cache overflows of one transaction before the solo-mode fallback
     * engages (overflow virtualization: acquire the TID eagerly, wait
     * until every directory serves it - at which point the transaction
     * is unviolable - then run with conflict tracking off, draining
     * the write-set to the directories in partial-commit batches).
     * 0 disables the fallback. Substitutes for the paper's VTM/XTM
     * reference in Section 3.1.
     */
    std::uint32_t soloOverflowThreshold = 1;
};

/**
 * One TCC processor: in-order, CPI=1 core plus the commit engine
 * (paper's "Commit Control" with the Sharing and Writing vectors).
 */
class TccProcessor
{
  public:
    TccProcessor(NodeId node, std::uint32_t num_nodes, EventQueue &eq,
                 Network &net, HomeMap &homes, GlobalStore &store,
                 const CacheConfig &cache_cfg,
                 const ProcessorConfig &cfg, NodeId vendor_node = 0,
                 Arena *arena = nullptr);

    /** Attach the transaction stream (must outlive the processor). */
    void setSource(TransactionSource *src) { source = src; }

    /** Barrier service provided by the System. */
    using BarrierFn =
        std::function<void(NodeId, std::function<void()>)>;
    void setBarrier(BarrierFn fn) { barrier = std::move(fn); }

    /** (addr, value) pairs a transaction read or wrote. */
    using CommitLog = std::vector<std::pair<Addr, std::uint64_t>>;
    /** Hook invoked at every commit (serializability checker) with the
     *  read and write logs. It may take either buffer, leaving an empty
     *  log in its place (ideally one with capacity, recycled). */
    using CommitHook =
        std::function<void(Tid, NodeId, CommitLog &reads,
                           CommitLog &writes)>;
    void setCommitHook(CommitHook hook) { commitHook = std::move(hook); }

    /** Hook invoked when an attempt that announced its TID aborts: the
     *  TID will never commit. */
    using ReleaseHook = std::function<void(Tid)>;
    void setReleaseHook(ReleaseHook hook) { releaseHook = std::move(hook); }

    /** Hook invoked when the source is exhausted (barrier accounting). */
    void setDoneHook(std::function<void()> hook)
    {
        doneHook = std::move(hook);
    }

    /** Kick off the first transaction (schedule at current tick). */
    void start();

    /** Network entry point for processor-bound messages. */
    void receive(const Message &msg);

    bool done() const { return phase == Phase::Done; }
    Tick doneTick() const { return doneAt; }

    /** Execution-time breakdown and transaction statistics. */
    struct Stats {
        // Figure 6/7 breakdown buckets (cycles).
        std::uint64_t usefulCycles = 0;
        std::uint64_t missCycles = 0;
        std::uint64_t commitCycles = 0;
        std::uint64_t idleCycles = 0;
        std::uint64_t violationCycles = 0;

        std::uint64_t txnsCommitted = 0;
        std::uint64_t violations = 0;
        std::uint64_t overflows = 0;
        std::uint64_t soloCommits = 0;
        std::uint64_t drains = 0;
        std::uint64_t committedInstructions = 0;
        std::uint64_t tidRequests = 0;
        /** TxProgram value-based validation rollbacks. */
        std::uint64_t valueValidationFailures = 0;

        // Per-commit distributions (committed transactions only).
        // The ledger (setLedger) holds every other per-commit fact.
        Distribution dirsPerCommit;
        Distribution commitLatency;
        /** NIC-serialized multicast send events per commit attempt
         *  (the O(N)-vs-O(log N) fan-out cost; see noc/network.hh). */
        Distribution multicastNicPerCommit;
    };

    const Stats &stats() const { return procStats; }
    Stats &mutableStats() { return procStats; }

    /** The processor's private cache (tests / reporting). */
    const SpecCache &cache() const { return specCache; }

    /** Human-readable dump of the commit-engine state (debugging). */
    std::string debugDump() const;

    /** Attach the System's protocol event ring (may be null). */
    void setTraceRecorder(TraceRecorder *rec) { tracer = rec; }

    /** Attach the ledger every commit appends its record to (may be
     *  null: no records). */
    void setLedger(TxLedger *l) { ledger = l; }

    /** Attach the online protocol-invariant checker (may be null). */
    void setInvariantChecker(InvariantChecker *c) { invariants = c; }

    /** Ablation: write-through commit (the small-scale TCC policy)
     *  ships data with every Mark and leaves memory as the owner, vs
     *  the paper's write-back commit that moves addresses only and
     *  forwards data on true sharing. The System sets this and the
     *  directories' flag from SystemConfig::writeThroughCommit. */
    void setWriteThroughCommit(bool on) { writeThrough = on; }

    /** Attach the conflict-attribution profiler (may be null; see
     *  obs/contention.hh). Pure observation: recording never changes
     *  protocol behavior. */
    void setContentionProfiler(ContentionProfiler *p) { contention = p; }

  private:
    enum class Phase { Idle, Exec, Commit, Done };

    /** One directory in writingVec ∪ sharingVec. */
    struct CommitDir {
        NodeId node = 0;
        /** In writingVec: Marks + Commit go here; else share-only. */
        bool write = false;
        /** Marks sent (write) or NSTID >= tid seen (share-only). */
        bool done = false;
        /** The early probe (sent when the commit started) is
         *  unanswered. */
        bool earlyProbeOut = false;
        /** TID probes unanswered, up to two tracked (a late early
         *  answer behind the TID probes again), their send ticks
         *  oldest first in tidProbeAt. */
        std::uint8_t tidProbesOut = 0;
        /** The early (TID-less) probe's answer, until then invalid. */
        Tid earlyNstid = kInvalidTid;
        /** This directory's write-set lines: commitLines[begin, end). */
        std::uint32_t linesBegin = 0;
        std::uint32_t linesEnd = 0;
        Tick tidProbeAt[2] = {0, 0};
        std::uint32_t lines() const { return linesEnd - linesBegin; }
        bool operator<(const CommitDir &o) const { return node < o.node; }
    };

    // --- transaction lifecycle -------------------------------------
    void startNextTransaction();
    void beginAttempt();
    /** Ask the vendor for a TID unless a request is already out. */
    void requestTid();
    void step();
    void resumeAfter(Tick delay);
    void violate();

    // --- execution helpers -----------------------------------------
    void execLoad(const TxOp &op);
    void execStore(const TxOp &op);
    void startMiss(Addr addr);
    void accountAccess(Tick latency);
    NodeId homeOf(Addr addr);

    // --- commit engine ----------------------------------------------
    /** Pass the read log and the write buffer to the commit hook. */
    void runCommitHook();
    void startCommit();
    /** Fill commitDirs/commitLines from the vectors and write set. */
    void buildCommitTable();
    /** The table entry for @p dir, or nullptr. */
    CommitDir *findDir(NodeId dir);
    /** Sample the per-commit stats and append the ledger record. */
    void recordCommitStats(std::size_t write_dirs,
                           std::size_t dirs_touched);
    void proceedAfterTid();
    /** Post one Probe carrying the TID to @p dir (every probe after
     *  the early ones funnels through here). */
    void sendProbe(CommitDir &dir);
    /** Count one probe round trip, sent at @p sent, answered now. */
    void noteProbeRtt(Tick sent);
    /** Count @p msg's round trip against the probe it answers: the
     *  early probe when it carries no TID, else the oldest TID probe
     *  to that directory. Replies to no outstanding probe count
     *  nothing. */
    void noteProbeReply(CommitDir &dir, const Message &msg);
    void sendMarksTo(CommitDir &dir);
    void postMarks(const CommitDir &dir);
    void checkValidationDone();
    void completeCommit();
    void finishTransaction();

    // --- message handlers -------------------------------------------
    void onLoadReply(const Message &msg);
    void onTidReply(const Message &msg);
    void onProbeReply(const Message &msg);
    void interpretNstid(CommitDir &dir, Tid observed);
    void onInv(const Message &msg);
    void onDataReq(const Message &msg);

    // --- solo mode (overflow virtualization) -------------------------
    void startSoloAcquisition();
    void startDrain();
    void soloCommit();
    void onPartialAck(const Message &msg);

    void post(Message msg);
    /** Stamp src/bytes once and hand @p msg to the network's multicast
     *  engine for delivery to every node in @p dsts (ascending).
     *  Accumulates the NIC-serialized send count into the attempt. */
    void postMulticast(Message msg, std::span<const NodeId> dsts);

    // --- identity / environment -------------------------------------
    NodeId nodeId;
    std::uint32_t numNodes;
    EventQueue &eventq;
    Network &network;
    HomeMap &homeMap;
    GlobalStore &globalStore;
    SpecCache specCache;
    ProcessorConfig config;
    bool writeThrough = false;
    NodeId vendorNode;
    TransactionSource *source = nullptr;
    BarrierFn barrier;
    CommitHook commitHook;
    ReleaseHook releaseHook;
    std::function<void()> doneHook;
    /** Protocol event ring (owned by the System; may be null). */
    TraceRecorder *tracer = nullptr;
    /** Online invariant checker (owned by the System; may be null). */
    InvariantChecker *invariants = nullptr;
    /** Conflict profiler (owned by the System or a PDES domain; may be
     *  null = off). */
    ContentionProfiler *contention = nullptr;
    /** Commit records (owned by the System or a PDES domain). */
    TxLedger *ledger = nullptr;

    // --- per-transaction state ---------------------------------------
    Phase phase = Phase::Idle;
    std::vector<TxOp> curOps;
    std::size_t opIdx = 0;
    std::uint64_t lastLoaded = 0;
    /** homeOf()'s memo: the last page (page-aligned address) asked
     *  about and its home, valid while homeMap.epoch() is unchanged. */
    Addr homeMemoPage = ~Addr{0};
    NodeId homeMemoNode = kInvalidNode;
    std::uint64_t homeMemoEpoch = 0;
    /** Speculative write buffer: word address -> value. Probed on
     *  every load and store; starts empty, grows to the largest
     *  attempt's write set and is cleared (not deallocated) per
     *  attempt. */
    FlatMap<Addr, std::uint64_t> writeBuf;
    /** (addr, value) pairs read from committed state (checker log). */
    CommitLog readLog;
    /** The write buffer as pairs, built at commit for the hook. */
    CommitLog writeLog;
    NodeSet sharingVec;
    NodeSet writingVec;
    Tid tid = kInvalidTid;
    Tid lastTidAcquired = kInvalidTid;
    bool tidReqOutstanding = false;
    std::uint32_t consecViolations = 0;
    /** Attempt generation: stale continuations check and bail. */
    std::uint64_t gen = 0;

    // --- commit-phase state ------------------------------------------
    // A commit deals only with the directories in writingVec and
    // sharingVec, so its per-directory state is one table of them,
    // built as the commit (or a solo drain) starts: it grows with the
    // largest commit made, not with the node count.
    bool skipsSent = false;
    bool validated = false;
    Tick commitStart = 0;
    /** One entry per directory the commit touches, ascending. */
    std::vector<CommitDir, ArenaAllocator<CommitDir>> commitDirs;
    /** The write set, grouped by home in commitDirs order. */
    std::vector<SpecCache::WriteSetLine,
                ArenaAllocator<SpecCache::WriteSetLine>>
        commitLines;
    /** The write set in cache order, read back to build commitLines
     *  (reused; on the heap, so its growth abandons no arena bytes). */
    std::vector<SpecCache::WriteSetLine> writeSetBuf;
    /** Entries not yet done: the commit validates when this hits 0. */
    std::uint32_t dirsPending = 0;
    /** Scratch destination list for multicast emission (reused). */
    std::vector<NodeId, ArenaAllocator<NodeId>> mcastBuf;
    /** NIC-serialized multicast sends charged to this attempt. */
    std::uint64_t attemptMcastNic = 0;
    /** The running transaction's ledger facts gathered before its
     *  commit: violation causes and probe round trips span attempts,
     *  first skip / mark are the current attempt's. recordCommitStats
     *  fills in the rest. */
    TxLedgerEntry txRec;

    // --- miss handling -----------------------------------------------
    struct Mshr {
        bool active = false;
        Addr lineAddr = 0;
        bool poisoned = false;
        std::uint64_t gen = 0;
        /** Sequence tag of the outstanding LoadReq; replies carrying
         *  any other tag (duplicates, reordered stale replies) are
         *  dropped. */
        std::uint32_t seq = 0;
    };
    Mshr mshr;
    Tick missStart = 0;
    /** Monotonic LoadReq sequence counter (see Message::seq). */
    std::uint32_t loadSeq = 0;

    // --- solo mode ------------------------------------------------------
    bool soloRequested = false;
    bool solo = false;
    std::uint32_t soloProbesPending = 0;
    /** Send tick of the solo acquisition's probe multicast. */
    Tick soloProbeSentAt = 0;
    std::uint32_t overflowsThisTxn = 0;
    std::uint32_t drainAcksPending = 0;

    // --- accounting ----------------------------------------------------
    Tick attemptStart = 0;
    std::uint64_t attemptUseful = 0;
    std::uint64_t attemptMiss = 0;
    std::uint64_t attemptInstr = 0;
    Tick idleStart = 0;
    Tick doneAt = 0;

    Stats procStats;
};

} // namespace tcc

#endif // TCC_PROC_PROCESSOR_HH
