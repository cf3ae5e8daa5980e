/**
 * @file
 * Small-scale (bus-based) TCC baseline - the original TCC design the
 * paper scales past (Section 2.2, "Protocol Operation Overview").
 *
 * Characteristics, per the paper:
 *  - commits are serialized by a single commit token (OCC condition 2:
 *    execution overlaps, but only one transaction commits at a time);
 *  - the committing processor flushes its write-set over an ordered
 *    bus (write-through commit: addresses AND data);
 *  - every other processor snoops the commit and violates when the
 *    committed words overlap its speculatively-read words;
 *  - the sum of all commit times lower-bounds execution time, which is
 *    the scaling bottleneck Scalable TCC removes.
 *
 * The model shares the operation vocabulary (TxOp), speculative cache,
 * workload sources, and statistics buckets with the scalable system so
 * the two are directly comparable in the ablation benchmark.
 */

#ifndef TCC_BUSBASELINE_BUS_TCC_HH
#define TCC_BUSBASELINE_BUS_TCC_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "cache/spec_cache.hh"
#include "check/serial_checker.hh"
#include "common/flat_map.hh"
#include "core/system.hh"
#include "mem/global_store.hh"
#include "sim/event_queue.hh"
#include "workload/transaction_source.hh"

namespace tcc {

/** Bus-based TCC configuration. */
struct BusConfig {
    std::uint32_t numProcs = 8;
    CacheConfig cache;
    /** Bus transfer bandwidth in bytes/cycle (shared by everyone). */
    std::uint32_t busBytesPerCycle = 16;
    /** Fixed bus arbitration latency per transfer. */
    Tick busArbitration = 3;
    /** Shared L2 / memory access latency for misses. */
    Tick memLatency = 100;
    Tick violationRestartPenalty = 10;
    bool enableChecker = false;
};

/**
 * A bus-based TCC multiprocessor. The public surface mirrors System
 * closely enough for side-by-side benchmarking.
 */
class BusTcc
{
  public:
    explicit BusTcc(const BusConfig &cfg);

    void setSource(NodeId proc, TransactionSource *src);
    void initializeWord(Addr addr, std::uint64_t value);

    /**
     * Run to completion (or @p max_ticks). The result is the same
     * tcc::RunResult System::run() returns, so the bus baseline and
     * the scalable system are drop-in interchangeable in bench code;
     * fields with no bus equivalent (dirs, pdes, overflows,
     * invariants) stay at their defaults.
     */
    RunResult run(Tick max_ticks = kTickMax);

    GlobalStore &memory() { return store; }
    /** The serializability checker's commit log (structural access;
     *  the verdict is in RunResult::serial). */
    const SerialChecker &commitLog() const { return serialChecker; }

    struct ProcStats {
        std::uint64_t usefulCycles = 0;
        std::uint64_t missCycles = 0;
        std::uint64_t commitCycles = 0;
        std::uint64_t idleCycles = 0;
        std::uint64_t violationCycles = 0;
        std::uint64_t txnsCommitted = 0;
        std::uint64_t violations = 0;
        std::uint64_t committedInstructions = 0;
    };

    const ProcStats &procStats(NodeId p) const
    {
        return procs.at(p)->stats;
    }

    /** Total cycles the bus was busy with commit flushes. */
    Tick busBusyCycles() const { return busBusy; }

  private:
    struct Proc {
        explicit Proc(const CacheConfig &cc) : cache(cc) {}

        NodeId id = 0;
        SpecCache cache;
        TransactionSource *source = nullptr;
        std::vector<TxOp> curOps;
        std::size_t opIdx = 0;
        std::uint64_t lastLoaded = 0;
        FlatMap<Addr, std::uint64_t> writeBuf;
        std::vector<std::pair<Addr, std::uint64_t>> readLog;
        bool done = false;
        bool waitingToken = false;
        bool waitingBarrier = false;
        std::uint64_t gen = 0;
        Tick attemptStart = 0;
        Tick idleStart = 0;
        Tick commitStart = 0;
        Tick doneAt = 0;
        std::uint64_t attemptUseful = 0;
        std::uint64_t attemptMiss = 0;
        std::uint64_t attemptInstr = 0;
        ProcStats stats;
    };

    /** Reserve the bus for @p bytes; returns the latency from now
     *  until the transfer completes (queueing + transfer). */
    Tick busTransfer(std::uint64_t bytes);

    /** Sum of per-processor execution-time buckets. */
    Breakdown computeBreakdown() const;

    void startNext(Proc &p);
    void beginAttempt(Proc &p);
    void step(Proc &p);
    void resume(Proc &p, Tick delay);
    void requestToken(Proc &p);
    void grantToken();
    void doCommit(Proc &p);
    void violate(Proc &p);
    void checkBarrier();

    BusConfig config;
    EventQueue eventq;
    GlobalStore store;
    SerialChecker serialChecker;
    std::vector<std::unique_ptr<Proc>> procs;

    /** FIFO of processors waiting for the commit token. */
    std::deque<NodeId> tokenQueue;
    bool tokenHeld = false;
    /** Next tick at which the bus is free (serialized transfers). */
    Tick busFree = 0;
    Tick busBusy = 0;
    std::uint64_t commitSeq = 0; ///< serial commit order (checker TID)
    /** The committer's write set, refilled by each doCommit. */
    std::vector<SpecCache::WriteSetLine> writeSetBuf;
    std::vector<std::pair<NodeId, std::function<void()>>>
        barrierWaiters;
    std::uint32_t doneProcs = 0;
};

} // namespace tcc

#endif // TCC_BUSBASELINE_BUS_TCC_HH
