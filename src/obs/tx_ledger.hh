/**
 * @file
 * Per-transaction lifecycle ledger: one record per *committed* TID -
 * where its cycles went (execution vs commit phase), how its
 * commit-protocol round trips behaved (probe send -> reply, first
 * skip / first mark -> validation), how many attempts it took, and
 * what violated it (conflicting line address + the writer's TID).
 *
 * This is the machine-readable companion to the paper's Figures 6-7
 * breakdown and Table 3 latencies: instead of aggregate counters it
 * answers "why did *this* transaction take that long". The ledger is
 * folded as events are recorded (TraceRecorder::push feeds record()),
 * so it holds every commit of the run whatever the ring size; a
 * wrapped ring cuts only the text and Perfetto history. Entries are
 * produced in commit order, which is deterministic, so ledgers are
 * golden-testable.
 *
 * A ledger requires a traced run (TraceConfig::capacity != 0; tccsim
 * --trace-out arms it).
 */

#ifndef TCC_OBS_TX_LEDGER_HH
#define TCC_OBS_TX_LEDGER_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/flat_map.hh"
#include "common/types.hh"

namespace tcc {

struct TraceEvent; // obs/trace_recorder.hh

/** One committed transaction's lifecycle. */
struct TxLedgerEntry {
    Tid tid = kInvalidTid;
    NodeId node = kInvalidNode;

    Tick beginTick = 0;       ///< final (committing) attempt began
    Tick commitStartTick = 0; ///< commit phase entered
    Tick commitEndTick = 0;   ///< validated + published

    /** Violated attempts before the committing one. */
    std::uint32_t retries = 0;
    /** True when a conflicting invalidation was observed. */
    bool hasViolation = false;
    /** Cause of the last violation: conflicting line address. */
    Addr violationAddr = 0;
    /** Cause of the last violation: the committing writer's TID. */
    Tid violationWriter = kInvalidTid;
    /** Every violation cause this transaction saw across all its
     *  attempts: (conflicting line address, count), sorted by address
     *  ascending. violationAddr above is only the *last* cause; a
     *  transaction retried by several hot words lists them all here. */
    std::vector<std::pair<Addr, std::uint32_t>> causes;

    /** Probe round trips (send -> reply) observed for this commit. */
    std::uint64_t probeCount = 0;
    Tick probeRttTotal = 0;
    Tick probeRttMax = 0;

    /** First Skip / first Mark of the committing attempt (0 = none). */
    Tick firstSkipTick = 0;
    Tick firstMarkTick = 0;

    /** Directories this commit touched (write + share-only). */
    std::uint64_t directoriesTouched = 0;
    /** NIC-serialized multicast injections the committing attempt
     *  charged (probe / skip fan-out; O(N) flat, O(k log N) tree). */
    std::uint64_t multicastEvents = 0;

    bool operator==(const TxLedgerEntry &) const = default;

    Tick
    execCycles() const
    {
        return commitStartTick >= beginTick
                   ? commitStartTick - beginTick
                   : 0;
    }

    Tick
    commitCycles() const
    {
        return commitEndTick >= commitStartTick
                   ? commitEndTick - commitStartTick
                   : 0;
    }

    double
    probeRttMean() const
    {
        return probeCount == 0 ? 0.0
                               : static_cast<double>(probeRttTotal) /
                                     static_cast<double>(probeCount);
    }

    /** First mark to validation (0 when no marks were sent). */
    Tick
    markToCommitCycles() const
    {
        return firstMarkTick == 0 || commitEndTick < firstMarkTick
                   ? 0
                   : commitEndTick - firstMarkTick;
    }

    /** First skip to validation (0 when no skips were recorded). */
    Tick
    skipToCommitCycles() const
    {
        return firstSkipTick == 0 || commitEndTick < firstSkipTick
                   ? 0
                   : commitEndTick - firstSkipTick;
    }
};

/** The committed transactions of a traced run. */
class TxLedger
{
  public:
    /** One record per committed TID, in commit order. */
    std::vector<TxLedgerEntry> entries;

    /** Fold one recorded event; a TxCommit appends its entry. */
    void record(const TraceEvent &e);

    /** Forget every entry and every in-flight transaction. */
    void
    clear()
    {
        entries.clear();
        folds.clear();
    }

  private:
    /** Folding state for one processor's in-flight transaction. */
    struct NodeFold {
        bool open = false;
        Tick begin = 0;
        Tick commitStart = 0;
        std::uint32_t retries = 0;
        bool hasViolation = false;
        Addr violationAddr = 0;
        Tid violationWriter = kInvalidTid;
        std::uint64_t probeCount = 0;
        Tick probeRttTotal = 0;
        Tick probeRttMax = 0;
        Tick firstSkip = 0;
        Tick firstMark = 0;
        std::uint64_t dirsTouched = 0;
        std::uint64_t mcastEvents = 0;
        /** Outstanding probe send tick per target directory. */
        FlatMap<NodeId, Tick> probeSent;
        /** Violation causes across all attempts: address -> count.
         *  Cleared only when the transaction commits, not per
         *  attempt - retries keep accumulating their causes. */
        FlatMap<Addr, std::uint32_t> causeCounts;

        void resetAttempt();
        void resetTxn();
    };

    /** Node-indexed fold state; nodes appear as they emit. */
    std::vector<NodeFold> folds;
};

} // namespace tcc

#endif // TCC_OBS_TX_LEDGER_HH
