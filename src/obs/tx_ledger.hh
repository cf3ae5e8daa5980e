/**
 * @file
 * Per-transaction lifecycle ledger: folds the TraceRecorder ring into
 * one record per *committed* TID - where its cycles went (execution
 * vs commit phase), how its commit-protocol round trips behaved
 * (probe send -> reply, first skip / first mark -> validation), how
 * many attempts it took, and what violated it (conflicting line
 * address + the writer's TID).
 *
 * This is the machine-readable companion to the paper's Figures 6-7
 * breakdown and Table 3 latencies: instead of aggregate counters it
 * answers "why did *this* transaction take that long". Entries are
 * produced in commit order, which is deterministic, so ledgers are
 * golden-testable. Every entry is complete: a commit whose history
 * may have fallen off the ring is counted, not reported.
 *
 * Building a ledger requires the Proc and Commit trace categories to
 * have been enabled during the run (tccsim --trace-out enables all).
 */

#ifndef TCC_OBS_TX_LEDGER_HH
#define TCC_OBS_TX_LEDGER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "obs/trace_recorder.hh"

namespace tcc {

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

/** The committed transactions a trace ring fully describes. */
struct TxLedger {
    /** One record per fully recorded committed TID, in commit
     *  order. */
    std::vector<TxLedgerEntry> entries;
    /** Commits left out because the ring dropped events. A node's
     *  retained events are a suffix of its own stream, so only its
     *  first retained commit can be missing its begin or earlier
     *  attempts; once anything was dropped, that commit is omitted
     *  for every node. 0 when the ring holds the whole run. */
    std::uint64_t truncated = 0;
};

/** Fold the recorder's stored events into per-TID records. */
TxLedger buildTxLedger(const TraceRecorder &rec);

} // namespace tcc

#endif // TCC_OBS_TX_LEDGER_HH
