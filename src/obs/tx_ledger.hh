/**
 * @file
 * Per-transaction lifecycle ledger: one record per *committed* TID -
 * where its cycles went (execution vs commit phase), how its
 * commit-protocol round trips behaved (probe send -> reply, first
 * skip / first mark -> validation), how many attempts it took, what
 * violated it (conflicting line address + the writer's TID), and its
 * Table 3 sizes.
 *
 * This is the machine-readable companion to the paper's Figures 6-7
 * breakdown and Table 3 latencies: instead of aggregate counters it
 * answers "why did *this* transaction take that long". The processor
 * writes each record itself when the transaction commits
 * (TccProcessor::recordCommitStats), so every run keeps every commit,
 * traced or not. Records are appended in commit order, which is
 * deterministic, so ledgers are golden-testable; one node's records
 * are in that processor's commit order.
 */

#ifndef TCC_OBS_TX_LEDGER_HH
#define TCC_OBS_TX_LEDGER_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace tcc {

/** One committed transaction's lifecycle. */
struct TxLedgerEntry {
    Tid tid = kInvalidTid;
    NodeId node = kInvalidNode;

    /** Violated attempts before the committing one. */
    std::uint32_t retries = 0;

    Tick beginTick = 0;       ///< final (committing) attempt began
    Tick commitStartTick = 0; ///< commit phase entered
    Tick commitEndTick = 0;   ///< validated + published

    /** Cause of the last violation: conflicting line address. */
    Addr violationAddr = 0;
    /** Cause of the last violation: the committing writer's TID. */
    Tid violationWriter = kInvalidTid;
    /** Every violation cause this transaction saw across all its
     *  attempts: (conflicting line address, count), sorted by address
     *  ascending. violationAddr above is only the *last* cause; a
     *  transaction retried by several hot words lists them all here. */
    std::vector<std::pair<Addr, std::uint32_t>> causes;

    /** Probe round trips (send -> reply), summed over every attempt. */
    Tick probeRttTotal = 0;
    Tick probeRttMax = 0;

    /** First Skip / first Mark of the committing attempt (0 = none). */
    Tick firstSkipTick = 0;
    Tick firstMarkTick = 0;

    /** Instructions of the committing attempt (Table 3 size). */
    std::uint64_t instructions = 0;
    std::uint32_t probeCount = 0;
    /** Directories this commit touched (write + share-only). */
    std::uint32_t directoriesTouched = 0;
    /** NIC-serialized multicast injections the committing attempt
     *  charged (probe / skip fan-out; O(N) flat, O(k log N) tree). */
    std::uint32_t multicastEvents = 0;
    /** Speculatively written / read lines at commit (Table 3 sets). */
    std::uint32_t writeLines = 0;
    std::uint32_t readLines = 0;
    /** Distinct words written (Table 3 ops per word written). */
    std::uint32_t wordsWritten = 0;

    bool operator==(const TxLedgerEntry &) const = default;

    /** True when a conflicting invalidation was observed. */
    bool hasViolation() const { return !causes.empty(); }

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

/** The committed transactions of a run, in commit order. */
using TxLedger = std::vector<TxLedgerEntry>;

} // namespace tcc

#endif // TCC_OBS_TX_LEDGER_HH
