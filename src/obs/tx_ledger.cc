#include "obs/tx_ledger.hh"

#include <algorithm>

#include "common/flat_map.hh"

namespace tcc {

namespace {

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
    /** A commit of this node was seen (its later ones are whole). */
    bool committed = false;
    /** Outstanding probe send tick per target directory. */
    FlatMap<NodeId, Tick> probeSent;
    /** Violation causes across all attempts: address -> count.
     *  Cleared only when the transaction commits (resetTxn), not per
     *  attempt - retries keep accumulating their causes. */
    FlatMap<Addr, std::uint32_t> causeCounts;

    /** Reset attempt-scoped fields, keeping the retry/violation
     *  history that spans attempts. */
    void
    resetAttempt()
    {
        commitStart = 0;
        firstSkip = 0;
        firstMark = 0;
        dirsTouched = 0;
        mcastEvents = 0;
        probeSent.clear();
    }

    /** Reset everything after a commit finalizes the transaction. */
    void
    resetTxn()
    {
        open = false;
        begin = 0;
        retries = 0;
        hasViolation = false;
        violationAddr = 0;
        violationWriter = kInvalidTid;
        probeCount = 0;
        probeRttTotal = 0;
        probeRttMax = 0;
        causeCounts.clear();
        resetAttempt();
    }
};

} // namespace

TxLedger
buildTxLedger(const TraceRecorder &rec)
{
    TxLedger out;
    const bool lossy = rec.dropped() != 0;
    // Node-indexed fold state; nodes appear as they emit.
    std::vector<NodeFold> folds;
    auto fold = [&folds](NodeId n) -> NodeFold & {
        if (n >= folds.size())
            folds.resize(n + 1);
        return folds[n];
    };

    rec.forEach([&](const TraceEvent &e) {
        if (e.node == kInvalidNode)
            return;
        NodeFold &f = fold(e.node);
        switch (e.kind) {
          case TraceEventKind::TxBegin:
            // Each attempt restarts the clock: the ledger reports the
            // committing attempt's execution time (violated attempts
            // are summarized by the retry counter).
            f.open = true;
            f.begin = e.tick;
            f.resetAttempt();
            break;
          case TraceEventKind::CommitStart:
            f.commitStart = e.tick;
            break;
          case TraceEventKind::ProbeSend:
            f.probeSent[static_cast<NodeId>(e.arg0)] = e.tick;
            break;
          case TraceEventKind::ProbeReplyRecv: {
            auto it = f.probeSent.find(static_cast<NodeId>(e.arg0));
            if (it != f.probeSent.end()) {
                const Tick rtt = e.tick - it->second;
                ++f.probeCount;
                f.probeRttTotal += rtt;
                f.probeRttMax = std::max(f.probeRttMax, rtt);
                f.probeSent.erase(it);
            }
            break;
          }
          case TraceEventKind::SkipSend:
            if (f.firstSkip == 0)
                f.firstSkip = e.tick;
            break;
          case TraceEventKind::MarkSend:
            if (f.firstMark == 0)
                f.firstMark = e.tick;
            break;
          case TraceEventKind::CommitFanout:
            // Emitted just before TxCommit by both commit paths.
            f.dirsTouched = e.arg0;
            f.mcastEvents = e.arg1;
            break;
          case TraceEventKind::ViolationCause:
            f.hasViolation = true;
            f.violationAddr = e.arg0;
            f.violationWriter = e.tid;
            ++f.causeCounts[e.arg0];
            break;
          case TraceEventKind::TxViolation:
            ++f.retries;
            f.resetAttempt();
            break;
          case TraceEventKind::TxCommit: {
            const bool whole = !lossy || f.committed;
            f.committed = true;
            if (!whole) {
                ++out.truncated;
                f.resetTxn();
                break;
            }
            TxLedgerEntry entry;
            entry.tid = e.tid;
            entry.node = e.node;
            entry.commitEndTick = e.tick;
            entry.commitStartTick =
                f.commitStart != 0 ? f.commitStart : e.tick;
            entry.beginTick =
                f.open ? f.begin : entry.commitStartTick;
            entry.retries = f.retries;
            entry.hasViolation = f.hasViolation;
            entry.violationAddr = f.violationAddr;
            entry.violationWriter = f.violationWriter;
            entry.probeCount = f.probeCount;
            entry.probeRttTotal = f.probeRttTotal;
            entry.probeRttMax = f.probeRttMax;
            entry.firstSkipTick = f.firstSkip;
            entry.firstMarkTick = f.firstMark;
            entry.directoriesTouched = f.dirsTouched;
            entry.multicastEvents = f.mcastEvents;
            entry.causes.reserve(f.causeCounts.size());
            for (const auto &kv : f.causeCounts)
                entry.causes.emplace_back(kv.first, kv.second);
            // FlatMap iterates in slot order; sort for determinism.
            std::sort(entry.causes.begin(), entry.causes.end());
            out.entries.push_back(entry);
            f.resetTxn();
            break;
          }
          default:
            break; // directory / network events carry no ledger state
        }
    });
    return out;
}

} // namespace tcc
