#include "obs/tx_ledger.hh"

#include <algorithm>

#include "obs/trace_recorder.hh"

namespace tcc {

/** Reset attempt-scoped fields, keeping the retry/violation history
 *  that spans attempts. */
void
TxLedger::NodeFold::resetAttempt()
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
TxLedger::NodeFold::resetTxn()
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

void
TxLedger::record(const TraceEvent &e)
{
    if (e.node == kInvalidNode)
        return;
    if (e.node >= folds.size())
        folds.resize(e.node + 1);
    NodeFold &f = folds[e.node];
    switch (e.kind) {
      case TraceEventKind::TxBegin:
        // Each attempt restarts the clock: the ledger reports the
        // committing attempt's execution time (violated attempts are
        // summarized by the retry counter).
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
        TxLedgerEntry &entry = entries.emplace_back();
        entry.tid = e.tid;
        entry.node = e.node;
        entry.commitEndTick = e.tick;
        entry.commitStartTick = f.commitStart != 0 ? f.commitStart : e.tick;
        entry.beginTick = f.open ? f.begin : entry.commitStartTick;
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
        f.resetTxn();
        break;
      }
      default:
        break; // directory / network events carry no ledger state
    }
}

} // namespace tcc
