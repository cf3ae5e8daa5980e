#include "check/invariant_checker.hh"

#include <cstdarg>
#include <cstdio>

namespace tcc {

InvariantChecker::InvariantChecker(std::uint32_t num_nodes,
                                   const TraceRecorder *tracer_,
                                   std::size_t history)
    : dirs(num_nodes), tracer(tracer_), historyLen(history),
      rangeCount(num_nodes)
{}

void
InvariantChecker::fail(const char *invariant, NodeId node, Tid tid,
                       const char *fmt, ...)
{
    ++verdict.failures;
    if (!verdict.ok)
        return; // first failure wins
    verdict.ok = false;

    char detail[512];
    std::va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(detail, sizeof(detail), fmt, ap);
    va_end(ap);

    char head[160];
    if (tid == kInvalidTid) {
        std::snprintf(head, sizeof(head),
                      "invariant '%s' violated (node %u): ", invariant,
                      node);
    } else {
        std::snprintf(head, sizeof(head),
                      "invariant '%s' violated (node %u, tid %llu): ",
                      invariant, node, (unsigned long long)tid);
    }
    verdict.error = std::string(head) + detail + traceTail();
}

std::string
InvariantChecker::traceTail() const
{
    if (tracer == nullptr || tracer->size() == 0 || historyLen == 0)
        return {};
    std::string out = "\n  last protocol events:";
    const std::size_t n = tracer->size();
    const std::size_t first = n > historyLen ? n - historyLen : 0;
    for (std::size_t i = first; i < n; ++i)
        out += "\n    " + formatTraceEvent(tracer->at(i));
    return out;
}

bool
InvariantChecker::onRetire(NodeId dir, Tid t, Retire how)
{
    ++verdict.checks;
    DirState &d = dirs.at(dir);
    const char *how_name = how == Retire::Skip     ? "skip"
                           : how == Retire::Commit ? "commit"
                                                   : "abort";
    if (t < d.nstid) {
        fail(invariant::kSkipOrService, dir, t,
             "%s retires TID %llu already passed by NSTID %llu",
             how_name, (unsigned long long)t,
             (unsigned long long)d.nstid);
        return false;
    }
    const std::size_t offset = t - d.nstid;
    if (d.retired.test(offset)) {
        fail(invariant::kSkipOrService, dir, t,
             "TID %llu retired twice (second cause: %s)",
             (unsigned long long)t, how_name);
        return false;
    }
    d.retired.set(offset);
    ++d.retireCount;
    return true;
}

void
InvariantChecker::onNstidAdvance(NodeId dir, Tid from, Tid to)
{
    ++verdict.checks;
    DirState &d = dirs.at(dir);
    if (to < from) {
        fail(invariant::kNstidMonotonic, dir, to,
             "NSTID stepped backwards from %llu to %llu",
             (unsigned long long)from, (unsigned long long)to);
        return;
    }
    // Every TID the NSTID passes must have retired here. The window
    // is relative to the checker's own NSTID, which equals @p from
    // until some earlier check has already failed.
    if (to <= d.nstid)
        return;
    const std::size_t span = to - d.nstid;
    std::size_t first_clear;
    const std::size_t hit = d.retired.consume(span, first_clear);
    const Tid gap = d.nstid + first_clear;
    d.nstid = to;
    if (hit == span)
        return;
    // One report names the first gap; every missing TID still counts.
    fail(invariant::kSkipOrService, dir, gap,
         "NSTID advanced %llu -> %llu past TID %llu, which was never "
         "serviced or skipped here",
         (unsigned long long)from, (unsigned long long)to,
         (unsigned long long)gap);
    verdict.failures += span - hit - 1;
}

void
InvariantChecker::onCommitApply(NodeId dir, Tid tid,
                                std::uint32_t marks_received,
                                std::uint32_t expected_marks,
                                bool commit_seen, bool partial)
{
    ++verdict.checks;
    DirState &d = dirs.at(dir);
    if (!commit_seen) {
        fail(invariant::kCommitBeforeMarks, dir, tid,
             "commit data applied before any Commit message arrived");
        return;
    }
    if (marks_received != expected_marks) {
        fail(invariant::kCommitBeforeMarks, dir, tid,
             "commit applied with %u of %u announced marks validated",
             marks_received, expected_marks);
        return;
    }
    // Full commits at one directory happen in strictly increasing TID
    // order; solo-mode partial batches may precede their own full
    // commit under the same TID but never follow one.
    if (d.lastCommitTid != kInvalidTid && tid <= d.lastCommitTid) {
        fail(invariant::kCommitTidOrder, dir, tid,
             "%scommit for TID %llu applied after TID %llu already "
             "committed",
             partial ? "partial " : "", (unsigned long long)tid,
             (unsigned long long)d.lastCommitTid);
        return;
    }
    if (!partial)
        d.lastCommitTid = tid;
}

void
InvariantChecker::onViolation(NodeId proc, Tid tid_before,
                              bool announced, Tid tid_after)
{
    ++verdict.checks;
    if (announced) {
        if (tid_after != kInvalidTid) {
            fail(invariant::kTidRetained, proc, tid_before,
                 "announced TID %llu must be released (aborted) on "
                 "violation, but the retry still holds %llu",
                 (unsigned long long)tid_before,
                 (unsigned long long)tid_after);
        }
        return;
    }
    if (tid_before != kInvalidTid && tid_after != tid_before) {
        fail(invariant::kTidRetained, proc, tid_before,
             "unannounced TID %llu dropped on violation (retry holds "
             "%lld); an acquired TID must be retained until committed "
             "or aborted",
             (unsigned long long)tid_before,
             tid_after == kInvalidTid ? -1LL : (long long)tid_after);
    }
}

void
InvariantChecker::finalize(Tid issued, bool completed,
                           bool hit_tick_limit)
{
    ++verdict.checks;
    if (failed())
        return;
    const NodeId range_end = rangeFirst + rangeCount;
    if (completed) {
        for (NodeId n = rangeFirst; n < range_end; ++n) {
            const DirState &d = dirs[n];
            if (d.nstid != issued || d.retireCount != issued) {
                fail(invariant::kServiceComplete, n, d.nstid,
                     "run completed but directory %u retired %llu of "
                     "%llu issued TIDs (NSTID %llu)",
                     n, (unsigned long long)d.retireCount,
                     (unsigned long long)issued,
                     (unsigned long long)d.nstid);
                return;
            }
        }
        return;
    }
    if (hit_tick_limit)
        return; // cut short by max_ticks: incompleteness is expected
    // The event queue drained with work left: the protocol stalled.
    for (NodeId n = rangeFirst; n < range_end; ++n) {
        const DirState &d = dirs[n];
        if (d.nstid < issued) {
            fail(invariant::kServiceComplete, n, d.nstid,
                 "protocol stalled: directory %u stuck at NSTID %llu "
                 "with %llu TIDs issued - TID %llu was never serviced "
                 "or skipped here",
                 n, (unsigned long long)d.nstid,
                 (unsigned long long)issued,
                 (unsigned long long)d.nstid);
            return;
        }
    }
    fail(invariant::kServiceComplete, 0, kInvalidTid,
         "protocol stalled: event queue drained before the sources "
         "finished, with every NSTID caught up (processor-side stall)");
}

} // namespace tcc
