#include "obs/trace_recorder.hh"

#include <cstdio>

#include "noc/message.hh"

namespace tcc {

const char *
traceEventKindName(TraceEventKind k)
{
    switch (k) {
      case TraceEventKind::TxBegin: return "tx_begin";
      case TraceEventKind::TxViolation: return "tx_violation";
      case TraceEventKind::ViolationCause: return "violation_cause";
      case TraceEventKind::SoloDrain: return "solo_drain";
      case TraceEventKind::TidAcquire: return "tid_acquire";
      case TraceEventKind::ProbeSend: return "probe_send";
      case TraceEventKind::ProbeReplyRecv: return "probe_reply";
      case TraceEventKind::SkipSend: return "skip_send";
      case TraceEventKind::MarkSend: return "mark_send";
      case TraceEventKind::CommitStart: return "commit_start";
      case TraceEventKind::TxCommit: return "tx_commit";
      case TraceEventKind::DirSkip: return "dir_skip";
      case TraceEventKind::DirProbeDefer: return "dir_probe_defer";
      case TraceEventKind::DirNstidAdvance: return "dir_nstid_advance";
      case TraceEventKind::DirInvalidate: return "dir_invalidate";
      case TraceEventKind::NetSend: return "net_send";
      case TraceEventKind::NetDeliver: return "net_deliver";
      default: return "?";
    }
}

std::string
formatTraceEvent(const TraceEvent &e)
{
    char buf[160];
    int n = std::snprintf(
        buf, sizeof(buf), "[%llu] %s node=%u tid=%lld a0=%llx a1=%llx",
        (unsigned long long)e.tick, traceEventKindName(e.kind), e.node,
        e.tid == kInvalidTid ? -1LL : (long long)e.tid,
        (unsigned long long)e.arg0, (unsigned long long)e.arg1);
    if (e.kind == TraceEventKind::NetSend ||
        e.kind == TraceEventKind::NetDeliver) {
        std::snprintf(buf + n, sizeof(buf) - n, " %s",
                      msgTypeName(static_cast<MsgType>(netInfoType(e.arg1))));
    }
    return buf;
}

TraceRecorder::TraceRecorder(const EventQueue &eq, Arena &arena,
                             std::size_t capacity)
    : eventq(eq), cap(capacity),
      buf(capacity == 0 ? nullptr
                        : static_cast<TraceEvent *>(arena.allocate(
                              capacity * sizeof(TraceEvent),
                              alignof(TraceEvent))))
{}

void
TraceRecorder::push(TraceEventKind kind, NodeId node, Tid tid,
                    std::uint64_t arg0, std::uint64_t arg1)
{
    TraceEvent &e = buf[static_cast<std::size_t>(total % cap)];
    e.tick = eventq.now();
    e.arg0 = arg0;
    e.arg1 = arg1;
    e.tid = tid;
    e.node = node;
    e.kind = kind;
    e.pad = 0;
    ++total;
}

void
TraceRecorder::pushRaw(const TraceEvent &src)
{
    buf[static_cast<std::size_t>(total % cap)] = src;
    ++total;
}

} // namespace tcc
