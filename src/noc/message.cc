#include "noc/message.hh"

#include <cstdio>

namespace tcc {

const char *
msgTypeName(MsgType t)
{
    switch (t) {
      case MsgType::LoadReq: return "LoadReq";
      case MsgType::LoadReply: return "LoadReply";
      case MsgType::TidReq: return "TidReq";
      case MsgType::TidReply: return "TidReply";
      case MsgType::Skip: return "Skip";
      case MsgType::Probe: return "Probe";
      case MsgType::ProbeReply: return "ProbeReply";
      case MsgType::Mark: return "Mark";
      case MsgType::Commit: return "Commit";
      case MsgType::Abort: return "Abort";
      case MsgType::WriteBack: return "WriteBack";
      case MsgType::DataReq: return "DataReq";
      case MsgType::FlushData: return "FlushData";
      case MsgType::Inv: return "Inv";
      case MsgType::InvAck: return "InvAck";
      case MsgType::PartialCommit: return "PartialCommit";
      case MsgType::PartialAck: return "PartialAck";
      default: return "?";
    }
}

std::string
Message::toString() const
{
    char buf[160];
    int n = std::snprintf(buf, sizeof(buf),
                          "%s %u->%u addr=%llx tid=%lld",
                          msgTypeName(type), src, dst,
                          (unsigned long long)addr,
                          tid == kInvalidTid ? -1LL : (long long)tid);
    const std::size_t room = sizeof(buf) - static_cast<std::size_t>(n);
    switch (type) {
      case MsgType::LoadReq:
      case MsgType::LoadReply:
        std::snprintf(buf + n, room, " seq=%u", seq);
        break;
      case MsgType::Commit:
      case MsgType::PartialCommit:
        std::snprintf(buf + n, room, " marks=%u", numMarks);
        break;
      case MsgType::Mark:
      case MsgType::Inv:
        std::snprintf(buf + n, room, " words=%llx",
                      (unsigned long long)wordMask);
        break;
      case MsgType::ProbeReply:
        std::snprintf(buf + n, room, " nstid=%lld",
                      nstid == kInvalidTid ? -1LL : (long long)nstid);
        break;
      default:
        break;
    }
    return buf;
}

std::uint32_t
msgBytes(MsgType t, std::uint32_t line_bytes)
{
    switch (t) {
      case MsgType::LoadReply:
      case MsgType::FlushData:
      case MsgType::WriteBack:
        return 16 + line_bytes;
      case MsgType::LoadReq:
      case MsgType::Mark:
      case MsgType::Inv:
      case MsgType::DataReq:
        return 16; // header + address (+ word flags)
      default:
        return 8;  // header + TID (skip/probe/commit/acks)
    }
}

TrafficClass
trafficClassOf(MsgType t)
{
    switch (t) {
      case MsgType::LoadReq:
      case MsgType::LoadReply:
        return TrafficClass::Miss;
      case MsgType::WriteBack:
        return TrafficClass::WriteBack;
      case MsgType::DataReq:
      case MsgType::FlushData:
        return TrafficClass::Shared;
      default:
        return TrafficClass::Overhead;
    }
}

} // namespace tcc
