#include "check/serial_checker.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

namespace tcc {

void
SerialChecker::record(Tid tid, NodeId proc, Log reads, Log writes)
{
    if (tid < released.size() && released[tid]) {
        fail(tid, "TID %llu committed after it was released",
             (unsigned long long)tid);
    } else if (tid < next) {
        fail(tid, "duplicate TID %llu committed twice",
             (unsigned long long)tid);
    } else {
        if (window.size() <= tid - next)
            window.resize(tid - next + 1);
        Slot &s = window[tid - next];
        if (s.committed) {
            s.duplicate = true;
        } else {
            s.committed = true;
            s.proc = proc;
            s.reads = std::move(reads);
            s.writes = std::move(writes);
            pendingPeak = std::max(pendingPeak, ++pending);
            drain();
            return;
        }
    }
    recycle(reads);
    recycle(writes);
}

void
SerialChecker::release(Tid tid)
{
    // A TID that already committed keeps its record.
    if (tid < next || (tid - next < window.size() &&
                       window[tid - next].committed))
        return;
    if (released.size() <= tid)
        released.resize(tid + 1);
    released[tid] = true;
    drain();
}

SerialChecker::Log
SerialChecker::recycledLog()
{
    if (spare.empty())
        return {};
    Log log = std::move(spare.back());
    spare.pop_back();
    return log;
}

void
SerialChecker::recycle(Log &log)
{
    if (log.capacity() == 0)
        return;
    log.clear();
    spare.push_back(std::move(log));
}

void
SerialChecker::drain()
{
    for (;;) {
        if (!window.empty() && window.front().committed) {
            Slot &s = window.front();
            replay(next, s);
            recycle(s.reads);
            recycle(s.writes);
        } else if (!(next < released.size() && released[next])) {
            return;
        }
        if (!window.empty())
            window.pop_front();
        ++next;
    }
}

void
SerialChecker::settle() const
{
    for (const Slot &s : window) {
        if (s.committed)
            replay(next, s);
        ++next;
    }
    window.clear();
}

void
SerialChecker::replay(Tid tid, const Slot &s) const
{
    --pending;
    if (tid < failTid) {
        bool ok = true;
        for (const auto &[addr, seen] : s.reads) {
            const std::uint64_t expect = model.read(addr);
            if (seen != expect) {
                fail(tid,
                     "TID %llu (proc %u) read %llx=%llu but serial "
                     "replay expects %llu",
                     (unsigned long long)tid, s.proc,
                     (unsigned long long)addr, (unsigned long long)seen,
                     (unsigned long long)expect);
                ok = false;
                break;
            }
        }
        if (ok && s.duplicate) {
            fail(tid, "duplicate TID %llu committed twice",
                 (unsigned long long)tid);
        } else if (ok) {
            ++checked;
        }
    }
    for (const auto &[addr, value] : s.writes)
        model.write(addr, value);
}

void
SerialChecker::fail(Tid tid, const char *fmt, ...) const
{
    if (tid >= failTid)
        return;
    char buf[160];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    failTid = tid;
    error = buf;
    // A failure behind the frontier: every TID below it has settled,
    // so the ones that committed are those not released.
    if (tid < next) {
        const auto upto = released.begin() +
                          std::min<std::size_t>(tid, released.size());
        checked = tid - std::count(released.begin(), upto, true);
    }
}

SerialChecker::Result
SerialChecker::verify() const
{
    settle();
    Result res;
    res.ok = failTid == kInvalidTid;
    res.error = error;
    res.txnsChecked = checked;
    return res;
}

void
SerialChecker::replayFinalState(GlobalStore &out) const
{
    settle();
    out.copyFrom(model);
}

} // namespace tcc
