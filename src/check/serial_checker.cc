#include "check/serial_checker.hh"

#include <algorithm>
#include <cstdio>

namespace tcc {

std::vector<const SerialChecker::Record *>
SerialChecker::tidOrder() const
{
    std::vector<const Record *> order;
    order.reserve(log.size());
    for (const auto &r : log)
        order.push_back(&r);
    std::sort(order.begin(), order.end(),
              [](const Record *a, const Record *b) {
                  return a->tid < b->tid;
              });
    return order;
}

SerialChecker::Result
SerialChecker::verify() const
{
    Result res;
    const std::vector<const Record *> order = tidOrder();

    // TIDs must be unique (the vendor sequence is gap-free but some
    // TIDs are consumed by aborted attempts, so gaps are fine here).
    for (std::size_t i = 1; i < order.size(); ++i) {
        if (order[i]->tid == order[i - 1]->tid) {
            res.ok = false;
            char buf[96];
            std::snprintf(buf, sizeof(buf),
                          "duplicate TID %llu committed twice",
                          (unsigned long long)order[i]->tid);
            res.error = buf;
            return res;
        }
    }

    GlobalStore model;
    model.copyFrom(initial);
    for (const Record *r : order) {
        for (const auto &[addr, seen] : r->reads) {
            const std::uint64_t expect = model.read(addr);
            if (seen != expect) {
                res.ok = false;
                char buf[160];
                std::snprintf(
                    buf, sizeof(buf),
                    "TID %llu (proc %u) read %llx=%llu but serial "
                    "replay expects %llu",
                    (unsigned long long)r->tid, r->proc,
                    (unsigned long long)addr,
                    (unsigned long long)seen,
                    (unsigned long long)expect);
                res.error = buf;
                return res;
            }
        }
        for (const auto &[addr, value] : r->writes)
            model.write(addr, value);
        ++res.txnsChecked;
    }
    return res;
}

void
SerialChecker::replayFinalState(GlobalStore &out) const
{
    out.copyFrom(initial);
    for (const Record *r : tidOrder())
        for (const auto &[addr, value] : r->writes)
            out.write(addr, value);
}

} // namespace tcc
