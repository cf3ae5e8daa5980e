#include "obs/metrics.hh"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <ostream>

#include "obs/stats_tree.hh"

namespace tcc {

namespace {

/** First epoch boundary at or above tick 0, saturating at kTickMax. */
Tick
saturatingAdd(Tick a, Tick b)
{
    return a > kTickMax - b ? kTickMax : a + b;
}

} // namespace

MetricsSampler::MetricsSampler(Tick epoch_len)
    : epochLen(epoch_len < 1 ? 1 : epoch_len), epochEnd(epochLen)
{
}

void
MetricsSampler::addProbe(const char *name, Kind kind, Merge merge,
                         std::function<std::uint64_t()> fn)
{
    assert(total == 0 && "probes must be registered before sampling");
    probes.push_back(Probe{name, kind, merge, std::move(fn), 0});
}

int
MetricsSampler::probeIndex(const char *name) const
{
    for (std::size_t p = 0; p < probes.size(); ++p) {
        if (std::strcmp(probes[p].name, name) == 0)
            return static_cast<int>(p);
    }
    return -1;
}

void
MetricsSampler::closeEpoch()
{
    for (Probe &pr : probes) {
        const std::uint64_t cur = pr.fn();
        series.push_back(pr.kind == Kind::Delta ? cur - pr.last : cur);
        pr.last = cur;
    }
    ++total;
}

void
MetricsSampler::closeUpTo(Tick next)
{
    // An empty queue reports kTickMax; the tail closes via finish().
    if (next == kTickMax)
        return;
    while (next >= epochEnd && epochEnd != kTickMax) {
        closeEpoch();
        epochEnd = saturatingAdd(epochEnd, epochLen);
    }
}

void
MetricsSampler::finish(Tick final_tick)
{
    if (finished)
        return;
    finished = true;
    closeUpTo(final_tick);
    // One final (possibly partial) epoch containing final_tick. Every
    // PDES domain finishes with the same tick, so all end up with the
    // same closed() count - the merge precondition.
    closeEpoch();
    epochEnd = saturatingAdd(epochEnd, epochLen);
}

void
MetricsSampler::adoptMerged(const std::vector<const MetricsSampler *> &parts)
{
    assert(!parts.empty());
    const std::size_t np = probes.size();
    total = parts[0]->total;
    finished = true;
    for (const MetricsSampler *part : parts) {
        assert(part->probes.size() == np && "schema mismatch");
        assert(part->total == total && "unequal epoch counts");
        (void)part;
    }
    series.clear();
    for (std::size_t r = 0; r < total; ++r) {
        for (std::size_t p = 0; p < np; ++p) {
            std::uint64_t acc = parts[0]->at(r, p);
            for (std::size_t d = 1; d < parts.size(); ++d) {
                const std::uint64_t v = parts[d]->at(r, p);
                switch (probes[p].merge) {
                  case Merge::Sum:
                    acc += v;
                    break;
                  case Merge::Min:
                    acc = std::min(acc, v);
                    break;
                  case Merge::Max:
                    acc = std::max(acc, v);
                    break;
                }
            }
            series.push_back(acc);
        }
    }
}

void
addMetricsSeries(const MetricsSampler &m, StatsNode &series)
{
    StatsNode &epoch = series.vector("epoch");
    for (std::size_t r = 0; r < m.rows(); ++r)
        epoch.push(r);
    StatsNode &start = series.vector("start_tick");
    for (std::size_t r = 0; r < m.rows(); ++r)
        start.push(r * m.epochLength());
    for (std::size_t p = 0; p < m.probeCount(); ++p) {
        StatsNode &col = series.vector(m.probeName(p));
        for (std::size_t r = 0; r < m.rows(); ++r)
            col.push(m.at(r, p));
    }
    const int issued = m.probeIndex("tids_issued");
    const int nstid = m.probeIndex("nstid_min");
    if (issued < 0 || nstid < 0)
        return;
    StatsNode &lag = series.vector("nstid_lag");
    for (std::size_t r = 0; r < m.rows(); ++r) {
        const std::uint64_t hi = m.at(r, static_cast<std::size_t>(issued));
        const std::uint64_t lo = m.at(r, static_cast<std::size_t>(nstid));
        lag.push(hi > lo ? hi - lo : 0);
    }
}

void
writeMetricsCsv(const MetricsSampler &m, std::ostream &os)
{
    StatsNode series;
    addMetricsSeries(m, series);
    renderStatsCsv(series, os);
}

} // namespace tcc
