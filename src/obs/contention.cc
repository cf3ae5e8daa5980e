#include "obs/contention.hh"

#include <algorithm>
#include <ostream>

namespace tcc {

namespace {

constexpr unsigned kVictimBits = 12; // SystemConfig caps procs at 4096

std::uint64_t
edgeKey(Tid writer, NodeId victim)
{
    return (writer << kVictimBits) | victim;
}

} // namespace

ContentionProfiler::ContentionProfiler(std::size_t top_k)
    : topK_(top_k < 1 ? 1 : top_k)
{
}

void
ContentionProfiler::recordConflict(NodeId victim, Tid writer_tid, Addr addr,
                                   bool sr, bool sm, bool aborted,
                                   std::uint64_t wasted_cycles)
{
    ++conflicts_;
    WordStats &s = table[addr];
    s.srConflicts += sr ? 1 : 0;
    s.smConflicts += sm ? 1 : 0;
    if (aborted) {
        ++s.aborts;
        s.wasted += wasted_cycles;
        ++rawEdges[edgeKey(writer_tid, victim)];
    }
}

void
ContentionProfiler::mergeFrom(const ContentionProfiler &other)
{
    for (const auto &[addr, o] : other.table) {
        WordStats &s = table[addr];
        s.srConflicts += o.srConflicts;
        s.smConflicts += o.smConflicts;
        s.aborts += o.aborts;
        s.wasted += o.wasted;
    }
    for (const auto &kv : other.tidOwners)
        tidOwners[kv.first] = kv.second;
    for (const auto &kv : other.rawEdges)
        rawEdges[kv.first] += kv.second;
    conflicts_ += other.conflicts_;
}

std::vector<ContentionProfiler::HotWord>
ContentionProfiler::hotWords() const
{
    std::vector<HotWord> out;
    out.reserve(table.size());
    for (const auto &kv : table)
        out.push_back(HotWord{kv.first, kv.second});
    std::sort(out.begin(), out.end(), [](const HotWord &a, const HotWord &b) {
        if (a.s.weight() != b.s.weight())
            return a.s.weight() > b.s.weight();
        return a.addr < b.addr;
    });
    if (out.size() > topK_)
        out.resize(topK_);
    return out;
}

std::vector<ContentionProfiler::HotWord>
ContentionProfiler::topAborts(std::size_t n) const
{
    std::vector<HotWord> out;
    for (const auto &kv : table)
        if (kv.second.aborts != 0)
            out.push_back(HotWord{kv.first, kv.second});
    std::sort(out.begin(), out.end(), [](const HotWord &a, const HotWord &b) {
        if (a.s.aborts != b.s.aborts)
            return a.s.aborts > b.s.aborts;
        return a.addr < b.addr;
    });
    if (out.size() > n)
        out.resize(n);
    return out;
}

std::vector<ContentionProfiler::Edge>
ContentionProfiler::blameEdges() const
{
    // Resolve writer TIDs to their owning node, folding edges that
    // share a (killer, victim) pair.
    FlatMap<std::uint64_t, std::uint64_t> folded;
    for (const auto &kv : rawEdges) {
        const Tid writer = kv.first >> kVictimBits;
        const NodeId victim =
            static_cast<NodeId>(kv.first & ((1u << kVictimBits) - 1));
        auto it = tidOwners.find(writer);
        const NodeId killer = it != tidOwners.end() ? it->second
                                                    : kInvalidNode;
        folded[(static_cast<std::uint64_t>(killer) << kVictimBits) |
               victim] += kv.second;
    }
    std::vector<Edge> out;
    out.reserve(folded.size());
    for (const auto &kv : folded) {
        Edge e;
        e.killer = static_cast<NodeId>(kv.first >> kVictimBits);
        e.victim = static_cast<NodeId>(kv.first & ((1u << kVictimBits) - 1));
        e.count = kv.second;
        out.push_back(e);
    }
    std::sort(out.begin(), out.end(), [](const Edge &a, const Edge &b) {
        if (a.killer != b.killer)
            return a.killer < b.killer;
        return a.victim < b.victim;
    });
    return out;
}

void
ContentionProfiler::writeDot(std::ostream &os) const
{
    const std::vector<Edge> edges = blameEdges();
    std::uint64_t max_count = 1;
    for (const Edge &e : edges)
        max_count = std::max(max_count, e.count);
    os << "digraph blame {\n"
       << "  // killer proc -> victim proc, label = aborts caused\n"
       << "  rankdir=LR;\n"
       << "  node [shape=circle];\n";
    for (const Edge &e : edges) {
        os << "  ";
        if (e.killer == kInvalidNode)
            os << "\"?\"";
        else
            os << "p" << e.killer;
        os << " -> p" << e.victim << " [label=" << e.count << " penwidth="
           << (1 + (4 * e.count) / max_count) << "];\n";
    }
    os << "}\n";
}

} // namespace tcc
