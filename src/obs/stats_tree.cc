#include "obs/stats_tree.hh"

#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <string>

namespace tcc {

StatsNode &
StatsNode::add(Kind kind, const char *key)
{
    assert(key != nullptr
               ? kind_ == Kind::Group
               : (kind_ == Kind::List && kind == Kind::Group) ||
                     (kind_ == Kind::Vector &&
                      (kind == Kind::Uint || kind == Kind::Real)));
    kids.push_back(StatsNode(kind, key));
    return kids.back();
}

void
StatsNode::dist(const char *key, const Distribution &d)
{
    StatsNode &g = group(key);
    g.num("count", d.count());
    if (d.count() == 0)
        return;
    g.real("mean", d.mean());
    g.real("min", d.min());
    g.real("p50", d.percentile(50));
    g.real("p90", d.percentile(90));
    g.real("p99", d.percentile(99));
    g.real("max", d.max());
    g.real("stddev", d.stddev());
}

const StatsNode *
StatsNode::find(const char *key) const
{
    for (const StatsNode &k : kids) {
        if (k.key_ != nullptr && std::strcmp(k.key_, key) == 0)
            return &k;
    }
    return nullptr;
}

namespace {

/** A numeric leaf as text: integers exactly, doubles as "%.6g". */
void
writeNumber(std::ostream &os, const StatsNode &n)
{
    char buf[40];
    if (n.kind() == StatsNode::Kind::Real)
        std::snprintf(buf, sizeof(buf), "%.6g", n.realValue());
    else if (n.kind() == StatsNode::Kind::Int)
        std::snprintf(buf, sizeof(buf), "%" PRId64, n.intValue());
    else
        std::snprintf(buf, sizeof(buf), "%" PRIu64, n.uintValue());
    os << buf;
}

void
textNode(const StatsNode &n, const std::string &path, std::ostream &os)
{
    using Kind = StatsNode::Kind;
    const auto &kids = n.children();
    switch (n.kind()) {
      case Kind::Group:
        for (const StatsNode &k : kids)
            textNode(k, path.empty() ? k.key() : path + "." + k.key(), os);
        return;
      case Kind::List:
        os << path << ".count " << kids.size() << '\n';
        for (std::size_t i = 0; i < kids.size(); ++i)
            textNode(kids[i], path + "." + std::to_string(i), os);
        return;
      case Kind::Vector:
        os << path;
        for (const StatsNode &k : kids) {
            os << ' ';
            writeNumber(os, k);
        }
        os << '\n';
        return;
      case Kind::Flag:
        os << path << ' ' << (n.flagValue() ? 1 : 0) << '\n';
        return;
      case Kind::Name:
        os << path << ' ' << n.nameValue() << '\n';
        return;
      case Kind::Uint:
      case Kind::Int:
      case Kind::Real:
        os << path << ' ';
        writeNumber(os, n);
        os << '\n';
        return;
    }
}

/** Keys and Name values are known identifiers; no escaping needed. */
void
jsonNode(const StatsNode &n, std::ostream &os)
{
    using Kind = StatsNode::Kind;
    const auto &kids = n.children();
    switch (n.kind()) {
      case Kind::Group:
        os << '{';
        for (std::size_t i = 0; i < kids.size(); ++i) {
            if (i != 0)
                os << ',';
            os << '"' << kids[i].key() << "\":";
            jsonNode(kids[i], os);
        }
        os << '}';
        return;
      case Kind::List:
      case Kind::Vector:
        os << '[';
        for (std::size_t i = 0; i < kids.size(); ++i) {
            if (i != 0)
                os << ',';
            jsonNode(kids[i], os);
        }
        os << ']';
        return;
      case Kind::Flag:
        os << (n.flagValue() ? "true" : "false");
        return;
      case Kind::Name:
        os << '"' << n.nameValue() << '"';
        return;
      case Kind::Uint:
      case Kind::Int:
      case Kind::Real:
        writeNumber(os, n);
        return;
    }
}

} // namespace

void
renderStatsText(const StatsNode &root, std::ostream &os)
{
    textNode(root, "", os);
}

void
renderStatsJson(const StatsNode &root, std::ostream &os)
{
    jsonNode(root, os);
}

void
renderStatsCsv(const StatsNode &table, std::ostream &os)
{
    const auto &cols = table.children();
    for (std::size_t c = 0; c < cols.size(); ++c) {
        assert(cols[c].kind() == StatsNode::Kind::Vector);
        os << (c != 0 ? "," : "") << cols[c].key();
    }
    os << '\n';
    const std::size_t rows = cols.empty() ? 0 : cols[0].children().size();
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols.size(); ++c) {
            assert(cols[c].children().size() == rows && "ragged table");
            if (c != 0)
                os << ',';
            writeNumber(os, cols[c].children()[r]);
        }
        os << '\n';
    }
}

} // namespace tcc
