/**
 * @file
 * One ordered statistics tree, rendered as text, JSON and CSV.
 *
 * The tree is the single schema for every statistic the simulator
 * reports: core/stats_dump.cc builds it once from a finished System,
 * and each output format is a rendering of that one walk. A field
 * added to the tree therefore appears in every format, and no renderer
 * keeps a field list of its own.
 *
 * Node kinds:
 *  - Group:  named children in insertion order (a JSON object)
 *  - List:   Group items (a JSON array of objects)
 *  - Vector: numbers, unsigned or real (a JSON array of numbers; one
 *            column of a time series)
 *  - Uint / Int / Real / Flag / Name: leaves (Int is signed)
 *
 * Rendering rules, one set per format:
 *  - text: one "path value" line per leaf, path = keys joined by '.'.
 *    A List writes "path.count N", then its items under "path.<i>".
 *    A Vector writes all of its values on one line. A Flag is 1 or 0.
 *  - JSON: compact, keys in insertion order, doubles as "%.6g", so a
 *    deterministic run renders byte-identically on every platform.
 *  - CSV: a Group of equal-length Vectors as a table with one column
 *    per Vector and one row per index.
 * Every text path is therefore a JSON path, and every text value the
 * JSON value (bench/validate_stats_text.cmake checks this on CI runs).
 */

#ifndef TCC_OBS_STATS_TREE_HH
#define TCC_OBS_STATS_TREE_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "sim/stats.hh"

namespace tcc {

class StatsNode
{
  public:
    enum class Kind : std::uint8_t {
        Group,
        List,
        Vector,
        Uint,
        Int,
        Real,
        Flag,
        Name,
    };

    /** An empty root Group. */
    StatsNode() = default;

    // --- building -----------------------------------------------------
    // Keys and Name values are not copied: pass string literals (or
    // other strings that outlive the tree). Children live in a vector,
    // so a reference returned below stays valid only until the next
    // child is added to the same parent: fill one child, then start
    // its sibling.

    /** Add a child Group / List / Vector to this Group. */
    StatsNode &group(const char *key) { return add(Kind::Group, key); }
    StatsNode &list(const char *key) { return add(Kind::List, key); }
    StatsNode &vector(const char *key) { return add(Kind::Vector, key); }

    /** Append one Group item to this List. */
    StatsNode &item() { return add(Kind::Group, nullptr); }

    /** Append one value to this Vector. */
    void push(std::uint64_t v) { add(Kind::Uint, nullptr).val.u = v; }
    void pushReal(double v) { add(Kind::Real, nullptr).val.d = v; }

    /** Add a leaf to this Group. */
    void
    num(const char *key, std::uint64_t v)
    {
        add(Kind::Uint, key).val.u = v;
    }

    void
    inum(const char *key, std::int64_t v)
    {
        add(Kind::Int, key).val.i = v;
    }

    void
    real(const char *key, double v)
    {
        add(Kind::Real, key).val.d = v;
    }

    void
    flag(const char *key, bool v)
    {
        add(Kind::Flag, key).val.u = v;
    }

    void
    name(const char *key, const char *v)
    {
        add(Kind::Name, key).val.s = v;
    }

    /** Add the summary Group of @p d: "count", then mean, min, p50,
     *  p90, p99, max and stddev when it holds any sample. */
    void dist(const char *key, const Distribution &d);

    // --- reading ------------------------------------------------------
    Kind kind() const { return kind_; }
    /** Key within the parent Group; null for List and Vector items. */
    const char *key() const { return key_; }
    const std::vector<StatsNode> &children() const { return kids; }

    /** Leaf values; each is valid only for its own Kind. */
    std::uint64_t uintValue() const { return val.u; }
    std::int64_t intValue() const { return val.i; }
    double realValue() const { return val.d; }
    bool flagValue() const { return val.u != 0; }
    const char *nameValue() const { return val.s; }

    /** Child of this Group with key @p key, or null. */
    const StatsNode *find(const char *key) const;

  private:
    StatsNode(Kind kind, const char *key) : key_(key), kind_(kind) {}

    /** Append a child: keyed children go in a Group, unkeyed Groups
     *  in a List and unkeyed Uints / Reals in a Vector. */
    StatsNode &add(Kind kind, const char *key);

    const char *key_ = nullptr;
    Kind kind_ = Kind::Group;
    union {
        std::uint64_t u;
        std::int64_t i;
        double d;
        const char *s;
    } val{0};
    std::vector<StatsNode> kids;
};

/** Write @p root as "path value" lines (rules in the file comment). */
void renderStatsText(const StatsNode &root, std::ostream &os);

/** Write @p root as one line of compact JSON, without a newline. */
void renderStatsJson(const StatsNode &root, std::ostream &os);

/** Write @p table, a Group of equal-length Vectors, as CSV: a header
 *  of the Vector keys, then one row per index. */
void renderStatsCsv(const StatsNode &table, std::ostream &os);

} // namespace tcc

#endif // TCC_OBS_STATS_TREE_HH
