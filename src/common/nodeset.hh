/**
 * @file
 * NodeSet: a size-generic bit set over node IDs. Used for the
 * per-processor Sharing and Writing vectors (Figure 1b of the paper),
 * and - since the bitmap set-algebra work - for the commit engine's
 * per-directory bookkeeping (marks-done, validated, early-answer
 * membership). Directory sharers lists (Figure 4) are NodeSpans over
 * words stored after each directory entry, with the same operations.
 *
 * Storage is hybrid: systems of up to kInlineNodes (256) nodes - every
 * configuration the paper evaluates, and then some - live in an inline
 * array of 64-bit words (no heap, no arena), so assignment is a word
 * copy and membership / emptiness / population checks compile to
 * single AND / OR / POPCNT instructions. Larger systems (the 1024-node
 * scaling sweeps) switch to a wide word array drawn from the owning
 * System's arena at construction time - still a flat popcount bitmap,
 * just not inline - so the per-event hot path never allocates in
 * either mode. Iteration uses count-trailing-zeros over each word, so
 * forEach visits members in increasing node order - call sites that
 * emit protocol messages rely on that for deterministic emission.
 *
 * There is deliberately no fatal() capacity check here anymore:
 * SystemConfig::validate() rejects unsupported node counts at config
 * time (see core/system.cc), which is where a misconfiguration should
 * fail.
 */

#ifndef TCC_COMMON_NODESET_HH
#define TCC_COMMON_NODESET_HH

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/arena.hh"
#include "common/types.hh"

namespace tcc {

/**
 * Set algebra over a node bitmap: the members NodeSet owns and NodeSpan
 * views share one implementation. @p D supplies capacity() and
 * words() (the active word array).
 */
template <typename D>
class NodeBits
{
  public:
    /** Add @p n to the set. */
    void
    set(NodeId n)
    {
        assert(n < derived().capacity());
        derived().words()[n >> 6] |= (std::uint64_t{1} << (n & 63));
    }

    /** Remove @p n from the set. */
    void
    clear(NodeId n)
    {
        assert(n < derived().capacity());
        derived().words()[n >> 6] &= ~(std::uint64_t{1} << (n & 63));
    }

    /** Remove every node from the set. */
    void
    clearAll()
    {
        std::uint64_t *w = derived().words();
        for (std::size_t i = 0; i < wordCount(); ++i)
            w[i] = 0;
    }

    /** @return true iff @p n is in the set. */
    bool
    test(NodeId n) const
    {
        assert(n < derived().capacity());
        return (derived().words()[n >> 6] >> (n & 63)) & 1;
    }

    /** @return true iff the set is empty. */
    bool
    empty() const
    {
        const std::uint64_t *w = derived().words();
        for (std::size_t i = 0; i < wordCount(); ++i)
            if (w[i])
                return false;
        return true;
    }

    /** Number of nodes in the set. */
    std::uint32_t
    count() const
    {
        const std::uint64_t *w = derived().words();
        std::uint32_t c = 0;
        for (std::size_t i = 0; i < wordCount(); ++i)
            c += static_cast<std::uint32_t>(
                __builtin_popcountll(w[i]));
        return c;
    }

    /**
     * @return true iff the set contains any member other than @p self.
     * Word algebra for the directory's remote-sharer test: mask out
     * self's bit and OR the words - no per-member iteration.
     */
    bool
    anyBesides(NodeId self) const
    {
        const std::uint64_t *w = derived().words();
        std::uint64_t acc = 0;
        const std::size_t sw = self >> 6;
        for (std::size_t i = 0; i < wordCount(); ++i) {
            std::uint64_t word = w[i];
            if (i == sw)
                word &= ~(std::uint64_t{1} << (self & 63));
            acc |= word;
        }
        return acc != 0;
    }

    /** Invoke @p fn for every member, in increasing node order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        const std::uint64_t *w = derived().words();
        for (std::size_t wi = 0; wi < wordCount(); ++wi) {
            std::uint64_t word = w[wi];
            while (word) {
                const int bit = __builtin_ctzll(word);
                fn(static_cast<NodeId>(wi * 64 + bit));
                word &= word - 1;
            }
        }
    }

    /** Collect the members into a vector (mostly for tests). */
    std::vector<NodeId>
    toVector() const
    {
        std::vector<NodeId> v;
        forEach([&](NodeId n) { v.push_back(n); });
        return v;
    }

  protected:
    static std::size_t
    wordCountFor(std::uint32_t nodes)
    {
        return (nodes + std::uint32_t{63}) >> 6;
    }

    std::size_t
    wordCount() const
    {
        return wordCountFor(derived().capacity());
    }

  private:
    D &derived() { return static_cast<D &>(*this); }
    const D &derived() const { return static_cast<const D &>(*this); }
};

/**
 * A fixed-capacity bit set over node IDs with iteration support.
 *
 * The capacity is set at construction (the number of nodes in the
 * system) and never changes, mirroring a hardware bit vector.
 */
class NodeSet : public NodeBits<NodeSet>
{
  public:
    /** Largest system the inline (allocation-free) storage holds. */
    static constexpr std::uint32_t kInlineNodes = 256;
    static constexpr std::size_t kInlineWords = kInlineNodes / 64;

    NodeSet() = default;

    /**
     * Construct an empty set able to hold nodes [0, num_nodes).
     * Capacities beyond kInlineNodes draw their word array from
     * @p arena (nullptr falls back to the heap - tests, snapshots).
     */
    explicit NodeSet(std::uint32_t num_nodes, Arena *arena = nullptr)
        : numNodes(num_nodes),
          wide(wordCountFor(num_nodes) > kInlineWords
                   ? wordCountFor(num_nodes)
                   : 0,
               0, ArenaAllocator<std::uint64_t>(arena))
    {}

    /** Number of node IDs this set can hold. */
    std::uint32_t capacity() const { return numNodes; }

    /** @return true iff this set and @p o share a member (AND test). */
    bool
    intersects(const NodeSet &o) const
    {
        const std::uint64_t *a = words();
        const std::uint64_t *b = o.words();
        std::uint64_t acc = 0;
        const std::size_t n = wordCount() < o.wordCount()
                                  ? wordCount()
                                  : o.wordCount();
        for (std::size_t i = 0; i < n; ++i)
            acc |= a[i] & b[i];
        return acc != 0;
    }

    /** OR every member of @p o into this set (capacity unchanged). */
    void
    merge(const NodeSet &o)
    {
        std::uint64_t *a = words();
        const std::uint64_t *b = o.words();
        const std::size_t n = wordCount() < o.wordCount()
                                  ? wordCount()
                                  : o.wordCount();
        for (std::size_t i = 0; i < n; ++i)
            a[i] |= b[i];
    }

    bool
    operator==(const NodeSet &o) const
    {
        if (numNodes != o.numNodes)
            return false;
        const std::uint64_t *a = words();
        const std::uint64_t *b = o.words();
        for (std::size_t i = 0; i < wordCount(); ++i)
            if (a[i] != b[i])
                return false;
        return true;
    }

  private:
    friend class NodeBits<NodeSet>;

    /** Active word array: inline for <= kInlineNodes, else wide. */
    std::uint64_t *
    words()
    {
        return wide.empty() ? inlineWords : wide.data();
    }
    const std::uint64_t *
    words() const
    {
        return wide.empty() ? inlineWords : wide.data();
    }

    std::uint32_t numNodes = 0;
    std::uint64_t inlineWords[kInlineWords] = {};
    /// Engaged only beyond kInlineNodes; arena-backed, sized once at
    /// construction (ArenaAllocator propagates on copy/move assign, so
    /// re-assigning a set keeps its arena).
    std::vector<std::uint64_t, ArenaAllocator<std::uint64_t>> wide;
};

/**
 * A node bitmap stored elsewhere: the directory keeps each line's
 * sharers list right after its entry, so an entry owns no container.
 * A span aliases its words; copying it copies the view, not the set.
 */
class NodeSpan : public NodeBits<NodeSpan>
{
  public:
    NodeSpan(std::uint64_t *words, std::uint32_t num_nodes)
        : bits(words), numNodes(num_nodes)
    {}

    /** Number of 64-bit words a bitmap of @p num_nodes bits takes. */
    static std::size_t
    wordsFor(std::uint32_t num_nodes)
    {
        return wordCountFor(num_nodes);
    }

    std::uint32_t capacity() const { return numNodes; }

  private:
    friend class NodeBits<NodeSpan>;

    std::uint64_t *words() const { return bits; }

    std::uint64_t *bits;
    std::uint32_t numNodes;
};

} // namespace tcc

#endif // TCC_COMMON_NODESET_HH
