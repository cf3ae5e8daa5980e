/**
 * @file
 * Property tests for the packed bitmap structures that replaced
 * element-at-a-time containers on the protocol hot paths:
 *
 *  - SkipVector (the directory's Skip Vector) against a reference
 *    std::deque<bool> model - the representation the seed used - under
 *    randomized set/test/pop sequences;
 *  - the NodeSet operations the commit/violation paths now lean on
 *    (anyBesides, intersects).
 */

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "common/arena.hh"
#include "common/nodeset.hh"
#include "common/skip_vector.hh"
#include "sim/random.hh"

namespace tcc {
namespace {

/** The seed's Skip Vector representation: a deque of retired flags
 *  indexed by offset from the NSTID. */
struct DequeModel {
    std::deque<bool> window;

    bool
    test(std::size_t idx) const
    {
        return idx < window.size() && window[idx];
    }

    void
    set(std::size_t idx)
    {
        if (idx >= window.size())
            window.resize(idx + 1, false);
        window[idx] = true;
    }

    std::size_t
    popLeadingRun()
    {
        std::size_t n = 0;
        while (!window.empty() && window.front()) {
            window.pop_front();
            ++n;
        }
        return n;
    }

    /** Pop @p k offsets one at a time (the invariant checker's old
     *  per-TID loop). */
    std::size_t
    consume(std::size_t k, std::size_t &first_clear)
    {
        first_clear = k;
        std::size_t hit = 0;
        for (std::size_t i = 0; i < k; ++i) {
            const bool b = !window.empty() && window.front();
            if (!window.empty())
                window.pop_front();
            hit += b;
            if (!b && first_clear == k)
                first_clear = i;
        }
        return hit;
    }

    std::size_t
    count() const
    {
        std::size_t n = 0;
        for (bool b : window)
            n += b;
        return n;
    }
};

TEST(SkipVector, StartsEmpty)
{
    SkipVector sv;
    EXPECT_TRUE(sv.empty());
    EXPECT_EQ(sv.count(), 0u);
    EXPECT_FALSE(sv.test(0));
    EXPECT_EQ(sv.popLeadingRun(), 0u);
}

TEST(SkipVector, SetTestPopBasics)
{
    SkipVector sv;
    sv.set(0);
    sv.set(1);
    sv.set(3);
    EXPECT_TRUE(sv.test(0));
    EXPECT_TRUE(sv.test(1));
    EXPECT_FALSE(sv.test(2));
    EXPECT_TRUE(sv.test(3));
    EXPECT_EQ(sv.count(), 3u);

    // The leading run is {0, 1}; offset 3 becomes offset 1.
    EXPECT_EQ(sv.popLeadingRun(), 2u);
    EXPECT_FALSE(sv.test(0));
    EXPECT_TRUE(sv.test(1));
    EXPECT_EQ(sv.count(), 1u);
}

TEST(SkipVector, SetIsIdempotent)
{
    SkipVector sv;
    sv.set(5);
    sv.set(5);
    EXPECT_EQ(sv.count(), 1u);
    EXPECT_EQ(sv.popLeadingRun(), 0u);
    sv.set(0);
    sv.set(1);
    sv.set(2);
    sv.set(3);
    sv.set(4);
    EXPECT_EQ(sv.popLeadingRun(), 6u);
    EXPECT_TRUE(sv.empty());
}

TEST(SkipVector, RunsSpanWordBoundaries)
{
    SkipVector sv;
    // 130 contiguous retirements cross two 64-bit word boundaries.
    for (std::size_t i = 0; i < 130; ++i)
        sv.set(i);
    EXPECT_EQ(sv.popLeadingRun(), 130u);
    EXPECT_TRUE(sv.empty());
}

TEST(SkipVector, MatchesDequeModelRandomized)
{
    Rng rng(20070212); // HPCA 2007 paper week
    SkipVector sv;
    DequeModel model;
    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t what = rng.below(4);
        if (what < 2) {
            // Retire a TID in a window shaped like a real directory's
            // (bounded by processors in flight + skew).
            const std::size_t idx =
                static_cast<std::size_t>(rng.below(200));
            sv.set(idx);
            model.set(idx);
        } else if (what == 2) {
            EXPECT_EQ(sv.popLeadingRun(), model.popLeadingRun());
        } else {
            const std::size_t idx =
                static_cast<std::size_t>(rng.below(256));
            EXPECT_EQ(sv.test(idx), model.test(idx)) << "idx " << idx;
        }
        ASSERT_EQ(sv.count(), model.count()) << "step " << step;
    }
    // Drain whatever is left the way Directory::advance() does.
    while (sv.count() > 0) {
        const std::size_t moved = sv.popLeadingRun();
        ASSERT_EQ(moved, model.popLeadingRun());
        if (moved == 0) {
            sv.set(0);
            model.set(0);
        }
    }
}

TEST(SkipVector, ConsumeReportsFirstClearOffset)
{
    SkipVector sv;
    std::size_t first = 0;
    EXPECT_EQ(sv.consume(5, first), 0u); // empty window: all clear
    EXPECT_EQ(first, 0u);
    for (std::size_t i = 0; i < 150; ++i) {
        if (i != 97)
            sv.set(i);
    }
    EXPECT_EQ(sv.consume(90, first), 90u);
    EXPECT_EQ(first, 90u) << "no clear offset: reports k";
    // Offset 7 is old offset 97; the span crosses a word boundary.
    EXPECT_EQ(sv.consume(60, first), 59u);
    EXPECT_EQ(first, 7u);
    EXPECT_TRUE(sv.empty());
}

TEST(SkipVector, ConsumeMatchesDequeModelRandomized)
{
    Rng rng(2007);
    SkipVector sv;
    DequeModel model;
    for (int step = 0; step < 4000; ++step) {
        // Retire a span ahead of the window - every TID in it, or all
        // but about one in 2..256 - then consume a span that may stop
        // inside it, match it, or overrun it and the window.
        const bool every = rng.below(4) == 0;
        const std::uint64_t miss_one_in = std::uint64_t{2} << rng.below(8);
        const std::size_t fill = static_cast<std::size_t>(rng.below(300));
        for (std::size_t i = 0; i < fill; ++i) {
            if (every || rng.below(miss_one_in) != 0) {
                sv.set(i);
                model.set(i);
            }
        }
        const std::size_t k = static_cast<std::size_t>(
            rng.below(8) == 0 ? rng.below(1000) : rng.below(320));
        std::size_t first = 0, model_first = 0;
        ASSERT_EQ(sv.consume(k, first), model.consume(k, model_first))
            << "step " << step;
        ASSERT_EQ(first, model_first) << "step " << step;
        ASSERT_EQ(sv.count(), model.count()) << "step " << step;
        for (std::size_t idx = 0; idx < 320; ++idx)
            ASSERT_EQ(sv.test(idx), model.test(idx)) << "idx " << idx;
    }
}

TEST(SkipVector, ArenaBackedBehavesTheSame)
{
    Arena arena;
    SkipVector sv(&arena);
    for (std::size_t i = 0; i < 100; i += 2)
        sv.set(i);
    EXPECT_EQ(sv.count(), 50u);
    EXPECT_EQ(sv.popLeadingRun(), 1u);
    EXPECT_GT(arena.stats().liveBytes, 0u);
}

TEST(NodeSetAlgebra, AnyBesides)
{
    NodeSet s(64);
    EXPECT_FALSE(s.anyBesides(3));
    s.set(3);
    // Only the caller itself: no *remote* sharer.
    EXPECT_FALSE(s.anyBesides(3));
    s.set(40);
    EXPECT_TRUE(s.anyBesides(3));
    EXPECT_TRUE(s.anyBesides(40));
    s.clear(40);
    EXPECT_FALSE(s.anyBesides(3));
    // A sharer that is not the caller counts even when alone.
    EXPECT_TRUE(s.anyBesides(7));
}

TEST(NodeSetAlgebra, AnyBesidesMatchesCountDefinition)
{
    Rng rng(7);
    for (int trial = 0; trial < 200; ++trial) {
        NodeSet s(130);
        const int pop = static_cast<int>(rng.below(6));
        for (int i = 0; i < pop; ++i)
            s.set(static_cast<NodeId>(rng.below(130)));
        for (NodeId self = 0; self < 130; ++self) {
            const bool expect =
                s.count() > (s.test(self) ? 1u : 0u);
            ASSERT_EQ(s.anyBesides(self), expect)
                << "trial " << trial << " self " << self;
        }
    }
}

TEST(NodeSetAlgebra, Intersects)
{
    NodeSet a(128), b(128);
    EXPECT_FALSE(a.intersects(b));
    a.set(5);
    a.set(127);
    b.set(64);
    EXPECT_FALSE(a.intersects(b));
    b.set(127);
    EXPECT_TRUE(a.intersects(b));
    EXPECT_TRUE(b.intersects(a));
}

} // namespace
} // namespace tcc
