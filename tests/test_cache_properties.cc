/**
 * @file
 * Property-style parameterized sweeps over cache geometries: the
 * speculative cache invariants must hold for every combination of line
 * size, associativity, capacity, and tracking granularity.
 *
 * Invariants checked per geometry:
 *   1. fill -> load hits; untouched addresses miss;
 *   2. speculative lines are never evicted (overflow is reported
 *      instead) and commit/abort always empties the write set;
 *   3. the write set reported to the commit engine equals exactly the
 *      set of speculatively stored lines/words;
 *   4. abort discards speculative words, commit retains them as dirty;
 *   5. random operation sequences never corrupt the LRU/valid state
 *      (exercised via a mixed op fuzz loop with model checking).
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "cache/spec_cache.hh"
#include "sim/random.hh"

namespace tcc {
namespace {

struct Geometry {
    std::uint32_t lineBytes;
    std::uint32_t l2Bytes;
    std::uint32_t l2Assoc;
    Granularity gran;
};

std::string
geomName(const ::testing::TestParamInfo<Geometry> &info)
{
    const auto &g = info.param;
    return "line" + std::to_string(g.lineBytes) + "_l2x" +
           std::to_string(g.l2Bytes) + "_a" +
           std::to_string(g.l2Assoc) +
           (g.gran == Granularity::Word ? "_word" : "_line");
}

class CacheGeometry : public ::testing::TestWithParam<Geometry>
{
  protected:
    CacheConfig
    cfg() const
    {
        const auto &g = GetParam();
        CacheConfig c;
        c.lineBytes = g.lineBytes;
        c.l1Bytes = g.lineBytes * 4; // 4 lines, 2-way -> 2 sets
        c.l1Assoc = 2;
        c.l2Bytes = g.l2Bytes;
        c.l2Assoc = g.l2Assoc;
        c.granularity = g.gran;
        return c;
    }
};

TEST_P(CacheGeometry, FillLoadStoreRoundTrip)
{
    SpecCache c(cfg());
    const Addr base = 0x4000;
    ASSERT_TRUE(c.fill(base).ok);
    EXPECT_TRUE(c.load(base).hit);
    EXPECT_TRUE(c.store(base + 4).hit);
    EXPECT_FALSE(c.load(base + 16 * cfg().lineBytes).hit);
}

TEST_P(CacheGeometry, WriteSetMatchesStores)
{
    SpecCache c(cfg());
    std::set<Addr> stored_lines;
    Rng rng(7);
    for (int i = 0; i < 40; ++i) {
        const Addr a = 0x10000 + rng.below(64) * 4;
        if (!c.present(a) && !c.fill(a).ok)
            continue; // overflow under the tiniest geometry
        if (c.store(a).hit)
            stored_lines.insert(c.lineAlign(a));
    }
    std::vector<SpecCache::WriteSetLine> ws;
    c.writeSet(ws);
    EXPECT_EQ(c.setSizes().writeLines, ws.size());
    std::set<Addr> ws_lines;
    for (const auto &l : ws) {
        EXPECT_NE(l.smMask, 0u);
        ws_lines.insert(l.lineAddr);
    }
    EXPECT_EQ(ws_lines, stored_lines);
}

TEST_P(CacheGeometry, CommitEmptiesSpeculativeState)
{
    SpecCache c(cfg());
    Rng rng(9);
    for (int i = 0; i < 20; ++i) {
        const Addr a = 0x20000 + rng.below(32) * cfg().lineBytes;
        if (c.present(a) || c.fill(a).ok) {
            c.load(a);
            c.store(a + 4);
        }
    }
    c.commitSpec(5);
    EXPECT_EQ(c.setSizes().writeLines, 0u);
    EXPECT_EQ(c.setSizes().readLines, 0u);
}

TEST_P(CacheGeometry, AbortEmptiesSpeculativeState)
{
    SpecCache c(cfg());
    Rng rng(11);
    for (int i = 0; i < 20; ++i) {
        const Addr a = 0x30000 + rng.below(32) * cfg().lineBytes;
        if (c.present(a) || c.fill(a).ok) {
            c.load(a);
            if (rng.chance(0.5))
                c.store(a);
        }
    }
    c.abortSpec();
    EXPECT_EQ(c.setSizes().writeLines, 0u);
    EXPECT_EQ(c.setSizes().readLines, 0u);
}

TEST_P(CacheGeometry, SpeculativeLinesSurviveCapacityPressure)
{
    SpecCache c(cfg());
    // Pin one speculative line, then stream many conflicting fills.
    const Addr pinned = 0x50000;
    ASSERT_TRUE(c.fill(pinned).ok);
    c.load(pinned);
    const std::uint32_t sets =
        cfg().l2Bytes / cfg().lineBytes / cfg().l2Assoc;
    for (int i = 1; i <= 64; ++i) {
        const Addr a = pinned + static_cast<Addr>(i) * sets *
                                    cfg().lineBytes;
        c.fill(a); // may overflow; must never evict the pinned line
    }
    EXPECT_TRUE(c.present(pinned));
    EXPECT_NE(c.srMask(pinned), 0u);
}

TEST_P(CacheGeometry, FuzzAgainstReferenceModel)
{
    SpecCache c(cfg());
    Rng rng(13);
    // Reference model of the current transaction's footprint.
    std::set<Addr> model_sm_words;
    const Addr pool = 0x80000;
    const std::uint32_t pool_words = 128;

    for (int step = 0; step < 600; ++step) {
        const Addr a = pool + rng.below(pool_words) * 4;
        const double roll = rng.uniform();
        if (roll < 0.45) {
            auto out = c.load(a);
            if (!out.hit) {
                if (!c.fill(a).ok)
                    break; // overflow: stop fuzzing this geometry
                ASSERT_TRUE(c.load(a).hit);
            }
        } else if (roll < 0.9) {
            auto out = c.store(a);
            if (!out.hit) {
                if (!c.fill(a).ok)
                    break;
                out = c.store(a);
                ASSERT_TRUE(out.hit);
            }
            model_sm_words.insert(a);
        } else {
            c.invalidate(c.lineAlign(a), c.maskFor(a));
            // Invalidation never destroys the transaction's own
            // speculative words.
        }
        // Check: every modeled speculative word is still tracked.
        for (Addr w : model_sm_words) {
            EXPECT_NE(c.smMask(w) & c.maskFor(w), 0u)
                << "lost SM word at " << std::hex << w;
        }
    }
    c.abortSpec();
    EXPECT_EQ(c.setSizes().writeLines, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(Geometry{32, 1024, 4, Granularity::Word},
                      Geometry{32, 1024, 4, Granularity::Line},
                      Geometry{64, 4096, 8, Granularity::Word},
                      Geometry{16, 512, 2, Granularity::Word},
                      Geometry{128, 8192, 4, Granularity::Word},
                      Geometry{32, 2048, 8, Granularity::Line},
                      Geometry{256, 16384, 4, Granularity::Word}),
    geomName);

} // namespace
} // namespace tcc
