/**
 * @file
 * Unit tests for the speculative cache hierarchy: SR/SM tracking,
 * write-back triggering, commit/abort semantics, ghost lines,
 * eviction, and overflow.
 */

#include <gtest/gtest.h>

#include "cache/spec_cache.hh"

namespace tcc {
namespace {

CacheConfig
tinyConfig()
{
    CacheConfig cfg;
    cfg.lineBytes = 32;
    cfg.l1Bytes = 256;  // 8 lines, 4-way -> 2 sets
    cfg.l1Assoc = 4;
    cfg.l1Latency = 1;
    cfg.l2Bytes = 1024; // 32 lines, 8-way -> 4 sets
    cfg.l2Assoc = 8;
    cfg.l2Latency = 16;
    return cfg;
}

TEST(SpecCache, LoadMissesWhenEmpty)
{
    SpecCache c(tinyConfig());
    auto out = c.load(0x1000);
    EXPECT_FALSE(out.hit);
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(SpecCache, FillThenLoadHitsAndSetsSr)
{
    SpecCache c(tinyConfig());
    ASSERT_TRUE(c.fill(0x1000).ok);
    auto out = c.load(0x1004);
    EXPECT_TRUE(out.hit);
    EXPECT_EQ(c.srMask(0x1000), WordMask(1) << 1);
    EXPECT_EQ(c.setSizes().readLines, 1u);
}

TEST(SpecCache, FirstAccessIsL2HitThenL1Hit)
{
    SpecCache c(tinyConfig());
    c.fill(0x1000);
    // fill() touches the L1, so the first access is already an L1 hit.
    EXPECT_EQ(c.load(0x1000).latency, 1u);
    EXPECT_EQ(c.load(0x1000).latency, 1u);
}

TEST(SpecCache, StoreSetsSmAndWriteSet)
{
    SpecCache c(tinyConfig());
    c.fill(0x2000);
    auto out = c.store(0x2008);
    EXPECT_TRUE(out.hit);
    EXPECT_FALSE(out.needsWriteBack);
    EXPECT_EQ(c.smMask(0x2000), WordMask(1) << 2);
    // The buffer is overwritten, not appended to.
    std::vector<SpecCache::WriteSetLine> ws(3);
    c.writeSet(ws);
    ASSERT_EQ(ws.size(), 1u);
    EXPECT_EQ(c.setSizes().writeLines, 1u);
    EXPECT_EQ(ws[0].lineAddr, 0x2000u);
    EXPECT_EQ(ws[0].smMask, WordMask(1) << 2);
}

TEST(SpecCache, StoreMissesWithoutTag)
{
    SpecCache c(tinyConfig());
    EXPECT_FALSE(c.store(0x3000).hit);
}

TEST(SpecCache, DirtyLineDemandsWriteBackOnFirstSpecWrite)
{
    SpecCache c(tinyConfig());
    c.fill(0x1000);
    c.store(0x1000);
    c.commitSpec(0); // line is now committed dirty (owned)
    EXPECT_TRUE(c.isDirty(0x1000));

    auto out = c.store(0x1004);
    EXPECT_TRUE(out.needsWriteBack);
    EXPECT_FALSE(c.isDirty(0x1000)); // dirty data handed to memory

    // Second speculative write to the same line: no more write-back.
    EXPECT_FALSE(c.store(0x1008).needsWriteBack);
}

TEST(SpecCache, CommitClearsSpecBitsAndMarksDirty)
{
    SpecCache c(tinyConfig());
    c.fill(0x1000);
    c.load(0x1000);
    c.store(0x1004);
    c.commitSpec(0);
    EXPECT_EQ(c.srMask(0x1000), 0u);
    EXPECT_EQ(c.smMask(0x1000), 0u);
    EXPECT_TRUE(c.isDirty(0x1000));
    EXPECT_EQ(c.setSizes().writeLines, 0u);
    EXPECT_EQ(c.setSizes().readLines, 0u);
}

TEST(SpecCache, AbortDropsSpeculativeWords)
{
    SpecCache c(tinyConfig());
    c.fill(0x1000);
    c.store(0x1004);
    c.abortSpec();
    EXPECT_EQ(c.smMask(0x1000), 0u);
    // The speculatively written word is no longer valid, but the rest
    // of the line still is.
    EXPECT_TRUE(c.load(0x1000).hit);
    EXPECT_FALSE(c.load(0x1004).hit);
}

TEST(SpecCache, AbortInvalidatesSpecOnlyLine)
{
    SpecCache c(tinyConfig());
    c.fill(0x1000);
    c.store(0x1004);
    c.abortSpec();
    // Word 1 was speculative-only: reading it now must miss.
    auto out = c.load(0x1004);
    EXPECT_FALSE(out.hit);
}

TEST(SpecCache, InvalidateReportsSrOverlap)
{
    SpecCache c(tinyConfig());
    c.fill(0x1000);
    c.load(0x1004);
    auto out = c.invalidate(0x1000, WordMask(1) << 1);
    EXPECT_TRUE(out.srOverlap);
}

TEST(SpecCache, InvalidateNoOverlapOnDisjointWords)
{
    SpecCache c(tinyConfig());
    c.fill(0x1000);
    c.load(0x1004); // word 1
    auto out = c.invalidate(0x1000, WordMask(1) << 3);
    EXPECT_FALSE(out.srOverlap);
    // Ghost: SR bits survive the invalidation.
    EXPECT_EQ(c.srMask(0x1000), WordMask(1) << 1);
    // A later invalidation hitting word 1 still sees the read set.
    auto out2 = c.invalidate(0x1000, WordMask(1) << 1);
    EXPECT_TRUE(out2.srOverlap);
}

TEST(SpecCache, InvalidateKeepsOwnSpeculativeWords)
{
    SpecCache c(tinyConfig());
    c.fill(0x1000);
    c.store(0x1004);
    c.invalidate(0x1000, WordMask(1) << 0);
    // Our own speculative word is still there.
    EXPECT_TRUE(c.load(0x1004).hit);
    // The invalidated (committed) word is gone.
    EXPECT_FALSE(c.load(0x1000).hit);
}

TEST(SpecCache, InvalidateUnknownLineIsNoop)
{
    SpecCache c(tinyConfig());
    auto out = c.invalidate(0x9000, ~WordMask(0));
    EXPECT_FALSE(out.srOverlap);
    EXPECT_FALSE(out.smOverlap);
}

TEST(SpecCache, FlushLineClearsDirtyKeepsGhost)
{
    SpecCache c(tinyConfig());
    c.fill(0x1000);
    c.store(0x1000);
    c.commitSpec(0);
    // New transaction reads the line, then the directory requests it.
    c.load(0x1004);
    EXPECT_TRUE(c.flushLine(0x1000));
    EXPECT_FALSE(c.isDirty(0x1000));
    EXPECT_EQ(c.srMask(0x1000), WordMask(1) << 1); // ghost SR kept
    EXPECT_FALSE(c.flushLine(0x1000));             // nothing left
}

TEST(SpecCache, EvictionPrefersNonSpeculativeVictims)
{
    auto cfg = tinyConfig();
    SpecCache c(cfg);
    // Fill one full set (4 sets, so stride = 4 * 32 = 128 bytes).
    const Addr stride = 128;
    for (unsigned i = 0; i < cfg.l2Assoc; ++i)
        ASSERT_TRUE(c.fill(0x10000 + i * stride).ok);
    // Make way 0's line speculative.
    c.load(0x10000);
    // Fill a conflicting line: must evict a non-speculative way.
    auto out = c.fill(0x10000 + cfg.l2Assoc * stride);
    ASSERT_TRUE(out.ok);
    EXPECT_TRUE(c.present(0x10000)); // speculative line survived
}

TEST(SpecCache, OverflowWhenAllWaysSpeculative)
{
    auto cfg = tinyConfig();
    SpecCache c(cfg);
    const Addr stride = 128;
    for (unsigned i = 0; i < cfg.l2Assoc; ++i) {
        ASSERT_TRUE(c.fill(0x10000 + i * stride).ok);
        c.load(0x10000 + i * stride);
    }
    auto out = c.fill(0x10000 + cfg.l2Assoc * stride);
    EXPECT_FALSE(out.ok);
    EXPECT_TRUE(out.overflow);
    EXPECT_EQ(c.stats().overflows, 1u);
}

TEST(SpecCache, DirtyEvictionReportsAddress)
{
    auto cfg = tinyConfig();
    SpecCache c(cfg);
    const Addr stride = 128;
    c.fill(0x10000);
    c.store(0x10000);
    c.commitSpec(0); // dirty
    for (unsigned i = 1; i < cfg.l2Assoc; ++i)
        c.fill(0x10000 + i * stride);
    // Victim selection is LRU among non-speculative lines; the dirty
    // line is the oldest.
    auto out = c.fill(0x10000 + cfg.l2Assoc * stride);
    ASSERT_TRUE(out.ok);
    EXPECT_TRUE(out.evictedDirty);
    EXPECT_EQ(out.evictedAddr, 0x10000u);
}

TEST(SpecCache, LineGranularityUsesFullMask)
{
    auto cfg = tinyConfig();
    cfg.granularity = Granularity::Line;
    SpecCache c(cfg);
    c.fill(0x1000);
    c.load(0x1004);
    EXPECT_EQ(c.srMask(0x1000), c.fullMask());
}

TEST(SpecCache, WordGranularityOwnWriteDoesNotSetSr)
{
    SpecCache c(tinyConfig());
    c.fill(0x1000);
    c.store(0x1004);
    c.load(0x1004); // reading our own speculative word
    EXPECT_EQ(c.srMask(0x1000), 0u);
}

TEST(SpecCache, GhostRefillRestoresData)
{
    SpecCache c(tinyConfig());
    c.fill(0x1000);
    c.load(0x1004);
    c.invalidate(0x1000, ~WordMask(0)); // ghost with SR
    EXPECT_FALSE(c.load(0x1000).hit);
    ASSERT_TRUE(c.fill(0x1000).ok);     // refill in place
    EXPECT_TRUE(c.load(0x1000).hit);
    // SR from before is still tracked.
    EXPECT_NE(c.srMask(0x1000) & (WordMask(1) << 1), 0u);
}

TEST(SpecCache, MaskForRespectesGranularity)
{
    SpecCache w(tinyConfig());
    EXPECT_EQ(w.maskFor(0x1008), WordMask(1) << 2);
    auto cfg = tinyConfig();
    cfg.granularity = Granularity::Line;
    SpecCache l(cfg);
    EXPECT_EQ(l.maskFor(0x1008), l.fullMask());
}

TEST(SpecCache, StatsCountAccesses)
{
    SpecCache c(tinyConfig());
    c.load(0x1000);              // miss
    c.fill(0x1000);
    c.load(0x1000);              // hit
    c.store(0x1004);             // hit
    EXPECT_EQ(c.stats().loads, 2u);
    EXPECT_EQ(c.stats().stores, 1u);
    EXPECT_EQ(c.stats().misses, 1u);
    EXPECT_EQ(c.stats().fills, 1u);
}

TEST(SpecCache, WayIsReusedAfterInvalidate)
{
    auto cfg = tinyConfig();
    SpecCache c(cfg);
    const Addr stride = 128; // one L2 set
    // Way 0: committed dirty data, later invalidated; ways 1-7 hold
    // speculative writes, so only the freed way can take a new line.
    c.fill(0x10000);
    c.store(0x10000);
    c.commitSpec(0);
    for (unsigned i = 1; i < cfg.l2Assoc; ++i) {
        ASSERT_TRUE(c.fill(0x10000 + i * stride).ok);
        c.store(0x10000 + i * stride);
    }
    c.invalidate(0x10000, c.fullMask());
    EXPECT_FALSE(c.present(0x10000));

    auto out = c.fill(0x10000 + cfg.l2Assoc * stride);
    ASSERT_TRUE(out.ok);
    EXPECT_FALSE(out.evictedDirty); // invalidate dropped the dirty data
    EXPECT_TRUE(c.present(0x10000 + cfg.l2Assoc * stride));
    for (unsigned i = 1; i < cfg.l2Assoc; ++i)
        EXPECT_TRUE(c.present(0x10000 + i * stride)) << "way " << i;
    EXPECT_EQ(c.setSizes().writeLines, cfg.l2Assoc - 1);
}

TEST(SpecCache, WayIsReusedAfterAbort)
{
    auto cfg = tinyConfig();
    cfg.granularity = Granularity::Line; // a store covers the line
    SpecCache c(cfg);
    const Addr stride = 128;
    for (unsigned i = 0; i < cfg.l2Assoc; ++i)
        ASSERT_TRUE(c.fill(0x10000 + i * stride).ok);
    for (unsigned i = 1; i < cfg.l2Assoc; ++i)
        c.load(0x10000 + i * stride);
    // Way 0 is the most recently used line, and written only
    // speculatively: the abort leaves it no valid word and frees it.
    c.store(0x10000);
    c.abortSpec();
    EXPECT_FALSE(c.present(0x10000));
    EXPECT_FALSE(c.load(0x10000).hit);

    // The refill takes the free way; evicting would take way 1 (LRU).
    ASSERT_TRUE(c.fill(0x10000 + cfg.l2Assoc * stride).ok);
    for (unsigned i = 1; i <= cfg.l2Assoc; ++i)
        EXPECT_TRUE(c.present(0x10000 + i * stride)) << "line " << i;
}

TEST(SpecCache, L1DropThenRefillUsesTheFreedWay)
{
    // L1: 2 sets x 4 ways; lines 64 bytes apart share an L1 set.
    SpecCache c(tinyConfig());
    for (Addr a : {0x0, 0x40, 0x80, 0xC0})
        ASSERT_TRUE(c.fill(a).ok);
    for (Addr a : {0x0, 0x40, 0x80, 0xC0})
        EXPECT_EQ(c.load(a).latency, 1u) << a;

    // Invalidating 0x80 drops its L1 tag; refilling it must land in
    // that empty way rather than evict the LRU line (0x0).
    c.commitSpec(0);
    c.invalidate(0x80, c.fullMask());
    EXPECT_FALSE(c.load(0x80).hit);
    ASSERT_TRUE(c.fill(0x80).ok);
    for (Addr a : {0x0, 0x40, 0x80, 0xC0})
        EXPECT_EQ(c.load(a).latency, 1u) << a;

    // A fifth line evicts the LRU one (0x0) from the L1 only: the next
    // access is an L2 hit that reinstalls it, then L1 hits again.
    ASSERT_TRUE(c.fill(0x100).ok);
    EXPECT_EQ(c.load(0x0).latency, 16u);
    EXPECT_EQ(c.load(0x0).latency, 1u);
}

TEST(SpecCache, L2SetsAreAllocatedOnFirstFill)
{
    // Table 2: 512 KB, 8-way, 32-byte lines = 2048 sets. Host memory
    // follows the sets a run fills, not the configured capacity.
    const CacheConfig cfg;
    const std::uint32_t sets = cfg.l2Bytes / cfg.lineBytes / cfg.l2Assoc;
    Arena arena;
    SpecCache c(cfg, &arena);
    const std::size_t empty = arena.stats().peakBytes;
    EXPECT_LT(empty, std::size_t{64} << 10);
    EXPECT_FALSE(c.load(0x40).hit); // an untouched set is a miss
    EXPECT_FALSE(c.present(0x40));

    // S distinct sets, each filled with more lines than it has ways,
    // add at most S * l2Assoc line records (64 bytes each, every set
    // aligned to a 64-byte host line).
    constexpr std::uint32_t kSets = 40;
    const Addr setStride = Addr(sets) * cfg.lineBytes;
    for (std::uint32_t s = 0; s < kSets; ++s) {
        for (std::uint32_t w = 0; w < 2 * cfg.l2Assoc; ++w)
            ASSERT_TRUE(c.fill(Addr(s) * cfg.lineBytes + w * setStride).ok);
    }
    const std::size_t grown = arena.stats().peakBytes - empty;
    EXPECT_LE(grown, std::size_t{kSets} * (cfg.l2Assoc * 64 + 64));

    // Replacement inside an allocated set still evicts LRU-first.
    EXPECT_FALSE(c.present(0));
    EXPECT_TRUE(c.present(Addr(2 * cfg.l2Assoc - 1) * setStride));
}

/**
 * Run one script over 11 lines: lines 0-7 (by @p addr) are filled and
 * made speculative in turn, so a set that holds all eight grows
 * 1 -> 2 -> 4 -> 8 ways while its earlier ways carry SR/SM bits; lines
 * 8-10 are filled afterwards. Lines 0-3 are committed dirty first, so
 * flushLine and the first speculative write see committed data.
 */
template <typename AddrOf>
void
runGrowthScript(SpecCache &c, AddrOf addr, bool commit)
{
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(c.fill(addr(i)).ok);
        EXPECT_TRUE(c.store(addr(i) + 4).hit);
    }
    c.commitSpec(5);
    EXPECT_TRUE(c.load(addr(0) + 8).hit);
    EXPECT_TRUE(c.store(addr(1) + 12).needsWriteBack);
    for (int i = 4; i < 8; ++i) {
        ASSERT_TRUE(c.fill(addr(i)).ok);
        if (i % 2 == 0)
            EXPECT_TRUE(c.load(addr(i) + 4 * i).hit);
        else
            EXPECT_TRUE(c.store(addr(i)).hit);
        EXPECT_TRUE(c.load(addr(i - 4) + 16).hit);
    }
    for (int i = 8; i < 11; ++i) {
        ASSERT_TRUE(c.fill(addr(i)).ok);
        EXPECT_TRUE(c.store(addr(i) + 8).hit);
    }
    c.invalidate(addr(4), ~WordMask(0)); // read-set line: a ghost
    c.invalidate(addr(9), WordMask(1) << 2);
    EXPECT_TRUE(c.flushLine(addr(2)));
    EXPECT_TRUE(c.flushLine(addr(3)));
    if (commit)
        c.commitSpec(9);
    else
        c.abortSpec();
}

class SetGrowth : public ::testing::TestWithParam<bool>
{};

TEST_P(SetGrowth, GrownSetMatchesOneLineSets)
{
    // 32 sets of 8 ways. Lines 0-7 of `grown` share set 0; its
    // outgrown blocks are then reused by lines 8-10 (sets 1-3). Every
    // line of `flat` has a set of its own, which never grows.
    CacheConfig cfg = tinyConfig();
    cfg.l2Bytes = 8192;
    const Addr stride = Addr(cfg.l2Bytes / cfg.l2Assoc);
    const auto grown_addr = [&](int i) {
        return i < 8 ? i * stride : Addr(i - 7) * cfg.lineBytes;
    };
    const auto flat_addr = [&](int i) { return Addr(i) * cfg.lineBytes; };
    SpecCache grown(cfg), flat(cfg);
    runGrowthScript(grown, grown_addr, GetParam());
    runGrowthScript(flat, flat_addr, GetParam());

    for (int i = 0; i < 11; ++i) {
        SCOPED_TRACE(i);
        const Addr g = grown_addr(i), f = flat_addr(i);
        EXPECT_EQ(grown.present(g), flat.present(f));
        EXPECT_EQ(grown.isDirty(g), flat.isDirty(f));
        EXPECT_EQ(grown.lineCommitTid(g), flat.lineCommitTid(f));
        EXPECT_EQ(grown.srMask(g), flat.srMask(f));
        EXPECT_EQ(grown.smMask(g), flat.smMask(f));
        EXPECT_EQ(grown.load(g + 4).hit, flat.load(f + 4).hit);
    }
    EXPECT_EQ(grown.stats().fills, flat.stats().fills);
    EXPECT_EQ(grown.stats().ghostsCreated, flat.stats().ghostsCreated);
    EXPECT_EQ(grown.stats().overflows, 0u);
    EXPECT_EQ(flat.stats().overflows, 0u);
    // Committed lines stay dirty under the last commit's TID.
    EXPECT_EQ(flat.lineCommitTid(flat_addr(0)), 5u);
    EXPECT_EQ(flat.isDirty(flat_addr(1)), GetParam());
}

INSTANTIATE_TEST_SUITE_P(CommitOrAbort, SetGrowth, ::testing::Bool(),
                         [](const auto &info) {
                             return info.param ? "Commit" : "Abort";
                         });

TEST(SpecCache, OneLineSetsTakeOneHostLinePair)
{
    // A set holding one line stores its 64-byte tag row and a single
    // Line record: 128 bytes, not the 448 of all eight ways.
    const CacheConfig cfg;
    Arena arena;
    SpecCache c(cfg, &arena);
    const std::size_t empty = arena.stats().peakBytes;
    constexpr std::uint32_t kSets = 40;
    for (std::uint32_t s = 0; s < kSets; ++s)
        ASSERT_TRUE(c.fill(Addr(s) * cfg.lineBytes).ok);
    EXPECT_LE(arena.stats().peakBytes - empty, std::size_t{kSets} * 128);
}

} // namespace
} // namespace tcc
