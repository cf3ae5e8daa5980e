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
    EXPECT_EQ(c.readSetLines(), 1u);
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
    EXPECT_EQ(c.writeSetLines(), 1u);
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
    EXPECT_EQ(c.writeSetLines(), 0u);
    EXPECT_EQ(c.readSetLines(), 0u);
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
    EXPECT_EQ(c.writeSetLines(), cfg.l2Assoc - 1);
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

} // namespace
} // namespace tcc
