/**
 * @file
 * Unit tests for the per-System arena (common/arena.hh): alignment
 * guarantees, chunk growth, reset-and-reuse, the stats surface, and
 * the ArenaAllocator adapter (including its nullptr fallback and the
 * propagation traits the container conversions rely on), and the
 * process-wide pool that hands a destroyed arena's leading chunks to
 * the next arena.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/arena.hh"
#include "common/flat_map.hh"

namespace tcc {
namespace {

bool
alignedTo(const void *p, std::size_t align)
{
    return (reinterpret_cast<std::uintptr_t>(p) & (align - 1)) == 0;
}

TEST(Arena, RespectsRequestedAlignment)
{
    Arena a;
    for (std::size_t align : {1u, 2u, 8u, 16u, 64u, 128u}) {
        // Offset the cursor by an odd amount first so the alignment
        // actually has to do work.
        a.allocate(3, 1);
        void *p = a.allocate(32, align);
        EXPECT_TRUE(alignedTo(p, align)) << "align=" << align;
    }
}

TEST(Arena, AllocationsDoNotOverlap)
{
    Arena a;
    char *p = static_cast<char *>(a.allocate(100, 8));
    char *q = static_cast<char *>(a.allocate(100, 8));
    std::memset(p, 0xaa, 100);
    std::memset(q, 0x55, 100);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(static_cast<unsigned char>(p[i]), 0xaa);
}

TEST(Arena, GrowsByAppendingChunks)
{
    Arena a(/*first_chunk_bytes=*/1024);
    EXPECT_EQ(a.stats().chunks, 0u);
    a.allocate(512, 8);
    EXPECT_EQ(a.stats().chunks, 1u);
    // Exceed the first chunk: a second (larger) chunk appears.
    a.allocate(1024, 8);
    const Arena::Stats s = a.stats();
    EXPECT_EQ(s.chunks, 2u);
    EXPECT_GE(s.chunkBytes, 1024u + 1024u);
}

TEST(Arena, OversizedRequestGetsDedicatedChunk)
{
    Arena a(/*first_chunk_bytes=*/1024);
    const std::size_t huge = Arena::kMaxChunkBytes + 4096;
    void *p = a.allocate(huge, 64);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(alignedTo(p, 64));
    // The whole allocation must be writable.
    std::memset(p, 0, huge);
    EXPECT_GE(a.stats().chunkBytes, huge);
}

TEST(Arena, StatsTrackLiveAndPeak)
{
    Arena a;
    EXPECT_EQ(a.stats().liveBytes, 0u);
    a.allocate(100, 1);
    a.allocate(200, 1);
    const Arena::Stats before = a.stats();
    EXPECT_GE(before.liveBytes, 300u);
    EXPECT_GE(before.peakBytes, before.liveBytes);

    a.reset();
    const Arena::Stats after = a.stats();
    EXPECT_EQ(after.liveBytes, 0u);
    // Peak survives reset; chunk memory is retained for reuse.
    EXPECT_EQ(after.peakBytes, before.peakBytes);
    EXPECT_EQ(after.chunks, before.chunks);
}

TEST(Arena, ResetReusesTheSameMemory)
{
    Arena a;
    void *first = a.allocate(64, 64);
    a.reset();
    void *again = a.allocate(64, 64);
    // Monotonic rewind: the first post-reset allocation lands exactly
    // where the first pre-reset allocation did. (Under ASan this also
    // proves reset() unpoisons-on-reallocate cleanly.)
    EXPECT_EQ(first, again);
    std::memset(again, 0x5a, 64);
}

TEST(Arena, ResetReusesRetainedOverflowChunks)
{
    Arena a(/*first_chunk_bytes=*/1024);
    a.allocate(900, 8);
    a.allocate(4096, 8); // forces chunk 2
    const std::size_t chunks_before = a.stats().chunks;
    a.reset();
    a.allocate(900, 8);
    a.allocate(4096, 8); // must fit in the retained chunk 2
    EXPECT_EQ(a.stats().chunks, chunks_before);
}

TEST(ArenaAllocator, NullptrFallsBackToGlobalHeap)
{
    // A default-constructed allocator must behave like std::allocator:
    // this is what keeps default-constructed containers (Stats
    // members, unit-test locals) working.
    std::vector<int, ArenaAllocator<int>> v;
    for (int i = 0; i < 1000; ++i)
        v.push_back(i);
    EXPECT_EQ(v.size(), 1000u);
    EXPECT_EQ(v[999], 999);
}

TEST(ArenaAllocator, VectorDrawsFromArena)
{
    Arena a;
    const std::size_t live0 = a.stats().liveBytes;
    std::vector<int, ArenaAllocator<int>> v{ArenaAllocator<int>(&a)};
    v.reserve(1000);
    EXPECT_GE(a.stats().liveBytes, live0 + 1000 * sizeof(int));
}

TEST(ArenaAllocator, EqualityComparesArenaIdentity)
{
    Arena a, b;
    ArenaAllocator<int> pa(&a), pa2(&a), pb(&b), none;
    EXPECT_EQ(pa, pa2);
    EXPECT_NE(pa, pb);
    EXPECT_NE(pa, none);
    // Rebind preserves the arena.
    ArenaAllocator<long> rebound(pa);
    EXPECT_EQ(rebound.arena, &a);
}

TEST(ArenaAllocator, FlatMapOnArenaMatchesDefault)
{
    Arena a;
    FlatMap<std::uint64_t, std::uint64_t> plain;
    FlatMap<std::uint64_t, std::uint64_t> backed(&a);
    for (std::uint64_t k = 0; k < 500; ++k) {
        plain[k * 977] = k;
        backed[k * 977] = k;
    }
    EXPECT_EQ(plain.size(), backed.size());
    for (std::uint64_t k = 0; k < 500; ++k) {
        ASSERT_TRUE(backed.contains(k * 977));
        EXPECT_EQ(backed[k * 977], k);
    }
    EXPECT_GT(a.stats().liveBytes, 0u);
}

TEST(ArenaPool, NextArenaGetsTheLeadingChunkBack)
{
    void *first = nullptr;
    {
        Arena a;
        first = a.allocate(64, Arena::kAlign); // the chunk's base
    }
    Arena b;
    EXPECT_EQ(b.allocate(64, Arena::kAlign), first);
}

TEST(ArenaPool, HoldsAtMostItsBound)
{
    {
        // Each arena grows a 256 KiB, a 512 KiB and a 1 MiB chunk
        // (1.75 MiB), so eight of them offer more than the pool keeps.
        std::vector<std::unique_ptr<Arena>> arenas;
        for (int i = 0; i < 8; ++i) {
            arenas.push_back(std::make_unique<Arena>());
            for (std::size_t kib : {200, 400, 900})
                arenas.back()->allocate(kib << 10, 64);
            ASSERT_EQ(arenas.back()->stats().chunks, 3u);
        }
    }
    EXPECT_LE(Arena::pooledBytes(), Arena::kPoolBytes);
    // Full up to the last chunk that did not fit.
    EXPECT_GT(Arena::pooledBytes(),
              Arena::kPoolBytes - Arena::kPoolChunkBytes);
}

TEST(ArenaPool, ThreadsShareThePool)
{
    // Sweep workers build and destroy Systems concurrently; the pool's
    // lock is the only shared state (run under TSan in the sanitizer
    // gate).
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([t] {
            for (int i = 0; i < 50; ++i) {
                Arena a;
                std::memset(a.allocate(1000, 64), t + i, 1000);
                a.allocate(300 << 10, 64);
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    EXPECT_LE(Arena::pooledBytes(), Arena::kPoolBytes);
}

#ifdef TCC_ARENA_ASAN
TEST(ArenaPool, PooledChunkStaysPoisoned)
{
    char *p = nullptr;
    {
        Arena a;
        p = static_cast<char *>(a.allocate(64, 64));
        p[0] = 1;
    }
    // Pooled, not freed: the read is a use-after-poison report, not a
    // heap-use-after-free one.
    EXPECT_DEATH(
        {
            volatile char c = p[0];
            (void)c;
        },
        "use-after-poison");
}
#endif

} // namespace
} // namespace tcc
