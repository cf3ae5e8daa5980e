/**
 * @file
 * Per-System bump-pointer arena. Every allocation a simulation run
 * performs after construction - hash-table backing stores, event-queue
 * node slabs, cache arrays, commit bookkeeping - comes
 * out of one monotonic arena owned by that System.
 *
 * Why: the sweep engine (core/sweep.hh) runs many independent Systems
 * on concurrent workers. With the global allocator, those runs contend
 * on the malloc arenas and, worse, interleave their allocations so two
 * workers end up bumping counters that share a cache line (false
 * sharing). A per-System arena gives each run one private, contiguous,
 * 64-byte-aligned region: no cross-thread allocator locks, no shared
 * lines, and pointer-bump allocation on the rare growth paths.
 *
 * Design:
 *  - chunked monotonic bump: allocation advances a cursor through the
 *    current chunk; exhausted chunks are retained and a bigger one
 *    (geometric growth, capped) is appended. Individual deallocation
 *    is a no-op - per-run state lives exactly as long as the run.
 *  - reset() rewinds the cursor to the first chunk and keeps the
 *    memory for reuse; under AddressSanitizer the reclaimed bytes are
 *    poisoned so use-after-reset faults immediately.
 *  - a destroyed arena hands its small leading chunks (up to
 *    kPoolChunkBytes each, kPoolBytes in all) to a process-wide pool
 *    behind one mutex, and the next arena that needs a chunk of the
 *    same size takes one back. The next System's construction then
 *    writes to pages that are already mapped, whatever the previous
 *    run freed to the heap. Pooled chunks stay poisoned under ASan.
 *  - ArenaAllocator<T> adapts the arena to the standard allocator
 *    interface. A default-constructed (nullptr) allocator falls back
 *    to ::operator new, so containers in contexts without a System
 *    (unit tests, Stats snapshots) keep working unchanged.
 *
 * Thread confinement: an Arena is NOT thread-safe. It inherits the
 * System confinement invariant (DESIGN.md section 8): one sweep worker
 * owns the System - and therefore its arena - for the run's lifetime.
 * Only the chunk pool is shared between threads, under its lock, and
 * only when a chunk is created or an arena destroyed.
 */

#ifndef TCC_COMMON_ARENA_HH
#define TCC_COMMON_ARENA_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define TCC_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TCC_ARENA_ASAN 1
#endif
#endif

#ifdef TCC_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace tcc {

/** Chunked monotonic bump allocator (see file comment). */
class Arena
{
  public:
    /** Cache-line size every chunk (and its payload) is aligned to. */
    static constexpr std::size_t kAlign = 64;
    /** First chunk payload size; later chunks double up to the cap. */
    static constexpr std::size_t kFirstChunkBytes = std::size_t{256}
                                                    << 10;
    static constexpr std::size_t kMaxChunkBytes = std::size_t{8} << 20;

    explicit Arena(std::size_t first_chunk_bytes = kFirstChunkBytes)
        : nextChunkBytes(roundUp(
              first_chunk_bytes ? first_chunk_bytes : kFirstChunkBytes,
              kAlign))
    {}

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /** Chunks up to this size go to the process-wide pool when their
     *  arena is destroyed ... */
    static constexpr std::size_t kPoolChunkBytes = std::size_t{1} << 20;
    /** ... as long as the pool holds at most this many bytes. */
    static constexpr std::size_t kPoolBytes = std::size_t{8} << 20;

    ~Arena()
    {
        for (Chunk &c : chunks) {
#ifdef TCC_ARENA_ASAN
            __asan_poison_memory_region(c.base, c.bytes);
#endif
            if (c.bytes <= kPoolChunkBytes && givePooled(c.base, c.bytes))
                continue;
#ifdef TCC_ARENA_ASAN
            __asan_unpoison_memory_region(c.base, c.bytes);
#endif
            ::operator delete(c.base, std::align_val_t{kAlign});
        }
    }

    /** Bytes of chunk payload the process-wide pool holds now. */
    static std::size_t pooledBytes();

    /**
     * Allocate @p bytes with the given alignment (a power of two).
     * Never returns nullptr; panics only via std::bad_alloc from the
     * underlying chunk allocation.
     */
    void *
    allocate(std::size_t bytes, std::size_t align)
    {
        assert(align != 0 && (align & (align - 1)) == 0);
        for (;;) {
            const std::uintptr_t p =
                (reinterpret_cast<std::uintptr_t>(cur) + align - 1) &
                ~(static_cast<std::uintptr_t>(align) - 1);
            if (p + bytes <= reinterpret_cast<std::uintptr_t>(end)) {
                std::byte *out = reinterpret_cast<std::byte *>(p);
                liveBytes += bytes + (p - reinterpret_cast<std::uintptr_t>(
                                              cur));
                if (liveBytes > peak)
                    peak = liveBytes;
                cur = out + bytes;
#ifdef TCC_ARENA_ASAN
                __asan_unpoison_memory_region(out, bytes);
#endif
                return out;
            }
            advanceChunk(bytes + align);
        }
    }

    /**
     * Rewind to an empty arena, retaining every chunk for reuse. All
     * previously handed-out pointers become invalid; under ASan the
     * reclaimed memory is poisoned so stale pointers fault.
     */
    void
    reset()
    {
#ifdef TCC_ARENA_ASAN
        for (Chunk &c : chunks)
            __asan_poison_memory_region(c.base, c.bytes);
#endif
        liveBytes = 0;
        if (chunks.empty()) {
            curChunk = 0;
            cur = end = nullptr;
            return;
        }
        curChunk = 0;
        cur = chunks[0].base;
        end = chunks[0].base + chunks[0].bytes;
    }

    struct Stats {
        std::size_t liveBytes = 0;  ///< bytes handed out since reset
        std::size_t peakBytes = 0;  ///< high-water mark of liveBytes
        std::size_t chunkBytes = 0; ///< total payload capacity
        std::size_t chunks = 0;     ///< number of chunks allocated
    };

    Stats
    stats() const
    {
        Stats s;
        s.liveBytes = liveBytes;
        s.peakBytes = peak;
        s.chunks = chunks.size();
        for (const Chunk &c : chunks)
            s.chunkBytes += c.bytes;
        return s;
    }

  private:
    struct Chunk {
        std::byte *base = nullptr;
        std::size_t bytes = 0;
    };

    static std::size_t
    roundUp(std::size_t v, std::size_t align)
    {
        return (v + align - 1) & ~(align - 1);
    }

    /**
     * Make the bump window a chunk that fits @p need bytes: reuse the
     * next retained chunk when it is big enough, else append a new one
     * (geometric size, never below @p need).
     */
    void
    advanceChunk(std::size_t need)
    {
        // Reuse retained chunks (after reset) that can satisfy this
        // request; smaller ones are skipped until the next reset.
        while (curChunk + 1 < chunks.size()) {
            ++curChunk;
            if (chunks[curChunk].bytes >= need) {
                cur = chunks[curChunk].base;
                end = cur + chunks[curChunk].bytes;
                return;
            }
        }
        std::size_t size = nextChunkBytes;
        if (size < need)
            size = roundUp(need, kAlign);
        if (nextChunkBytes < kMaxChunkBytes)
            nextChunkBytes = nextChunkBytes * 2 < kMaxChunkBytes
                                 ? nextChunkBytes * 2
                                 : kMaxChunkBytes;
        std::byte *base = size <= kPoolChunkBytes ? takePooled(size)
                                                  : nullptr;
        if (!base)
            base = static_cast<std::byte *>(
                ::operator new(size, std::align_val_t{kAlign}));
        chunks.push_back(Chunk{base, size});
        curChunk = chunks.size() - 1;
        cur = base;
        end = base + size;
#ifdef TCC_ARENA_ASAN
        // Fresh chunk memory starts poisoned (a pooled one already
        // is); allocate() unpoisons exactly the bytes handed out.
        __asan_poison_memory_region(base, size);
#endif
    }

    /** A pooled chunk of exactly @p bytes (the most recently pooled
     *  one), or nullptr. */
    static std::byte *takePooled(std::size_t bytes);
    /** Pool a chunk unless that would exceed kPoolBytes. */
    static bool givePooled(std::byte *base, std::size_t bytes);

    /// Chunk list in allocation order (reused in order after reset).
    std::vector<Chunk> chunks;
    std::size_t curChunk = 0;
    std::byte *cur = nullptr;
    std::byte *end = nullptr;
    std::size_t nextChunkBytes;
    std::size_t liveBytes = 0;
    std::size_t peak = 0;
};

/**
 * Standard-allocator adapter over Arena. Holds a plain pointer; a
 * nullptr arena falls back to the global heap, so default-constructed
 * containers behave exactly as before. deallocate() on arena memory is
 * a no-op (the arena frees wholesale), which is the right trade for
 * the simulator: per-run containers reserve() once and are reused via
 * clear(), so grow-and-abandon churn is bounded.
 */
template <typename T>
class ArenaAllocator
{
  public:
    using value_type = T;
    using propagate_on_container_copy_assignment = std::true_type;
    using propagate_on_container_move_assignment = std::true_type;
    using propagate_on_container_swap = std::true_type;
    using is_always_equal = std::false_type;

    ArenaAllocator() = default;
    explicit ArenaAllocator(Arena *a) : arena(a) {}

    template <typename U>
    ArenaAllocator(const ArenaAllocator<U> &o) : arena(o.arena)
    {}

    T *
    allocate(std::size_t n)
    {
        const std::size_t bytes = n * sizeof(T);
        if (arena) {
            return static_cast<T *>(
                arena->allocate(bytes, alignof(T)));
        }
        if constexpr (alignof(T) > __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
            return static_cast<T *>(::operator new(
                bytes, std::align_val_t{alignof(T)}));
        } else {
            return static_cast<T *>(::operator new(bytes));
        }
    }

    void
    deallocate(T *p, std::size_t)
    {
        if (arena)
            return; // monotonic: freed wholesale at arena destruction
        if constexpr (alignof(T) > __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
            ::operator delete(p, std::align_val_t{alignof(T)});
        } else {
            ::operator delete(p);
        }
    }

    bool
    operator==(const ArenaAllocator &o) const
    {
        return arena == o.arena;
    }
    bool
    operator!=(const ArenaAllocator &o) const
    {
        return arena != o.arena;
    }

    Arena *arena = nullptr;
};

} // namespace tcc

#endif // TCC_COMMON_ARENA_HH
