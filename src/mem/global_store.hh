/**
 * @file
 * Functional memory state. The timing model moves addresses and
 * abstract "data" through caches and the network; the functional model
 * here holds the actual committed word values so that workloads compute
 * real results and the serializability checker can verify them.
 *
 * TCC semantics map naturally onto a timing/functional split: a load
 * observes (a) the transaction's own speculative write buffer, else
 * (b) the last *committed* value; a commit atomically publishes the
 * transaction's write set. Violations force re-execution, at which
 * point loads re-observe the newer committed state - exactly the
 * behaviour the protocol's invalidations enforce in hardware.
 *
 * Storage is block-paged: words live in 64-word (256-byte address
 * range) blocks, each with a written-bit mask, placed in the owner's
 * arena (a System's or a PDES domain's) or, for a standalone store such
 * as the serial checker's, one heap allocation each; a FlatMap from
 * block number to block finds them. Workloads touch runs of
 * consecutive words, so an access lands on a block table slot and a
 * block that neighbouring words share instead of hashing every word
 * to its own random slot.
 */

#ifndef TCC_MEM_GLOBAL_STORE_HH
#define TCC_MEM_GLOBAL_STORE_HH

#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <vector>

#include "common/arena.hh"
#include "common/flat_map.hh"
#include "common/types.hh"

namespace tcc {

/**
 * Committed word values, keyed by word-aligned address. The simulator's
 * functional memory and the serial checker's replay model.
 */
class GlobalStore
{
  public:
    /** One write() record: word-aligned address, value, and the tick
     *  the write was published at (0 without an attached clock). */
    struct WriteRec {
        Addr addr = 0;
        std::uint64_t value = 0;
        Tick tick = 0;
    };

    /** Records of every write() since the log was attached, in
     *  execution order (ticks nondecreasing when a clock is attached);
     *  PDES domains broadcast these at window barriers, merged across
     *  domains by (tick, domain id), to keep replicas convergent
     *  (sim/domain.hh). */
    using WriteLog = std::vector<WriteRec>;

    /** Word size used for alignment (bytes). */
    static constexpr Addr kWordBytes = 4;
    /** Words per block; a block covers kBlockWords * kWordBytes bytes. */
    static constexpr unsigned kBlockWords = 64;

    static Addr wordAlign(Addr a) { return a & ~(kWordBytes - 1); }

    /** @param arena holds the blocks and the block table (nullptr =
     *  the global heap, one allocation per block). */
    explicit GlobalStore(Arena *arena = nullptr)
        : arena(arena), blocks(arena)
    {}

    ~GlobalStore()
    {
        if (!arena)
            for (auto &kv : blocks)
                delete kv.second;
    }

    GlobalStore(const GlobalStore &) = delete;
    GlobalStore &operator=(const GlobalStore &) = delete;

    /** Read the committed value of the word at @p addr (0 if untouched). */
    std::uint64_t
    read(Addr addr) const
    {
        const Block *b = lookup(addr >> kBlockShift);
        return b ? b->words[wordIndex(addr)] : 0;
    }

    /** Publish a committed value. */
    void
    write(Addr addr, std::uint64_t value)
    {
        const Addr a = wordAlign(addr);
        apply(a, value);
        if (writeLog != nullptr)
            writeLog->push_back(
                WriteRec{a, value, clock != nullptr ? *clock : 0});
    }

    /** Write without logging (replica log replay; @p addr must already
     *  be word-aligned, as log records are). */
    void
    apply(Addr addr, std::uint64_t value)
    {
        Block &b = blockFor(addr >> kBlockShift);
        const unsigned i = wordIndex(addr);
        const std::uint64_t bit = std::uint64_t{1} << i;
        used += (b.written & bit) == 0;
        b.written |= bit;
        b.words[i] = value;
    }

    /** Record every subsequent write() into @p log (nullptr detaches). */
    void setWriteLog(WriteLog *log) { writeLog = log; }

    /** Tag write-log records with *@p now at write() time (PDES
     *  domains pass EventQueue::nowRef(); nullptr tags 0). The tick is
     *  what lets the barrier merge order replica updates by
     *  (tick, writer domain) instead of writer domain alone. */
    void setClock(const Tick *now) { clock = now; }

    /** Replace the contents with a copy of @p other (replica seeding).
     *  Blocks already held are zeroed and reused, not abandoned. */
    void
    copyFrom(const GlobalStore &other)
    {
        for (auto &kv : blocks)
            *kv.second = Block{};
        for (const auto &kv : other.blocks)
            std::memcpy(&blockFor(kv.first), kv.second, sizeof(Block));
        used = other.used;
    }

    /** Visit every written word as fn(addr, value), block by block in
     *  unspecified order (ascending within a block). */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (const auto &kv : blocks) {
            const Block &b = *kv.second;
            for (std::uint64_t m = b.written; m != 0; m &= m - 1) {
                const unsigned i =
                    static_cast<unsigned>(__builtin_ctzll(m));
                fn((kv.first << kBlockShift) | (Addr{i} * kWordBytes),
                   b.words[i]);
            }
        }
    }

    /** Number of distinct words ever written. */
    std::size_t footprint() const { return used; }

    /**
     * Order-independent digest of the committed image: each (addr,
     * value) pair is mixed into a 64-bit word and the words are
     * combined commutatively, so two stores holding the same mapping
     * hash equal regardless of iteration order. Used by the timing
     * ablation gates (flat vs tree multicast must produce identical
     * final memory).
     */
    std::uint64_t
    fingerprint() const
    {
        auto mix = [](std::uint64_t x) {
            // splitmix64 finalizer: full avalanche per record.
            x += 0x9e3779b97f4a7c15ULL;
            x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
            x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
            return x ^ (x >> 31);
        };
        std::uint64_t h = mix(used);
        forEach([&](Addr a, std::uint64_t v) { h += mix(mix(a) ^ v); });
        return h;
    }

  private:
    /** One block of words; words never written read as 0. */
    struct Block {
        std::uint64_t words[kBlockWords] = {};
        /** Bit i: word i was written (footprint and fingerprint). */
        std::uint64_t written = 0;
    };
    static_assert(kBlockWords == 64, "written mask is one 64-bit word");
    static constexpr unsigned kBlockShift = 8; // log2(64 words * 4 B)

    static unsigned
    wordIndex(Addr addr)
    {
        return static_cast<unsigned>(addr / kWordBytes) &
               (kBlockWords - 1);
    }

    /** The block numbered @p key, or nullptr. */
    const Block *
    lookup(Addr key) const
    {
        auto it = blocks.find(key);
        return it == blocks.end() ? nullptr : it->second;
    }

    /** The block numbered @p key, placing a zeroed one if absent. */
    Block &
    blockFor(Addr key)
    {
        Block *&slot = blocks[key];
        if (slot == nullptr) {
            static_assert(std::is_trivially_destructible_v<Block>);
            slot = arena ? ::new (arena->allocate(sizeof(Block),
                                                  Arena::kAlign)) Block{}
                         : new Block{};
        }
        return *slot;
    }

    /// Holds the blocks and the block table (nullptr = the heap).
    Arena *arena;
    /** Block number (addr >> kBlockShift) -> block. */
    FlatMap<Addr, Block *> blocks;
    /** Words written (set bits across every block's mask). */
    std::size_t used = 0;
    /** Optional write log (PDES replica synchronization). */
    WriteLog *writeLog = nullptr;
    /** Optional tick source for write-log records (see setClock). */
    const Tick *clock = nullptr;
};

} // namespace tcc

#endif // TCC_MEM_GLOBAL_STORE_HH
