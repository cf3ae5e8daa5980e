/**
 * @file
 * SkipVector: the directory's Skip Vector (paper Figure 4) as a packed
 * bit ring. Bit i records that TID (nowServing + i) has retired -
 * skipped, aborted, or committed. The previous representation was a
 * std::deque<bool> popped one element at a time; every Skip/Commit/
 * Abort handler runs this structure, so it is stored as 64-bit words
 * in a ring buffer:
 *
 *  - membership (double-retire detection) is one bit test;
 *  - recording a retirement is one bit set;
 *  - advancing the NSTID consumes the leading run of set bits with
 *    count-trailing-ones word operations instead of a per-TID loop;
 *  - the invariant checker keeps its own window of the same shape and
 *    consumes a known span at once (consume()), learning from one
 *    word operation per 64 TIDs whether any of them was never retired.
 *
 * The window only needs to span the TIDs in flight at one directory
 * (bounded by the processor count plus network skew), so the ring
 * stays tiny; growth re-lays the bits into a larger power-of-two ring
 * and is effectively a one-time event per run.
 */

#ifndef TCC_COMMON_SKIP_VECTOR_HH
#define TCC_COMMON_SKIP_VECTOR_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/arena.hh"

namespace tcc {

/** Window of retired-TID bits relative to the NSTID (see file docs). */
class SkipVector
{
  public:
    SkipVector() = default;

    /** Back the ring with @p arena (nullptr = global heap). */
    explicit SkipVector(Arena *arena)
        : words(ArenaAllocator<std::uint64_t>(arena))
    {}

    /** @return true iff offset @p idx (from the NSTID) is retired. */
    bool
    test(std::size_t idx) const
    {
        if (idx >= capBits)
            return false;
        const std::size_t pos = (head + idx) & (capBits - 1);
        return (words[pos >> 6] >> (pos & 63)) & 1;
    }

    /** Record offset @p idx as retired (grows the window as needed).
     *  Idempotent: re-setting a retired offset is a no-op. */
    void
    set(std::size_t idx)
    {
        if (idx >= capBits)
            grow(idx + 1);
        const std::size_t pos = (head + idx) & (capBits - 1);
        const std::uint64_t bit = std::uint64_t{1} << (pos & 63);
        if (words[pos >> 6] & bit)
            return;
        words[pos >> 6] |= bit;
        ++population;
    }

    /**
     * Consume the leading run of set bits: clears them, slides the
     * window forward past them, and returns the run length (the number
     * of TIDs the NSTID advances by).
     */
    std::size_t
    popLeadingRun()
    {
        std::size_t n = 0;
        while (population > 0) {
            const std::size_t wi = head >> 6;
            const unsigned b = static_cast<unsigned>(head & 63);
            const std::uint64_t w = words[wi] >> b;
            const unsigned avail = 64 - b;
            unsigned run = static_cast<unsigned>(std::countr_one(w));
            if (run == 0)
                break;
            const unsigned take = run < avail ? run : avail;
            const std::uint64_t mask =
                take == 64 ? ~std::uint64_t{0}
                           : ((std::uint64_t{1} << take) - 1) << b;
            words[wi] &= ~mask;
            head = (head + take) & (capBits - 1);
            n += take;
            population -= take;
            if (run < avail)
                break; // the run ended inside this word
        }
        return n;
    }

    /**
     * Consume offsets [0, @p k) whether or not they are set: clear
     * them and slide the window forward by @p k, one word at a time.
     * Offsets past the window count as clear. @return the number of
     * set bits consumed; @p first_clear receives the lowest clear
     * offset below @p k, or @p k when every one was set.
     */
    std::size_t
    consume(std::size_t k, std::size_t &first_clear)
    {
        first_clear = k;
        const std::size_t span = k < capBits ? k : capBits;
        std::size_t hit = 0;
        for (std::size_t done = 0; done < span;) {
            const std::size_t wi = head >> 6;
            const unsigned b = static_cast<unsigned>(head & 63);
            const std::size_t room = 64 - b;
            const std::size_t take =
                room < span - done ? room : span - done;
            const std::uint64_t mask =
                (take == 64 ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << take) - 1)
                << b;
            const std::uint64_t w = words[wi] & mask;
            if (w != mask && first_clear == k)
                first_clear = done + std::countr_one(w >> b);
            hit += static_cast<std::size_t>(std::popcount(w));
            words[wi] &= ~mask;
            head = (head + take) & (capBits - 1);
            done += take;
        }
        if (span < k && first_clear == k)
            first_clear = span;
        population -= hit;
        return hit;
    }

    /** Number of retired bits currently recorded. */
    std::size_t count() const { return population; }

    bool empty() const { return population == 0; }

    /** Window capacity in bits (diagnostics). */
    std::size_t windowBits() const { return capBits; }

  private:
    void
    grow(std::size_t min_bits)
    {
        std::size_t new_cap = capBits ? capBits * 2 : 64;
        while (new_cap < min_bits)
            new_cap *= 2;
        WordVec fresh(new_cap / 64, 0, words.get_allocator());
        // Re-lay the window: logical offset i moves to bit i.
        for (std::size_t i = 0; i < capBits; ++i) {
            if (test(i))
                fresh[i >> 6] |= std::uint64_t{1} << (i & 63);
        }
        words = std::move(fresh);
        head = 0;
        capBits = new_cap;
    }

    using WordVec =
        std::vector<std::uint64_t, ArenaAllocator<std::uint64_t>>;

    WordVec words;
    std::size_t capBits = 0;    ///< ring capacity in bits (power of 2)
    std::size_t head = 0;       ///< ring bit position of offset 0
    std::size_t population = 0; ///< number of set bits
};

} // namespace tcc

#endif // TCC_COMMON_SKIP_VECTOR_HH
