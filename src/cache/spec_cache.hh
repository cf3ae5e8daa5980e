/**
 * @file
 * Speculative private cache hierarchy (paper Figure 1b).
 *
 * Each processor owns a two-level private hierarchy:
 *  - The L2 holds all protocol state: per-word valid bits, per-word
 *    speculatively-read (SR) and speculatively-modified (SM) bits, and
 *    a per-line dirty (D) bit supporting the write-back protocol. The
 *    L2 is inclusive of the L1.
 *  - The L1 is a timing filter only (a tag array deciding 1-cycle vs
 *    L2-latency hits); all coherence/speculation state lives in the L2
 *    entry. The paper tracks SR/SM at all levels; collapsing the state
 *    into the inclusive L2 is behaviourally equivalent and documented
 *    in DESIGN.md.
 *
 * "Ghost" lines: when a line that the current transaction has
 * speculatively read is invalidated or flushed without causing a
 * violation, the tag and SR bits are retained with zero valid bits.
 * Later invalidations can then still be matched against the read set -
 * dropping the SR bits would silently miss conflicts. This corresponds
 * to per-word valid bits in the paper's cache.
 */

#ifndef TCC_CACHE_SPEC_CACHE_HH
#define TCC_CACHE_SPEC_CACHE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/arena.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace tcc {

/** Geometry/latency parameters for the private hierarchy (Table 2). */
struct CacheConfig {
    std::uint32_t lineBytes = 32;
    std::uint32_t l1Bytes = 32 * 1024;
    std::uint32_t l1Assoc = 4;
    Tick l1Latency = 1;
    std::uint32_t l2Bytes = 512 * 1024;
    std::uint32_t l2Assoc = 8;
    Tick l2Latency = 16;
    Granularity granularity = Granularity::Word;
};

/** Per-word flag mask within one line. */
using WordMask = std::uint64_t;

/**
 * The speculative cache hierarchy of one processor.
 *
 * This class is purely local state + timing: it never talks to the
 * network. The processor drives it and reacts to its outcomes (e.g.,
 * sending a WriteBack when a dirty line is speculatively written for
 * the first time in a transaction).
 */
class SpecCache
{
  public:
    /** @param arena backs the tag/state arrays (nullptr = a private
     *  arena owned by this cache). */
    explicit SpecCache(const CacheConfig &cfg, Arena *arena = nullptr);

    /** Number of 4-byte words per line. */
    std::uint32_t wordsPerLine() const { return lineWords; }

    /** Line-align an address. */
    Addr lineAlign(Addr a) const { return a & ~Addr(config.lineBytes - 1); }

    /** Bit mask covering the word containing @p a (or the whole line
     *  under line granularity). */
    WordMask maskFor(Addr a) const;

    /** Full-line mask. */
    WordMask
    fullMask() const
    {
        return lineWords >= 64 ? ~WordMask(0)
                               : ((WordMask(1) << lineWords) - 1);
    }

    // ------------------------------------------------------------------
    // Processor-side accesses
    // ------------------------------------------------------------------

    struct LoadOutcome {
        bool hit = false;       ///< word data present
        Tick latency = 0;       ///< access latency when hit
    };

    /**
     * Speculative load. On a hit, sets the SR bit(s) for the word and
     * registers the line in the transaction's read set. On a miss the
     * caller must fetch the line (fill()) and retry.
     */
    LoadOutcome load(Addr addr);

    struct StoreOutcome {
        bool hit = false;           ///< line tag present (store applied)
        bool needsWriteBack = false;///< committed-dirty data must be
                                    ///< written back before this first
                                    ///< speculative write
        Tid writeBackTid = kInvalidTid; ///< TID that committed the
                                        ///< dirty data (tags the WB)
        Tick latency = 0;
    };

    /**
     * Speculative store (write-allocate: the line must be present; on a
     * tag miss the caller fetches first). Sets SM and valid bits. When
     * the line holds committed dirty data and this is the transaction's
     * first speculative write to it, reports needsWriteBack and clears
     * the dirty bit - the caller emits the WriteBack message (paper
     * Section 3.1: "We check the dirty bit on the first speculative
     * write...").
     */
    StoreOutcome store(Addr addr);

    struct FillOutcome {
        bool ok = false;          ///< line inserted
        bool overflow = false;    ///< every candidate way is speculative
        bool evictedDirty = false;///< a committed dirty line was evicted
        Addr evictedAddr = 0;     ///< its address (WriteBack needed)
        Tid evictedTid = kInvalidTid; ///< TID that committed the data
    };

    /**
     * Insert the line containing @p addr after a remote fill. May evict
     * a non-speculative victim (reporting a dirty write-back), or
     * report overflow when every way in the set carries speculative
     * state that cannot be displaced.
     */
    FillOutcome fill(Addr addr);

    // ------------------------------------------------------------------
    // Transaction boundary operations
    // ------------------------------------------------------------------

    /** One speculatively modified line of the current transaction. */
    struct WriteSetLine {
        Addr lineAddr;
        WordMask smMask;
    };

    /** Overwrite @p out with the current write set (for Mark
     *  messages); callers keep @p out to reuse its capacity. */
    void writeSet(std::vector<WriteSetLine> &out) const;

    /** Write- and read-set sizes in lines, counted in one walk. */
    struct SetSizes {
        std::uint32_t writeLines = 0;
        std::uint32_t readLines = 0;
    };
    SetSizes setSizes() const;

    /**
     * Commit the current transaction's speculative state: SM words
     * become committed dirty data (this processor is now the owner
     * until write-back), all SR/SM bits clear. @p tid tags the dirty
     * lines so later write-backs can be matched against the
     * directory's per-line commit TID (race elimination).
     * @p make_dirty is false under write-through commit: the data went
     * to memory with the commit, so the lines stay clean.
     */
    void commitSpec(Tid tid, bool make_dirty = true);

    /**
     * Abort: discard speculatively written words (their valid bits
     * drop), clear all SR/SM bits.
     */
    void abortSpec();

    // ------------------------------------------------------------------
    // External (directory-initiated) operations
    // ------------------------------------------------------------------

    struct InvOutcome {
        bool srOverlap = false; ///< invalidated words intersect the
                                ///< current transaction's read set
        bool smOverlap = false; ///< ... or its write set (stat only)
    };

    /**
     * Invalidation from a committing transaction. Drops the valid bits
     * for the whole line but retains SR/SM bits (ghost) so the caller
     * can decide on a violation and later invalidations still match.
     */
    InvOutcome invalidate(Addr lineAddr, WordMask mask);

    /**
     * Flush for a DataReq: the directory asked this (owner) processor
     * to write the committed line back. Clears dirty and valid bits,
     * keeps any speculative bits as a ghost.
     * @return true iff the line was present and committed-dirty.
     */
    bool flushLine(Addr lineAddr);

    /** @return true iff the line is present with committed dirty data. */
    bool isDirty(Addr lineAddr) const;

    /** @return true iff the tag is present (any state). */
    bool present(Addr lineAddr) const;

    /** Current-transaction SR mask of the line (0 if absent). */
    WordMask srMask(Addr lineAddr) const;

    /** Current-transaction SM mask of the line (0 if absent). */
    WordMask smMask(Addr lineAddr) const;

    /** TID whose commit produced the line's dirty data. */
    Tid lineCommitTid(Addr lineAddr) const;

    /**
     * Toggle speculative-read tracking. Solo mode (overflow
     * virtualization) disables it: the transaction is provably
     * unviolable, so loads need not pin lines or register conflicts,
     * keeping the cache evictable.
     */
    void setSrTracking(bool on) { srTracking = on; }
    bool srTrackingEnabled() const { return srTracking; }

    // ------------------------------------------------------------------
    // Statistics
    // ------------------------------------------------------------------

    struct Stats {
        std::uint64_t loads = 0;
        std::uint64_t stores = 0;
        std::uint64_t l1Hits = 0;
        std::uint64_t l2Hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t fills = 0;
        std::uint64_t dirtyEvictions = 0;
        std::uint64_t overflows = 0;
        std::uint64_t ghostsCreated = 0;
    };

    const Stats &stats() const { return cacheStats; }

    const CacheConfig &cfg() const { return config; }

  private:
    /** Tag of an empty way, in L2 tag rows and L1 tags alike: a
     *  line-aligned address never has its low bits set. */
    static constexpr Addr kNoTag = ~Addr{0};
    /** Tag of an L2 way past its set's capacity (no Line record yet);
     *  like kNoTag it never matches a line address. */
    static constexpr Addr kUnbacked = ~Addr{1};

    /** State of one L2 way; its tag lives in the set's tag row. */
    struct Line {
        WordMask valid = 0;
        WordMask sr = 0;
        WordMask sm = 0;
        std::uint64_t lru = 0;
        Tid commitTid = kInvalidTid; ///< TID that committed the data
        bool dirty = false;      ///< committed modified (owner until WB)
        bool inSpecList = false;
    };

    /** One L2 way: its slot in the tag row and its state. */
    struct Way {
        Addr *tag = nullptr;
        Line *line = nullptr;
    };

    struct L1Tag {
        Addr tag = kNoTag;
        std::uint64_t lru = 0;
    };

    std::uint32_t setOf(Addr lineAddr) const;
    /** Bytes of a set block holding @p ways Line records. */
    std::size_t blockBytes(std::uint32_t ways) const;
    /** Free-list slot of blocks holding @p ways records. */
    static std::uint32_t capClass(std::uint32_t ways);
    /** A set block with @p ways empty ways, recycled when one of that
     *  capacity is free; the tag row's later ways are kUnbacked. */
    Addr *newSet(std::uint32_t ways);
    /** Move @p set, whose first kUnbacked way is @p ways, into a block
     *  with twice the records (at most l2Assoc): rebase the specSlots
     *  that point into it and free the old block. */
    Addr *growSet(std::uint32_t set, std::uint32_t ways);
    /** The ways' state, stored right after a set's tag row. */
    Line *linesOf(Addr *row) const
    {
        return reinterpret_cast<Line *>(row + config.l2Assoc);
    }
    /** The way holding @p lineAddr (line == nullptr on a miss). */
    Way find(Addr lineAddr) const;
    /** L1 lookup: on a hit refresh the way's LRU and return true; on a
     *  miss install the line over the set's victim and return false. */
    bool accessL1(Addr lineAddr);
    void dropL1(Addr lineAddr);
    void noteSpec(const Way &way);

    CacheConfig config;
    std::uint32_t lineWords;
    std::uint32_t l2Sets;
    std::uint32_t l1Sets;
    /// Private arena, created only when the caller supplied none.
    std::unique_ptr<Arena> ownArena;
    /// Every allocation below comes from here (never null).
    Arena *arena;
    /** Tag row of each L2 set (l2Assoc tags, one 64-byte row at the
     *  Table-2 associativity), followed by Line records for the ways
     *  the set has used so far: 1, 2, 4, ... up to l2Assoc. Ways past
     *  that capacity hold kUnbacked, empty ways within it kNoTag. A
     *  row is null until a fill lands in its set and grows when the
     *  victim rule picks its first kUnbacked way, so host memory
     *  follows the lines a run touches, not the configured capacity.
     *  Growing moves the set's ways to a new block. */
    std::vector<Addr *, ArenaAllocator<Addr *>> l2Rows;
    /** Outgrown set blocks, one intrusive list (linked through the
     *  row's first word) per capacity class. */
    std::array<Addr *, 32> freeSets{};
    /// l1Sets x l1Assoc
    std::vector<L1Tag, ArenaAllocator<L1Tag>> l1Tags;
    /** Ways holding speculative state, for O(txn) cleanup. */
    std::vector<Way, ArenaAllocator<Way>> specSlots;
    std::uint64_t lruClock = 0;
    bool srTracking = true;
    Stats cacheStats;
};

} // namespace tcc

#endif // TCC_CACHE_SPEC_CACHE_HH
