/**
 * @file
 * Conflict attribution: an exact hot-word table and an abort blame
 * graph, fed by the processor's invalidation path.
 *
 * A violation today tells you *that* a transaction died; this profiler
 * tells you *which word* and *which writer* keep killing the system -
 * the per-address attribution the ROADMAP's hot-key/Zipfian work and
 * the timestamp-granularity OCC comparison both need.
 *
 * Two structures:
 *  - Hot words: address -> {SR conflicts, SM conflicts, aborts caused,
 *    wasted cycles attributed}, one entry for every conflicting word,
 *    so the table is exact: its aborts sum to the run's violations.
 *    K bounds only what hotWords() reports (the top K by weight =
 *    SR + SM conflicts, ties broken by ascending address).
 *  - Blame edges: killer proc -> victim proc abort counts. The
 *    invalidation carries only the writer's TID (the ViolationCause
 *    plumbing), so edges are keyed by (writer TID, victim) at record
 *    time and resolved to the killer's node at export via an owner map
 *    populated from TID grants.
 *
 * Recording is pure observation (never touches sim state), so
 * fingerprints stay bit-identical with the profiler armed. Off
 * (TraceConfig::contentionTopK == 0) no profiler exists and the
 * processor's null-pointer gate costs one predictable branch per
 * invalidation - same discipline as TraceRecorder.
 *
 * Under PDES each domain owns a private instance touched only by its
 * own processors; at finalize they sum into a system-level instance.
 * Sums do not depend on order, so the merged table is the same
 * whatever order the domains merge in.
 */

#ifndef TCC_OBS_CONTENTION_HH
#define TCC_OBS_CONTENTION_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/flat_map.hh"
#include "common/types.hh"

namespace tcc {

class ContentionProfiler
{
  public:
    struct WordStats {
        std::uint64_t srConflicts = 0; ///< speculatively-read overlaps
        std::uint64_t smConflicts = 0; ///< speculatively-modified overlaps
        std::uint64_t aborts = 0;      ///< violations this word caused
        std::uint64_t wasted = 0;      ///< cycles discarded by those aborts

        std::uint64_t weight() const { return srConflicts + smConflicts; }
    };

    struct HotWord {
        Addr addr;
        WordStats s;
    };

    struct Edge {
        NodeId killer; ///< kInvalidNode when the writer TID was never
                       ///< seen granted
        NodeId victim;
        std::uint64_t count;
    };

    static constexpr std::size_t kDefaultTopK = 32;

    /** @param top_k  words hotWords() reports (clamped to >= 1) */
    explicit ContentionProfiler(std::size_t top_k);

    ContentionProfiler(const ContentionProfiler &) = delete;
    ContentionProfiler &operator=(const ContentionProfiler &) = delete;

    // --- recording (hot path, called from Processor) ------------------
    /** TID @p tid was granted to @p owner (from the TidAcquire site in
     *  onTidReply; every grant is unique system-wide). */
    void
    recordTidOwner(Tid tid, NodeId owner)
    {
        tidOwners[tid] = owner;
    }

    /**
     * An invalidation for @p addr from committer @p writer_tid overlapped
     * @p victim's speculative state. @p sr / @p sm say which set
     * overlapped; @p aborted is true when the overlap actually violated
     * the victim (SR overlap from an older TID), in which case
     * @p wasted_cycles is the work being discarded (attempt cycles +
     * restart penalty, the same quantity violate() charges).
     */
    void recordConflict(NodeId victim, Tid writer_tid, Addr addr, bool sr,
                        bool sm, bool aborted, std::uint64_t wasted_cycles);

    // --- PDES finalize merge -----------------------------------------
    /** Fold @p other into this profiler: word stats and raw edges
     *  summed, owner maps unioned. */
    void mergeFrom(const ContentionProfiler &other);

    // --- results ------------------------------------------------------
    std::size_t topK() const { return topK_; }
    std::uint64_t conflictsRecorded() const { return conflicts_; }

    /** The (at most) topK() hottest words, sorted by weight
     *  descending, address ascending. */
    std::vector<HotWord> hotWords() const;

    /** The (at most) @p n words that caused aborts, sorted by aborts
     *  descending, address ascending: the TAPE-style hotspot list
     *  (paper Section 3.3). */
    std::vector<HotWord> topAborts(std::size_t n) const;

    /** Blame edges with killers resolved through the owner map, sorted
     *  by (killer, victim) ascending; unresolvable writers collapse
     *  into one kInvalidNode killer. */
    std::vector<Edge> blameEdges() const;

    /** Emit the blame graph as GraphViz DOT: one node per processor
     *  seen, one edge per killer->victim pair labeled with the abort
     *  count (and penwidth scaled by it). */
    void writeDot(std::ostream &os) const;

  private:
    std::size_t topK_;
    FlatMap<Addr, WordStats> table;
    FlatMap<Tid, NodeId> tidOwners;
    /** (writer TID << 12 | victim node) -> abort count. Node ids fit
     *  in 12 bits (SystemConfig caps procs at 4096). */
    FlatMap<std::uint64_t, std::uint64_t> rawEdges;
    std::uint64_t conflicts_ = 0;
};

} // namespace tcc

#endif // TCC_OBS_CONTENTION_HH
