/**
 * @file
 * Online protocol-invariant checker for Scalable TCC.
 *
 * The paper's livelock- and serializability-freedom argument rests on
 * directory-side ordering invariants it states but a simulator can
 * silently erode. This observer is wired into Directory and
 * TccProcessor through direct hooks (the same attachment pattern as
 * the TraceRecorder) and asserts, while the run executes:
 *
 *  1. nstid-monotonic       - a directory's Now-Serving TID never
 *                             decreases;
 *  2. skip-or-service       - every TID a directory's NSTID passes was
 *                             retired there exactly once (serviced
 *                             commit, Skip, or Abort) - no gaps, no
 *                             double retirement;
 *  3. commit-before-marks   - commit data is never applied before the
 *                             announced number of marks arrived and
 *                             the Commit itself was seen;
 *  4. tid-retained-on-violation - a violated transaction that has not
 *                             announced its TID (sent Skips) retains
 *                             it for the retry; one that has announced
 *                             releases it (via Abort);
 *  5. commit-tid-order      - the TIDs of commits applied at one
 *                             directory strictly increase (solo-mode
 *                             partial batches may repeat the TID);
 *  6. tid-service-complete  - at end of run, every issued TID was
 *                             retired at every directory and each
 *                             NSTID reached the vendor's next TID; if
 *                             the event queue drained without the run
 *                             completing, the protocol stalled and the
 *                             lowest unserved TID per directory is
 *                             reported.
 *
 * A failure is recorded (first failure wins) rather than panicking:
 * System::run() halts the simulation at the next event boundary and
 * reports the verdict in RunResult::invariants, so sweeps and the
 * mutation efficacy tests (check/mutate.hh) can assert on the
 * diagnostic. The report
 * names the invariant, the offending TID and directory/processor, and
 * appends the last N protocol trace events when tracing is enabled.
 *
 * The checker is passive: it never schedules events or touches
 * simulated state, so armed-but-clean runs keep bit-identical
 * fingerprints.
 */

#ifndef TCC_CHECK_INVARIANT_CHECKER_HH
#define TCC_CHECK_INVARIANT_CHECKER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/skip_vector.hh"
#include "common/types.hh"
#include "obs/trace_recorder.hh"

namespace tcc {

class InvariantChecker
{
  public:
    /** How a directory retired a TID. */
    enum class Retire : std::uint8_t { Skip, Commit, Abort };

    struct Result {
        bool ok = true;
        /** First failure: invariant name, TID, node, trace tail. */
        std::string error;
        /** Total invariant failures observed (first is reported). */
        std::uint64_t failures = 0;
        /** Hook invocations (sanity: the checker actually ran). */
        std::uint64_t checks = 0;
    };

    /**
     * @param num_nodes  directories/processors in the system
     * @param tracer     protocol event ring for failure context
     *                   (null when tracing is off)
     * @param history    trace events quoted in a failure report
     */
    InvariantChecker(std::uint32_t num_nodes,
                     const TraceRecorder *tracer,
                     std::size_t history = 8);

    /**
     * Restrict the finalize() completeness pass to directories
     * [first, first + count). PDES arms one checker per domain: the
     * online hooks only ever see that domain's directories, and the
     * end-of-run sweep must not report the other domains' (locally
     * empty) states as stalls. Default: all nodes.
     */
    void
    setNodeRange(NodeId first, std::uint32_t count)
    {
        rangeFirst = first;
        rangeCount = count;
    }

    // --- directory-side hooks ---------------------------------------
    /**
     * TID @p t retired at @p dir. Returns false when the retirement
     * itself violates an invariant (already retired / below NSTID);
     * the caller must then drop the retirement instead of recording it
     * (the failure has been captured here).
     */
    bool onRetire(NodeId dir, Tid t, Retire how);

    /** NSTID moved from @p from to @p to at @p dir. */
    void onNstidAdvance(NodeId dir, Tid from, Tid to);

    /** Commit data for @p tid is being applied at @p dir. */
    void onCommitApply(NodeId dir, Tid tid, std::uint32_t marks_received,
                       std::uint32_t expected_marks, bool commit_seen,
                       bool partial);

    // --- processor-side hooks ---------------------------------------
    /** Processor @p proc violated holding @p tid_before; @p announced
     *  is whether Skips were multicast; @p tid_after is the TID kept
     *  for the retry. */
    void onViolation(NodeId proc, Tid tid_before, bool announced,
                     Tid tid_after);

    // --- end of run --------------------------------------------------
    /**
     * Completeness pass. @p issued is the vendor's total TID count,
     * @p completed whether every processor drained its source, and
     * @p hit_tick_limit whether the run stopped on max_ticks (in which
     * case incompleteness is expected and not reported).
     */
    void finalize(Tid issued, bool completed, bool hit_tick_limit);

    /** True once any invariant failed (System::run() halts on this). */
    bool failed() const { return !verdict.ok; }

    const Result &result() const { return verdict; }

  private:
    struct DirState {
        /** The checker's own view of the directory's NSTID. */
        Tid nstid = 0;
        /** TIDs retired but not yet passed by the NSTID: bit i stands
         *  for TID nstid + i (the directory's Skip Vector layout). */
        SkipVector retired;
        std::uint64_t retireCount = 0;
        /** TID of the last full commit applied here. */
        Tid lastCommitTid = kInvalidTid;
    };

    /** Record the first failure: "<invariant>: <detail>" + trace tail. */
    void fail(const char *invariant, NodeId node, Tid tid,
              const char *fmt, ...)
#ifdef __GNUC__
        __attribute__((format(printf, 5, 6)))
#endif
        ;

    std::string traceTail() const;

    std::vector<DirState> dirs;
    const TraceRecorder *tracer;
    std::size_t historyLen;
    /** finalize() scans directories [rangeFirst, rangeFirst+rangeCount). */
    NodeId rangeFirst = 0;
    std::uint32_t rangeCount;
    Result verdict;
};

/** Invariant names (stable strings used in diagnostics and tests). */
namespace invariant {
inline constexpr const char *kNstidMonotonic = "nstid-monotonic";
inline constexpr const char *kSkipOrService = "skip-or-service";
inline constexpr const char *kCommitBeforeMarks = "commit-before-marks";
inline constexpr const char *kTidRetained = "tid-retained-on-violation";
inline constexpr const char *kCommitTidOrder = "commit-tid-order";
inline constexpr const char *kServiceComplete = "tid-service-complete";
} // namespace invariant

} // namespace tcc

#endif // TCC_CHECK_INVARIANT_CHECKER_HH
