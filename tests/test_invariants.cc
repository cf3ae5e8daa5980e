/**
 * @file
 * Checker-efficacy tests: each protocol mutation (check/mutate.hh) must be
 * caught by the online invariant checker with a diagnostic naming the
 * broken invariant and the offending TID/node. A checker that has
 * never caught a bug proves nothing - these tests are the proof.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "check/invariant_checker.hh"
#include "check/mutate.hh"
#include "core/system.hh"
#include "workload/scripted_source.hh"

namespace tcc {
namespace {

/** Address of @p word on a page homed at @p dir (Interleave policy). */
Addr
homedAt(NodeId dir, std::uint32_t procs, std::uint32_t word = 0)
{
    const Addr page = 0x40000000ull / 4096;
    const Addr aligned = (page / procs) * procs + dir;
    return aligned * 4096 + word * 4;
}

/**
 * A contended multi-directory workload: every processor increments
 * hot counters homed at two directories and fills its own private
 * page, so commits mark several directories and skips fan out to the
 * rest - exercising every protocol path the mutations break. With
 * @p trace_capacity != 0 the run is traced, and @p ring (if given)
 * receives every recorded event, rendered, oldest first.
 */
RunResult
runContended(std::uint32_t aging_threshold = 3,
             std::size_t trace_capacity = 0,
             std::vector<std::string> *ring = nullptr)
{
    constexpr std::uint32_t kProcs = 4;
    SystemConfig cfg;
    cfg.numProcs = kProcs;
    cfg.homePolicy = HomePolicy::Interleave;
    cfg.processor.agingThreshold = aging_threshold;
    cfg.check.serial = true;
    cfg.check.invariants = true;
    cfg.trace.capacity = trace_capacity;
    System sys(cfg);

    std::vector<ScriptedSource> srcs(kProcs);
    for (NodeId p = 0; p < kProcs; ++p) {
        for (int t = 0; t < 10; ++t) {
            srcs[p].add({
                TxOp::load(homedAt(0, kProcs)),
                TxOp::compute(40 + 13 * p),
                TxOp::storeAdd(homedAt(0, kProcs), 1),
                TxOp::storeAdd(homedAt(1, kProcs), 1),
                TxOp::store(homedAt(p, kProcs, 8 + t), p + 1),
            });
        }
        sys.setSource(p, &srcs[p]);
    }
    const RunResult res = sys.run(500'000'000ull);
    if (ring != nullptr) {
        sys.traceRecorder().forEach([ring](const TraceEvent &e) {
            ring->push_back(formatTraceEvent(e));
        });
    }
    return res;
}

/** Assert the verdict blames @p invariant_name with full context. */
void
expectCaught(const RunResult &res, const char *invariant_name)
{
    ASSERT_FALSE(res.invariants.ok)
        << "mutation ran undetected (" << invariant_name << ")";
    EXPECT_NE(res.invariants.error.find(invariant_name),
              std::string::npos)
        << "diagnostic should name '" << invariant_name
        << "', got: " << res.invariants.error;
    EXPECT_NE(res.invariants.error.find("node "), std::string::npos)
        << "diagnostic should name the node: " << res.invariants.error;
    EXPECT_NE(res.invariants.error.find("tid"), std::string::npos)
        << "diagnostic should name the TID: " << res.invariants.error;
}

TEST(InvariantMutations, CleanRunPassesAndActuallyChecks)
{
    const RunResult res = runContended();
    ASSERT_TRUE(res.completed);
    EXPECT_TRUE(res.invariants.ok) << res.invariants.error;
    EXPECT_TRUE(res.serial.ok) << res.serial.error;
    EXPECT_GT(res.invariants.checks, 0u);
    EXPECT_TRUE(res.invariants.checked);
}

TEST(InvariantMutations, SkipVectorOverConsumeCaught)
{
    mutate::Scoped arm(mutate::Kind::SkipVectorOverConsume);
    expectCaught(runContended(), invariant::kSkipOrService);
}

TEST(InvariantMutations, NstidRewindCaught)
{
    mutate::Scoped arm(mutate::Kind::NstidRewind);
    expectCaught(runContended(), invariant::kNstidMonotonic);
}

TEST(InvariantMutations, CommitBeforeMarksCaught)
{
    mutate::Scoped arm(mutate::Kind::CommitBeforeMarks);
    expectCaught(runContended(), invariant::kCommitBeforeMarks);
}

TEST(InvariantMutations, DropSkipCaughtAsStall)
{
    mutate::Scoped arm(mutate::Kind::DropSkip);
    const RunResult res = runContended();
    // Lost skips wedge every directory waiting on the skipped TID;
    // the run cannot complete and the finalize pass pinpoints the
    // lowest unserved TID.
    EXPECT_FALSE(res.completed);
    expectCaught(res, invariant::kServiceComplete);
}

TEST(InvariantMutations, TidDropOnViolationCaught)
{
    mutate::Scoped arm(mutate::Kind::TidDropOnViolation);
    // agingThreshold=1 makes repeat victims hold their TID while
    // still executing - the window in which an unannounced violation
    // must retain the TID, and the mutation drops it.
    expectCaught(runContended(/*aging_threshold=*/1),
                 invariant::kTidRetained);
}

TEST(InvariantMutations, HaltsAtFirstFailure)
{
    mutate::Scoped arm(mutate::Kind::NstidRewind);
    const RunResult res = runContended();
    ASSERT_FALSE(res.invariants.ok);
    // The run halts at the first failure instead of drowning in
    // knock-on errors; the report carries exactly one diagnostic.
    EXPECT_FALSE(res.completed);
    EXPECT_FALSE(res.invariants.error.empty());
}

TEST(InvariantMutations, FailureQuotesTheTraceTail)
{
    mutate::Scoped arm(mutate::Kind::NstidRewind);
    const std::string kHead = "\n  last protocol events:";

    // Tracing off: the diagnostic carries no tail.
    const RunResult off = runContended();
    ASSERT_FALSE(off.invariants.ok);
    EXPECT_EQ(off.invariants.error.find(kHead), std::string::npos)
        << off.invariants.error;

    // Tracing armed: exactly invariantHistory lines, each the rendering
    // of one recorded event, and together the ring's newest events at
    // the failure (the failing event may record more before the run
    // halts at its end).
    std::vector<std::string> ring;
    const RunResult on = runContended(3, TraceRecorder::kDefaultCapacity,
                                      &ring);
    ASSERT_FALSE(on.invariants.ok);
    EXPECT_EQ(on.invariants.error.substr(0, off.invariants.error.size()),
              off.invariants.error)
        << "tracing must not change what is reported";
    const std::size_t at = on.invariants.error.find(kHead);
    ASSERT_NE(at, std::string::npos) << on.invariants.error;
    std::vector<std::string> tail;
    const std::string kSep = "\n    ";
    std::string rest = on.invariants.error.substr(at + kHead.size());
    while (rest.rfind(kSep, 0) == 0) {
        const std::size_t next = rest.find(kSep, kSep.size());
        tail.push_back(rest.substr(kSep.size(), next - kSep.size()));
        rest = next == std::string::npos ? "" : rest.substr(next);
    }
    EXPECT_TRUE(rest.empty()) << "unexpected text after the tail";
    ASSERT_EQ(tail.size(), CheckConfig{}.invariantHistory);
    auto it = std::search(ring.begin(), ring.end(), tail.begin(),
                          tail.end());
    ASSERT_NE(it, ring.end()) << "tail is not a run of recorded events";
    auto tickOf = [](const std::string &line) {
        return line.substr(0, line.find(']'));
    };
    for (auto later = it + tail.size(); later != ring.end(); ++later)
        EXPECT_EQ(tickOf(*later), tickOf(tail.back())) << *later;
}

// --- direct unit tests of the checker itself ------------------------

TEST(InvariantChecker, RetireTwiceRejected)
{
    InvariantChecker chk(2, nullptr);
    EXPECT_TRUE(chk.onRetire(0, 0, InvariantChecker::Retire::Skip));
    EXPECT_FALSE(chk.onRetire(0, 0, InvariantChecker::Retire::Commit));
    EXPECT_TRUE(chk.failed());
    EXPECT_NE(chk.result().error.find(invariant::kSkipOrService),
              std::string::npos);
}

TEST(InvariantChecker, NstidGapDetected)
{
    InvariantChecker chk(2, nullptr);
    EXPECT_TRUE(chk.onRetire(1, 0, InvariantChecker::Retire::Commit));
    chk.onNstidAdvance(1, 0, 3); // TIDs 1 and 2 never retired
    EXPECT_TRUE(chk.failed());
    EXPECT_NE(chk.result().error.find(invariant::kSkipOrService),
              std::string::npos);
}

// The retired set is a bit window over TIDs nstid, nstid+1, ...; these
// exercise its growth, its ring wrap and the word-level advance.

TEST(InvariantChecker, RetireFarAheadGrowsWindow)
{
    constexpr auto kSkip = InvariantChecker::Retire::Skip;
    InvariantChecker chk(1, nullptr);
    // Past the first word, then past the second (the window regrows
    // twice and must keep every bit it had).
    EXPECT_TRUE(chk.onRetire(0, 70, kSkip));
    EXPECT_TRUE(chk.onRetire(0, 130, kSkip));
    EXPECT_TRUE(chk.onRetire(0, 300, kSkip));
    EXPECT_FALSE(chk.failed());
    EXPECT_FALSE(chk.onRetire(0, 70, kSkip)) << "bit lost in regrowth";
    EXPECT_TRUE(chk.failed());
}

TEST(InvariantChecker, RetireFarAheadThenAdvanceIsClean)
{
    constexpr auto kCommit = InvariantChecker::Retire::Commit;
    InvariantChecker chk(1, nullptr);
    for (Tid t = 0; t < 10; ++t)
        EXPECT_TRUE(chk.onRetire(0, t, kCommit));
    chk.onNstidAdvance(0, 0, 10); // the window's head is now mid-word
    for (Tid t = 209; t >= 10; --t) // descending: every retire grows
        EXPECT_TRUE(chk.onRetire(0, t, kCommit));
    chk.onNstidAdvance(0, 10, 210);
    EXPECT_FALSE(chk.failed()) << chk.result().error;
    EXPECT_FALSE(chk.onRetire(0, 150, kCommit)) << "below the NSTID";
    EXPECT_NE(chk.result().error.find("already passed by NSTID 210"),
              std::string::npos)
        << chk.result().error;
}

TEST(InvariantChecker, DoubleRetireAcrossRingWrap)
{
    constexpr auto kAbort = InvariantChecker::Retire::Abort;
    InvariantChecker chk(1, nullptr);
    // Walk the head most of the way round a one-word ring, so the
    // next retirements wrap into its low bits.
    for (Tid t = 0; t < 60; ++t)
        EXPECT_TRUE(chk.onRetire(0, t, kAbort));
    chk.onNstidAdvance(0, 0, 60);
    EXPECT_TRUE(chk.onRetire(0, 62, kAbort));
    EXPECT_TRUE(chk.onRetire(0, 100, kAbort)); // offset 40: wraps
    EXPECT_FALSE(chk.failed());
    EXPECT_FALSE(chk.onRetire(0, 100, kAbort));
    EXPECT_NE(chk.result().error.find("TID 100 retired twice"),
              std::string::npos)
        << chk.result().error;
}

TEST(InvariantChecker, AdvanceOverGapNamesFirstUnretiredTid)
{
    constexpr auto kSkip = InvariantChecker::Retire::Skip;
    InvariantChecker chk(1, nullptr);
    for (Tid t : {0, 1, 2, 4, 6})
        EXPECT_TRUE(chk.onRetire(0, t, kSkip));
    chk.onNstidAdvance(0, 0, 7); // TIDs 3 and 5 never retired
    ASSERT_TRUE(chk.failed());
    EXPECT_NE(chk.result().error.find("past TID 3,"), std::string::npos)
        << chk.result().error;
    EXPECT_EQ(chk.result().failures, 2u) << "each missing TID counts";
}

TEST(InvariantChecker, MultiWordAdvance)
{
    constexpr auto kSkip = InvariantChecker::Retire::Skip;
    InvariantChecker chk(1, nullptr);
    for (Tid t = 0; t < 200; ++t)
        EXPECT_TRUE(chk.onRetire(0, t, kSkip));
    chk.onNstidAdvance(0, 0, 200); // four words in one step
    EXPECT_FALSE(chk.failed()) << chk.result().error;

    // A gap deep in the third word of the next span.
    for (Tid t = 200; t < 400; ++t) {
        if (t != 333) {
            EXPECT_TRUE(chk.onRetire(0, t, kSkip));
        }
    }
    chk.onNstidAdvance(0, 200, 400);
    ASSERT_TRUE(chk.failed());
    EXPECT_NE(chk.result().error.find("past TID 333,"),
              std::string::npos)
        << chk.result().error;
    EXPECT_EQ(chk.result().failures, 1u);
}

TEST(InvariantChecker, AdvancePastWindowCountsEveryMissingTid)
{
    InvariantChecker chk(1, nullptr);
    EXPECT_TRUE(chk.onRetire(0, 0, InvariantChecker::Retire::Skip));
    chk.onNstidAdvance(0, 0, 1000); // far beyond the one-word window
    ASSERT_TRUE(chk.failed());
    EXPECT_NE(chk.result().error.find("past TID 1,"), std::string::npos)
        << chk.result().error;
    EXPECT_EQ(chk.result().failures, 999u);
}

TEST(InvariantChecker, CommitOrderEnforcedPerDirectory)
{
    InvariantChecker chk(2, nullptr);
    chk.onCommitApply(0, 5, 1, 1, true, false);
    chk.onCommitApply(1, 3, 1, 1, true, false); // other dir: fine
    EXPECT_FALSE(chk.failed());
    chk.onCommitApply(0, 4, 1, 1, true, false); // goes backwards
    EXPECT_TRUE(chk.failed());
    EXPECT_NE(chk.result().error.find(invariant::kCommitTidOrder),
              std::string::npos);
}

TEST(InvariantChecker, PartialBatchMayRepeatTid)
{
    InvariantChecker chk(1, nullptr);
    chk.onCommitApply(0, 7, 1, 1, true, /*partial=*/true);
    chk.onCommitApply(0, 7, 2, 2, true, /*partial=*/true);
    chk.onCommitApply(0, 7, 3, 3, true, /*partial=*/false);
    EXPECT_FALSE(chk.failed()) << chk.result().error;
    chk.onCommitApply(0, 7, 1, 1, true, /*partial=*/true);
    EXPECT_TRUE(chk.failed()) << "partial after full commit of same TID";
}

TEST(InvariantChecker, FinalizeReportsStall)
{
    InvariantChecker chk(1, nullptr);
    chk.onRetire(0, 0, InvariantChecker::Retire::Commit);
    chk.onNstidAdvance(0, 0, 1);
    chk.finalize(/*issued=*/3, /*completed=*/false,
                 /*hit_tick_limit=*/false);
    EXPECT_TRUE(chk.failed());
    EXPECT_NE(chk.result().error.find(invariant::kServiceComplete),
              std::string::npos);
}

TEST(InvariantChecker, FinalizeTolerantOfTickLimit)
{
    InvariantChecker chk(1, nullptr);
    chk.finalize(/*issued=*/3, /*completed=*/false,
                 /*hit_tick_limit=*/true);
    EXPECT_FALSE(chk.failed()) << "max_ticks cut is not a stall";
}

} // namespace
} // namespace tcc
