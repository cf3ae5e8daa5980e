/**
 * @file
 * End-to-end smoke tests: small systems running scripted transactions
 * through the full protocol stack, checking functional results,
 * quiescence, and serializability.
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "workload/registry.hh"
#include "workload/scripted_source.hh"

namespace tcc {
namespace {

SystemConfig
smallConfig(std::uint32_t procs, bool checker = true)
{
    SystemConfig cfg;
    cfg.numProcs = procs;
    cfg.check.serial = checker;
    // The online invariant checker is passive; arm it everywhere for
    // free protocol coverage.
    cfg.check.invariants = true;
    return cfg;
}

TEST(SystemSmoke, SingleProcSingleTxnCommits)
{
    System sys(smallConfig(1));
    ScriptedSource src;
    src.add({TxOp::compute(100), TxOp::store(0x1000, 42)});
    sys.setSource(0, &src);

    const RunResult res = sys.run();
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(src.committed(), 1u);
    EXPECT_EQ(sys.memory().read(0x1000), 42u);
    EXPECT_TRUE(sys.protocolQuiesced());
    EXPECT_TRUE(res.serial.ok) << res.serial.error;
    EXPECT_TRUE(res.invariants.ok) << res.invariants.error;
    EXPECT_EQ(sys.proc(0).stats().txnsCommitted, 1u);
}

TEST(SystemSmoke, ReadAfterWriteAcrossTransactions)
{
    System sys(smallConfig(1));
    ScriptedSource src;
    src.add({TxOp::store(0x1000, 5)});
    src.add({TxOp::load(0x1000), TxOp::storeAdd(0x2000, 10)});
    sys.setSource(0, &src);
    const RunResult res = sys.run();
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(sys.memory().read(0x2000), 15u); // 5 + 10
    EXPECT_TRUE(res.serial.ok) << res.serial.error;
    EXPECT_TRUE(res.invariants.ok) << res.invariants.error;
}

TEST(SystemSmoke, TwoProcsDisjointDataBothCommit)
{
    System sys(smallConfig(2));
    ScriptedSource a, b;
    a.add({TxOp::compute(50), TxOp::store(0x10000, 1)});
    b.add({TxOp::compute(50), TxOp::store(0x20000, 2)});
    sys.setSource(0, &a);
    sys.setSource(1, &b);
    const RunResult res = sys.run();
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(sys.memory().read(0x10000), 1u);
    EXPECT_EQ(sys.memory().read(0x20000), 2u);
    EXPECT_TRUE(sys.protocolQuiesced());
    EXPECT_TRUE(res.serial.ok) << res.serial.error;
    EXPECT_TRUE(res.invariants.ok) << res.invariants.error;
}

TEST(SystemSmoke, ConflictingIncrementsAreSerialized)
{
    // Both processors increment the same word many times. Without
    // conflict detection the final value would be < 2*N.
    constexpr int kIters = 20;
    System sys(smallConfig(2));
    sys.initializeWord(0x1000, 0);
    ScriptedSource a, b;
    for (int i = 0; i < kIters; ++i) {
        a.add({TxOp::load(0x1000), TxOp::storeAdd(0x1000, 1)});
        b.add({TxOp::load(0x1000), TxOp::storeAdd(0x1000, 1)});
    }
    sys.setSource(0, &a);
    sys.setSource(1, &b);
    const RunResult res = sys.run();
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(sys.memory().read(0x1000),
              static_cast<std::uint64_t>(2 * kIters));
    EXPECT_TRUE(res.serial.ok) << res.serial.error;
    EXPECT_TRUE(res.invariants.ok) << res.invariants.error;
    EXPECT_TRUE(sys.protocolQuiesced());
}

TEST(SystemSmoke, BarrierSynchronizesPhases)
{
    System sys(smallConfig(2));
    ScriptedSource a, b;
    // Phase 1: proc 0 writes; phase 2 (after barrier): proc 1 reads.
    a.add({TxOp::store(0x1000, 7)});
    a.add({TxOp::compute(1)}, /*barrier_before=*/true);
    b.add({TxOp::compute(1)});
    b.add({TxOp::load(0x1000), TxOp::storeAdd(0x3000, 0)},
          /*barrier_before=*/true);
    sys.setSource(0, &a);
    sys.setSource(1, &b);
    const RunResult res = sys.run();
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(sys.memory().read(0x3000), 7u);
    EXPECT_TRUE(res.serial.ok) << res.serial.error;
    EXPECT_TRUE(res.invariants.ok) << res.invariants.error;
}

TEST(SystemSmoke, ManyProcsManyTxnsQuiesce)
{
    System sys(smallConfig(8));
    std::vector<ScriptedSource> srcs(8);
    for (NodeId p = 0; p < 8; ++p) {
        for (int t = 0; t < 10; ++t) {
            srcs[p].add({TxOp::compute(20),
                         TxOp::store(0x100000 * (p + 1) + t * 4,
                                     p * 100 + t)});
        }
        sys.setSource(p, &srcs[p]);
    }
    const RunResult res = sys.run();
    ASSERT_TRUE(res.completed);
    for (NodeId p = 0; p < 8; ++p)
        EXPECT_EQ(srcs[p].committed(), 10u);
    EXPECT_TRUE(sys.protocolQuiesced());
    EXPECT_TRUE(res.serial.ok) << res.serial.error;
    EXPECT_TRUE(res.invariants.ok) << res.invariants.error;
    // Every TID was issued and retired by every directory.
    EXPECT_EQ(sys.vendor().issued(), 80u);
}

TEST(SystemSmoke, UsefulCyclesDominateUncontendedRun)
{
    System sys(smallConfig(1));
    ScriptedSource src;
    for (int i = 0; i < 5; ++i)
        src.add({TxOp::compute(10000), TxOp::store(0x1000 + 4 * i, i)});
    sys.setSource(0, &src);
    const RunResult res = sys.run();
    ASSERT_TRUE(res.completed);
    const Breakdown &bd = res.breakdown;
    EXPECT_GT(bd.fraction(bd.useful), 0.9);
    EXPECT_EQ(bd.violation, 0u);
}

TEST(SystemSmoke, IdleThousandNodeSystemHoldsLittleArena)
{
    // Per-node state is allocated as a run touches it: an L2 set on
    // its first fill (and a larger block as it fills more ways), a
    // directory entry on its first message, write-buffer slots on the
    // first stores, a commit table entry per directory a commit
    // touches. What a machine holds before running anything is the L1
    // tags and the L2 set table (16 KiB each at Table 2: 32 KiB a node
    // at 64 nodes, 32.25 KiB at 1024): only the Sharing/Writing
    // vectors grow with node count.
    const auto per_node = [](std::uint32_t procs) {
        System sys(smallConfig(procs));
        return static_cast<double>(sys.arenaStats().peakBytes) / procs;
    };
    const double at64 = per_node(64);
    const double at1024 = per_node(1024);
    EXPECT_LE(at1024, 1.10 * at64)
        << at64 / 1024 << " vs " << at1024 / 1024 << " KiB a node";
    EXPECT_LT(at1024 * 1024, 64.0 * (1 << 20));
}

TEST(SystemSmoke, SerialCheckerHoldsOnlyInFlightCommits)
{
    // The checker replays a commit once every lower TID has committed
    // or been released, so it holds the records of in-flight TIDs, not
    // the whole commit log. A TID that is never released stalls the
    // replay and fails this.
    const SystemConfig cfg = smallConfig(64);
    System sys(cfg);
    const WorkloadBundle bundle =
        makeWorkload("equake", {}, 1, cfg.numProcs);
    bundle.attach(sys);
    const RunResult res = sys.run();
    ASSERT_TRUE(res.completed);
    EXPECT_TRUE(res.serial.ok) << res.serial.error;
    EXPECT_TRUE(res.invariants.ok) << res.invariants.error;
    EXPECT_EQ(res.serial.checks, res.committedTxns);
    EXPECT_GT(res.violations, 0u); // releases happen
    EXPECT_LE(sys.commitLog().pendingHighWater() * 50, res.committedTxns)
        << sys.commitLog().pendingHighWater() << " of "
        << res.committedTxns << " commits pending at once";
}

TEST(SystemSmoke, IdealNetworkAlsoWorks)
{
    auto cfg = smallConfig(4);
    cfg.network.model = NetworkConfig::Model::Ideal;
    System sys(cfg);
    std::vector<ScriptedSource> srcs(4);
    for (NodeId p = 0; p < 4; ++p) {
        srcs[p].add({TxOp::load(0x1000),
                     TxOp::storeAdd(0x1000, 1)});
        sys.setSource(p, &srcs[p]);
    }
    const RunResult res = sys.run();
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(sys.memory().read(0x1000), 4u);
    EXPECT_TRUE(res.serial.ok) << res.serial.error;
    EXPECT_TRUE(res.invariants.ok) << res.invariants.error;
}

TEST(SystemSmoke, ReadOnlyTransactionsCommit)
{
    System sys(smallConfig(2));
    sys.initializeWord(0x1000, 99);
    ScriptedSource a, b;
    a.add({TxOp::load(0x1000), TxOp::compute(10)});
    b.add({TxOp::load(0x1000), TxOp::compute(10)});
    sys.setSource(0, &a);
    sys.setSource(1, &b);
    const RunResult res = sys.run();
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(a.committed() + b.committed(), 2u);
    EXPECT_TRUE(sys.protocolQuiesced());
}

} // namespace
} // namespace tcc
