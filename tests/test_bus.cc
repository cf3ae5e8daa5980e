/**
 * @file
 * Tests for the bus-based small-scale TCC baseline: functional
 * correctness (atomicity, serialization), token-based commit order,
 * snoop-violation behaviour, barriers, and bus-occupancy accounting.
 */

#include <gtest/gtest.h>

#include "busbaseline/bus_tcc.hh"
#include "workload/scripted_source.hh"

namespace tcc {
namespace {

BusConfig
smallBus(std::uint32_t procs)
{
    BusConfig cfg;
    cfg.numProcs = procs;
    cfg.enableChecker = true;
    return cfg;
}

TEST(BusTcc, SingleProcCommits)
{
    BusTcc bus(smallBus(1));
    ScriptedSource src;
    src.add({TxOp::compute(100), TxOp::store(0x1000, 5)});
    bus.setSource(0, &src);
    const RunResult res = bus.run();
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(bus.memory().read(0x1000), 5u);
    EXPECT_EQ(src.committed(), 1u);
    EXPECT_EQ(res.committedTxns, 1u);
    EXPECT_TRUE(res.serial.checked);
    EXPECT_TRUE(res.serial.ok);
}

TEST(BusTcc, ConflictingIncrementsExact)
{
    constexpr int kIters = 15;
    BusTcc bus(smallBus(4));
    bus.initializeWord(0x1000, 0);
    std::vector<ScriptedSource> srcs(4);
    for (NodeId p = 0; p < 4; ++p) {
        for (int i = 0; i < kIters; ++i)
            srcs[p].add({TxOp::load(0x1000), TxOp::compute(30),
                         TxOp::storeAdd(0x1000, 1)});
        bus.setSource(p, &srcs[p]);
    }
    const RunResult res = bus.run();
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(bus.memory().read(0x1000), 4u * kIters);
    EXPECT_EQ(res.committedTxns, 4u * kIters);
    EXPECT_TRUE(res.serial.ok);
}

TEST(BusTcc, SnoopViolatesOverlappingReader)
{
    BusTcc bus(smallBus(2));
    ScriptedSource writer, reader;
    writer.add({TxOp::compute(100), TxOp::store(0x2000, 9)});
    reader.add({TxOp::load(0x2000), TxOp::compute(5000),
                TxOp::storeAdd(0x3000, 0)});
    bus.setSource(0, &writer);
    bus.setSource(1, &reader);
    const RunResult res = bus.run();
    ASSERT_TRUE(res.completed);
    EXPECT_GE(reader.violated(), 1u);
    EXPECT_GE(res.violations, 1u);
    EXPECT_EQ(bus.memory().read(0x3000), 9u);
    EXPECT_TRUE(res.serial.ok);
}

TEST(BusTcc, CommitsAreSerialized)
{
    // With one-at-a-time commits, the bus must be busy for at least
    // the sum of all commit transfer times.
    BusTcc bus(smallBus(4));
    std::vector<ScriptedSource> srcs(4);
    for (NodeId p = 0; p < 4; ++p) {
        for (int t = 0; t < 10; ++t) {
            std::vector<TxOp> ops;
            for (int i = 0; i < 8; ++i)
                ops.push_back(TxOp::store(
                    0x10000ull * (p + 1) + 0x20 * (t * 8 + i), t));
            srcs[p].add(std::move(ops));
        }
        bus.setSource(p, &srcs[p]);
    }
    const RunResult res = bus.run();
    ASSERT_TRUE(res.completed);
    EXPECT_GT(bus.busBusyCycles(), 0u);
    EXPECT_TRUE(res.serial.ok);
}

TEST(BusTcc, BarrierPhasesWork)
{
    BusTcc bus(smallBus(2));
    ScriptedSource a, b;
    a.add({TxOp::store(0x1000, 7)});
    a.add({TxOp::compute(1)}, /*barrier=*/true);
    b.add({TxOp::compute(1)});
    b.add({TxOp::load(0x1000), TxOp::storeAdd(0x2000, 0)},
          /*barrier=*/true);
    bus.setSource(0, &a);
    bus.setSource(1, &b);
    ASSERT_TRUE(bus.run().completed);
    EXPECT_EQ(bus.memory().read(0x2000), 7u);
}

TEST(BusTcc, BreakdownBucketsPopulated)
{
    BusTcc bus(smallBus(2));
    ScriptedSource a, b;
    for (int i = 0; i < 5; ++i) {
        a.add({TxOp::compute(200), TxOp::store(0x1000 + 4 * i, i)});
        b.add({TxOp::compute(200), TxOp::store(0x9000 + 4 * i, i)});
    }
    bus.setSource(0, &a);
    bus.setSource(1, &b);
    const RunResult res = bus.run();
    ASSERT_TRUE(res.completed);
    EXPECT_GT(res.breakdown.useful, 0u);
    EXPECT_GT(res.breakdown.commit, 0u);
    EXPECT_GT(res.breakdown.total(), 0u);
    EXPECT_GT(res.committedInstructions, 0u);
    ASSERT_EQ(res.procs.size(), 2u);
    EXPECT_EQ(res.procs[0].txnsCommitted, 5u);
}

TEST(BusTcc, TickLimitStopsAtMaxTicks)
{
    // Same tick-limit rule as System::run: every event at or before
    // max_ticks runs, none later, and the cut run reports max_ticks.
    BusTcc bus(smallBus(2));
    ScriptedSource s0, s1;
    s0.add({TxOp::compute(1'000'000)});
    s1.add({TxOp::compute(1'000'000)});
    bus.setSource(0, &s0);
    bus.setSource(1, &s1);
    const RunResult res = bus.run(/*max_ticks=*/1000);
    EXPECT_FALSE(res.completed);
    EXPECT_EQ(res.cycles, 1000u);
}

TEST(BusTcc, ManyProcsStressSerializable)
{
    constexpr std::uint32_t kProcs = 8;
    BusTcc bus(smallBus(kProcs));
    std::vector<ScriptedSource> srcs(kProcs);
    for (NodeId p = 0; p < kProcs; ++p) {
        for (int t = 0; t < 20; ++t) {
            srcs[p].add({TxOp::load(0xA000), TxOp::compute(10 + p),
                         TxOp::storeAdd(0xA000, 1),
                         TxOp::store(0x100000ull * (p + 1) + t * 4,
                                     t)});
        }
        bus.setSource(p, &srcs[p]);
    }
    const RunResult res = bus.run();
    ASSERT_TRUE(res.completed);
    EXPECT_TRUE(res.quiesced);
    EXPECT_EQ(bus.memory().read(0xA000), kProcs * 20u);
    EXPECT_TRUE(res.serial.ok);
    EXPECT_EQ(res.serial.checks, res.committedTxns);
}

} // namespace
} // namespace tcc
