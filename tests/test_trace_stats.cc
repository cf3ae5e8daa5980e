/**
 * @file
 * Tests for the trace-driven transaction source and the full
 * statistics dump.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/stats_dump.hh"
#include "core/system.hh"
#include "workload/scripted_source.hh"
#include "workload/trace_source.hh"

namespace tcc {
namespace {

// ---------------------------------------------------------------------
// TraceSource
// ---------------------------------------------------------------------

TEST(TraceSource, ParsesBasicTrace)
{
    TraceSource src;
    std::string err;
    ASSERT_TRUE(src.parseString("# a comment\n"
                                "txn\n"
                                "c 120\n"
                                "l 0x1000\n"
                                "a 0x1000 1\n"
                                "\n"
                                "txn barrier\n"
                                "s 0x2000 42\n",
                                &err))
        << err;
    EXPECT_EQ(src.numTransactions(), 2u);

    auto t1 = src.nextTransaction();
    ASSERT_TRUE(t1);
    EXPECT_FALSE(t1->barrierBefore);
    ASSERT_EQ(t1->ops.size(), 3u);
    EXPECT_EQ(t1->ops[0].kind, TxOp::Kind::Compute);
    EXPECT_EQ(t1->ops[0].cycles, 120u);
    EXPECT_EQ(t1->ops[1].kind, TxOp::Kind::Load);
    EXPECT_EQ(t1->ops[1].addr, 0x1000u);
    EXPECT_EQ(t1->ops[2].kind, TxOp::Kind::StoreAdd);
    EXPECT_EQ(t1->ops[2].value, 1u);

    auto t2 = src.nextTransaction();
    ASSERT_TRUE(t2);
    EXPECT_TRUE(t2->barrierBefore);
    ASSERT_EQ(t2->ops.size(), 1u);
    EXPECT_EQ(t2->ops[0].kind, TxOp::Kind::Store);
    EXPECT_EQ(t2->ops[0].value, 42u);

    EXPECT_FALSE(src.nextTransaction().has_value());
}

TEST(TraceSource, RejectsOpBeforeTxn)
{
    TraceSource src;
    std::string err;
    EXPECT_FALSE(src.parseString("c 5\n", &err));
    EXPECT_NE(err.find("before first"), std::string::npos);
}

TEST(TraceSource, RejectsUnknownDirective)
{
    TraceSource src;
    std::string err;
    EXPECT_FALSE(src.parseString("txn\nq 1\n", &err));
    EXPECT_NE(err.find("unknown"), std::string::npos);
}

TEST(TraceSource, RejectsBadBarrierFlag)
{
    TraceSource src;
    std::string err;
    EXPECT_FALSE(src.parseString("txn nope\n", &err));
}

TEST(TraceSource, RunsThroughTheSystem)
{
    System sys([] {
        SystemConfig cfg;
        cfg.numProcs = 2;
        cfg.check.serial = true;
        cfg.check.invariants = true;
        return cfg;
    }());

    TraceSource a, b;
    ASSERT_TRUE(a.parseString("txn\n"
                              "l 0x1000\n"
                              "a 0x1000 5\n"
                              "txn\n"
                              "l 0x1000\n"
                              "a 0x1000 5\n"));
    ASSERT_TRUE(b.parseString("txn\n"
                              "l 0x1000\n"
                              "a 0x1000 7\n"));
    sys.setSource(0, &a);
    sys.setSource(1, &b);
    const RunResult res = sys.run();
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(sys.memory().read(0x1000), 17u);
    EXPECT_TRUE(res.serial.ok) << res.serial.error;
    EXPECT_TRUE(res.invariants.ok) << res.invariants.error;
}

// ---------------------------------------------------------------------
// Stats dump
// ---------------------------------------------------------------------

TEST(StatsDump, ContainsAllComponentGroups)
{
    SystemConfig cfg;
    cfg.numProcs = 2;
    System sys(cfg);
    ScriptedSource a, b;
    a.add({TxOp::compute(50), TxOp::store(0x1000, 1)});
    b.add({TxOp::load(0x1000), TxOp::storeAdd(0x2000, 0)});
    sys.setSource(0, &a);
    sys.setSource(1, &b);
    ASSERT_TRUE(sys.run().completed);

    std::ostringstream os;
    dumpStats(sys, os);
    const std::string out = os.str();

    for (const char *key :
         {"system.procs 2", "system.quiesced 1", "network.messages",
          "procs.0.txns_committed 1", "procs.1.txns_committed 1",
          "dirs.0.nstid", "dirs.1.skips", "procs.0.cache.loads",
          "dirs.0.commit_occupancy.count"}) {
        EXPECT_NE(out.find(key), std::string::npos)
            << "missing stat: " << key;
    }
}

TEST(StatsDump, ValuesAreConsistentWithAccessors)
{
    SystemConfig cfg;
    cfg.numProcs = 1;
    System sys(cfg);
    ScriptedSource a;
    for (int i = 0; i < 3; ++i)
        a.add({TxOp::compute(10), TxOp::store(0x1000 + 4 * i, i)});
    sys.setSource(0, &a);
    ASSERT_TRUE(sys.run().completed);

    std::ostringstream os;
    dumpStats(sys, os);
    const std::string out = os.str();
    EXPECT_NE(out.find("procs.0.txns_committed 3"), std::string::npos);
    EXPECT_NE(out.find("system.tids_issued 3"), std::string::npos);
}

} // namespace
} // namespace tcc
