/**
 * @file
 * Tests for the full statistics dump.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/stats_dump.hh"
#include "core/system.hh"
#include "workload/scripted_source.hh"

namespace tcc {
namespace {

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
