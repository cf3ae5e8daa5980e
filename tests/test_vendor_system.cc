/**
 * @file
 * Edge-case tests for the TID vendor and System run control: gap-free
 * TID issue under bursts, vendor serialization latency, tick-limited
 * runs, and multi-run determinism.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/system.hh"
#include "proc/tid_vendor.hh"
#include "workload/scripted_source.hh"

namespace tcc {
namespace {

TEST(TidVendor, IssuesGapFreeSequence)
{
    EventQueue eq;
    IdealNetwork net(eq, 4, 1);
    TidVendor vendor(0, eq, net, 5);
    std::set<Tid> got;
    for (NodeId n = 1; n < 4; ++n) {
        net.connect(n, [&](const Message &m) {
            ASSERT_EQ(m.type, MsgType::TidReply);
            got.insert(m.tid);
        });
    }
    net.connect(0, [&](const Message &m) { vendor.receive(m); });
    for (int i = 0; i < 12; ++i) {
        Message req;
        req.type = MsgType::TidReq;
        req.src = static_cast<NodeId>(1 + i % 3);
        req.dst = 0;
        req.bytes = 8;
        net.send(req);
    }
    eq.run();
    ASSERT_EQ(got.size(), 12u);
    EXPECT_EQ(*got.begin(), 0u);
    EXPECT_EQ(*got.rbegin(), 11u); // gap-free 0..11
    EXPECT_EQ(vendor.issued(), 12u);
}

TEST(TidVendor, SerializesBurstRequests)
{
    // 10 simultaneous requests with 5-cycle service: the last reply
    // leaves the vendor no earlier than 10 * 5 cycles in.
    EventQueue eq;
    IdealNetwork net(eq, 2, 1);
    TidVendor vendor(0, eq, net, 5);
    Tick last_arrival = 0;
    net.connect(1, [&](const Message &) { last_arrival = eq.now(); });
    net.connect(0, [&](const Message &m) { vendor.receive(m); });
    for (int i = 0; i < 10; ++i) {
        Message req;
        req.type = MsgType::TidReq;
        req.src = 1;
        req.dst = 0;
        req.bytes = 8;
        net.send(req);
    }
    eq.run();
    EXPECT_GE(last_arrival, 50u);
}

TEST(SystemRun, TickLimitStopsEarly)
{
    SystemConfig cfg;
    cfg.numProcs = 1;
    System sys(cfg);
    ScriptedSource src;
    src.add({TxOp::compute(1'000'000)});
    sys.setSource(0, &src);
    auto res = sys.run(/*max_ticks=*/1000);
    EXPECT_FALSE(res.completed);
    // Every event at or before the limit ran, none later.
    EXPECT_EQ(res.cycles, 1000u);
}

TEST(SystemRun, DeterministicAcrossIdenticalRuns)
{
    auto run_once = []() {
        SystemConfig cfg;
        cfg.numProcs = 4;
        System sys(cfg);
        std::vector<ScriptedSource> srcs(4);
        for (NodeId p = 0; p < 4; ++p) {
            for (int t = 0; t < 8; ++t)
                srcs[p].add({TxOp::load(0xA000),
                             TxOp::compute(17 + p),
                             TxOp::storeAdd(0xA000, 1)});
            sys.setSource(p, &srcs[p]);
        }
        auto res = sys.run();
        EXPECT_TRUE(res.completed);
        return std::make_pair(res.cycles, res.events);
    };
    const auto a = run_once();
    const auto b = run_once();
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

TEST(SystemRun, ZeroTransactionSourcesFinishImmediately)
{
    SystemConfig cfg;
    cfg.numProcs = 2;
    System sys(cfg);
    ScriptedSource a, b; // empty
    sys.setSource(0, &a);
    sys.setSource(1, &b);
    auto res = sys.run();
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.cycles, 0u);
    EXPECT_TRUE(sys.protocolQuiesced());
}

} // namespace
} // namespace tcc
