/**
 * @file
 * Unit tests for the interconnect models: delivery, routing distance,
 * serialization, contention, and traffic accounting.
 */

#include <gtest/gtest.h>

#include <vector>

#include "noc/network.hh"
#include "sim/event_queue.hh"

namespace tcc {
namespace {

Message
mkMsg(NodeId src, NodeId dst, MsgType t = MsgType::Skip,
      std::uint32_t bytes = 16)
{
    Message m;
    m.type = t;
    m.src = src;
    m.dst = dst;
    m.bytes = bytes;
    return m;
}

TEST(IdealNetwork, DeliversWithFixedLatency)
{
    EventQueue eq;
    IdealNetwork net(eq, 4, 7);
    Tick arrival = 0;
    net.connect(2, [&](const Message &) { arrival = eq.now(); });
    net.send(mkMsg(0, 2));
    eq.run();
    EXPECT_EQ(arrival, 7u);
}

TEST(IdealNetwork, NeverDeliversInline)
{
    EventQueue eq;
    IdealNetwork net(eq, 2, 0);
    bool delivered = false;
    net.connect(1, [&](const Message &) { delivered = true; });
    net.send(mkMsg(0, 1));
    EXPECT_FALSE(delivered); // asynchronous even at zero latency
    eq.run();
    EXPECT_TRUE(delivered);
}

TEST(MeshNetwork, GridIsSquareish)
{
    EventQueue eq;
    MeshNetwork net16(eq, 16);
    EXPECT_EQ(net16.cols(), 4u);
    EXPECT_EQ(net16.rows(), 4u);
    MeshNetwork net8(eq, 8);
    EXPECT_EQ(net8.cols(), 3u);
}

TEST(MeshNetwork, HopCountIsManhattan)
{
    EventQueue eq;
    MeshNetwork net(eq, 16); // 4x4
    EXPECT_EQ(net.hopCount(0, 0), 0u);
    EXPECT_EQ(net.hopCount(0, 3), 3u);
    EXPECT_EQ(net.hopCount(0, 15), 6u);
    EXPECT_EQ(net.hopCount(5, 6), 1u);
}

TEST(MeshNetwork, LatencyScalesWithHops)
{
    EventQueue eq;
    MeshConfig cfg;
    cfg.hopLatency = 3;
    cfg.linkBytesPerCycle = 8;
    cfg.routerDelay = 1;
    // Use separate meshes so the two sends do not contend for the
    // shared 0->east link.
    MeshNetwork near_net(eq, 16, cfg);
    MeshNetwork far_net(eq, 16, cfg);

    Tick t_near = 0, t_far = 0;
    near_net.connect(1, [&](const Message &) { t_near = eq.now(); });
    far_net.connect(15, [&](const Message &) { t_far = eq.now(); });
    near_net.send(mkMsg(0, 1, MsgType::Skip, 16));
    far_net.send(mkMsg(0, 15, MsgType::Skip, 16));
    eq.run();
    // 1 hop: router + ser(2) + hop(3) + router = 7.
    EXPECT_EQ(t_near, 7u);
    // 6 hops of the same per-hop cost.
    EXPECT_EQ(t_far, 1u + 6 * (2 + 3 + 1));
}

TEST(MeshNetwork, LocalLoopbackIsOneCycle)
{
    EventQueue eq;
    MeshNetwork net(eq, 4);
    Tick arrival = 0;
    net.connect(0, [&](const Message &) { arrival = eq.now(); });
    net.send(mkMsg(0, 0));
    eq.run();
    EXPECT_EQ(arrival, 1u);
}

TEST(MeshNetwork, ContentionSerializesOnSharedLink)
{
    EventQueue eq;
    MeshConfig cfg;
    cfg.hopLatency = 1;
    cfg.linkBytesPerCycle = 1; // 16-byte message = 16 cycles per link
    cfg.routerDelay = 0;
    MeshNetwork net(eq, 4, cfg); // 2x2
    std::vector<Tick> arrivals;
    net.connect(1, [&](const Message &) {
        arrivals.push_back(eq.now());
    });
    // Two messages fighting for the same 0->1 link.
    net.send(mkMsg(0, 1));
    net.send(mkMsg(0, 1));
    eq.run();
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_EQ(arrivals[1] - arrivals[0], 16u); // one serialization gap
}

TEST(MeshNetwork, HigherBandwidthShrinksSerialization)
{
    EventQueue eq;
    MeshConfig wide;
    wide.hopLatency = 1;
    wide.linkBytesPerCycle = 16;
    wide.routerDelay = 0;
    MeshNetwork net(eq, 4, wide);
    std::vector<Tick> arrivals;
    net.connect(1, [&](const Message &) {
        arrivals.push_back(eq.now());
    });
    net.send(mkMsg(0, 1));
    net.send(mkMsg(0, 1));
    eq.run();
    EXPECT_EQ(arrivals[1] - arrivals[0], 1u);
}

TEST(MeshNetwork, TrafficAccounting)
{
    EventQueue eq;
    MeshNetwork net(eq, 4);
    net.connect(1, [](const Message &) {});
    net.send(mkMsg(0, 1, MsgType::LoadReq, 24));
    net.send(mkMsg(0, 1, MsgType::WriteBack, 48));
    eq.run();
    const auto &s = net.stats();
    EXPECT_EQ(s.messages, 2u);
    EXPECT_EQ(s.totalBytes, 72u);
    EXPECT_EQ(s.classBytes[(int)TrafficClass::Miss], 24u);
    EXPECT_EQ(s.classBytes[(int)TrafficClass::WriteBack], 48u);
    EXPECT_EQ(s.nodeBytes[1], 72u);
}

TEST(MeshNetwork, SameRouteIsFifo)
{
    EventQueue eq;
    MeshNetwork net(eq, 16);
    std::vector<int> order;
    net.connect(15, [&](const Message &m) {
        order.push_back(static_cast<int>(m.tid));
    });
    for (int i = 0; i < 10; ++i) {
        auto m = mkMsg(0, 15);
        m.tid = i;
        net.send(m);
    }
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

} // namespace
} // namespace tcc
