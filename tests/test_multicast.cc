/**
 * @file
 * Tests for the commit fan-out multicast layer (noc/network.hh):
 * flat-mode bit-identity with the per-destination send loop it
 * replaced, combining-tree delivery correctness and determinism, the
 * NIC-serialization sublinearity the tree exists for, and the
 * system-level gate that flat and tree runs commit the same
 * transactions and produce the same memory image.
 */

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "core/system.hh"
#include "noc/network.hh"
#include "sim/event_queue.hh"
#include "workload/registry.hh"

namespace tcc {
namespace {

Message
mkMsg(NodeId src, MsgType t = MsgType::Skip, std::uint32_t bytes = 16)
{
    Message m;
    m.type = t;
    m.src = src;
    m.bytes = bytes;
    return m;
}

std::vector<NodeId>
allExcept(std::uint32_t nodes, NodeId src)
{
    std::vector<NodeId> dsts;
    for (NodeId n = 0; n < nodes; ++n)
        if (n != src)
            dsts.push_back(n);
    return dsts;
}

MulticastConfig
treeCfg(std::uint32_t fanout)
{
    MulticastConfig mc;
    mc.topology = MulticastConfig::Topology::Tree;
    mc.fanout = fanout;
    return mc;
}

/** Per-destination arrival ticks for one fan-out on a fresh mesh. */
std::map<NodeId, Tick>
arrivalsFor(std::uint32_t nodes, const MulticastConfig &mc,
            std::span<const NodeId> dsts, MulticastReceipt *receipt)
{
    EventQueue eq;
    MeshNetwork net(eq, nodes);
    net.setMulticast(mc);
    std::map<NodeId, Tick> arrivals;
    for (NodeId n = 0; n < nodes; ++n)
        net.connect(n, [&, n](const Message &) {
            EXPECT_EQ(arrivals.count(n), 0u)
                << "duplicate delivery to node " << n;
            arrivals[n] = eq.now();
        });
    *receipt = net.multicast(mkMsg(0), dsts);
    eq.run();
    return arrivals;
}

TEST(Multicast, FlatMatchesSendLoopBitForBit)
{
    // The flat strategy must reproduce the exact per-destination send()
    // loop it replaced: same arrival tick at every destination, same
    // traffic counters, because golden trace fingerprints are gated on
    // that identity.
    const std::uint32_t nodes = 16;
    const auto dsts = allExcept(nodes, 0);

    EventQueue eqLoop;
    MeshNetwork loopNet(eqLoop, nodes);
    std::map<NodeId, Tick> loopArrivals;
    for (NodeId n = 0; n < nodes; ++n)
        loopNet.connect(n, [&, n](const Message &) {
            loopArrivals[n] = eqLoop.now();
        });
    for (NodeId d : dsts) {
        Message m = mkMsg(0);
        m.dst = d;
        loopNet.send(std::move(m));
    }
    eqLoop.run();

    MulticastReceipt r;
    const auto mcArrivals =
        arrivalsFor(nodes, MulticastConfig{}, dsts, &r);

    EXPECT_EQ(mcArrivals, loopArrivals);
    EXPECT_EQ(r.dests, dsts.size());
    EXPECT_EQ(r.nicSerialized, dsts.size()); // O(N) at one NIC
    EXPECT_EQ(r.depth, 1u);
}

TEST(Multicast, TreeDeliversEveryDestinationExactlyOnce)
{
    const std::uint32_t nodes = 64;
    const auto dsts = allExcept(nodes, 0);
    MulticastReceipt r;
    const auto arrivals = arrivalsFor(nodes, treeCfg(4), dsts, &r);
    ASSERT_EQ(arrivals.size(), dsts.size());
    for (NodeId d : dsts)
        EXPECT_TRUE(arrivals.count(d)) << "node " << d << " missed";
    EXPECT_EQ(arrivals.count(0), 0u); // source gets no copy
    EXPECT_EQ(r.dests, dsts.size());
    EXPECT_GT(r.depth, 1u);
}

TEST(Multicast, TreeStagingIsDeterministic)
{
    // Two fresh meshes, same configuration, same fan-out: identical
    // receipt and identical per-destination arrival schedule. The
    // combining tree is resolved analytically at multicast() time, so
    // nothing about it may depend on incidental state.
    const std::uint32_t nodes = 256;
    const auto dsts = allExcept(nodes, 3);
    MulticastReceipt r1, r2;
    const auto a1 = arrivalsFor(nodes, treeCfg(4), dsts, &r1);
    const auto a2 = arrivalsFor(nodes, treeCfg(4), dsts, &r2);
    EXPECT_EQ(a1, a2);
    EXPECT_EQ(r1.dests, r2.dests);
    EXPECT_EQ(r1.nicSerialized, r2.nicSerialized);
    EXPECT_EQ(r1.depth, r2.depth);
}

TEST(Multicast, TreeRelayOrderFollowsAscendingRanks)
{
    // Relays forward in destination-list order: a child fed by relay
    // rank p can never arrive before its parent's copy did (each tree
    // edge pays a full XY route plus the relay's router delay).
    const std::uint32_t nodes = 64;
    const std::uint32_t k = 4;
    const auto dsts = allExcept(nodes, 0);
    MulticastReceipt r;
    const auto arrivals = arrivalsFor(nodes, treeCfg(k), dsts, &r);
    for (std::size_t i = k; i < dsts.size(); ++i) {
        const std::size_t parent = i / k - 1;
        EXPECT_GT(arrivals.at(dsts[i]), arrivals.at(dsts[parent]))
            << "child " << dsts[i] << " beat parent " << dsts[parent];
    }
}

TEST(Multicast, TreeFallsBackToFlatBelowMinDests)
{
    const std::uint32_t nodes = 64;
    MulticastConfig mc = treeCfg(4);
    mc.minDests = 8;
    const std::vector<NodeId> few{1, 2, 3, 4};
    MulticastReceipt rTree, rFlat;
    const auto aTree = arrivalsFor(nodes, mc, few, &rTree);
    const auto aFlat =
        arrivalsFor(nodes, MulticastConfig{}, few, &rFlat);
    EXPECT_EQ(aTree, aFlat);
    EXPECT_EQ(rTree.nicSerialized, rFlat.nicSerialized);
    EXPECT_EQ(rTree.depth, 1u);
}

TEST(Multicast, TreeNicSerializationIsSublinear)
{
    // The reason the tree exists: a broadcast's critical path must cost
    // O(k log_k N) serialized injections at any one NIC, not O(N).
    const std::uint32_t nodes = 1024;
    const auto dsts = allExcept(nodes, 0);
    MulticastReceipt rFlat, rTree;
    arrivalsFor(nodes, MulticastConfig{}, dsts, &rFlat);
    arrivalsFor(nodes, treeCfg(4), dsts, &rTree);
    EXPECT_EQ(rFlat.nicSerialized, dsts.size());
    EXPECT_LT(rTree.nicSerialized, dsts.size() / 8);
    EXPECT_GT(rTree.depth, 1u);
}

TEST(Multicast, NetworkStatsCountFanouts)
{
    EventQueue eq;
    MeshNetwork net(eq, 16);
    for (NodeId n = 0; n < 16; ++n)
        net.connect(n, [](const Message &) {});
    const auto dsts = allExcept(16, 0);
    net.multicast(mkMsg(0), dsts);
    net.multicast(mkMsg(0), dsts);
    eq.run();
    EXPECT_EQ(net.stats().multicasts, 2u);
    EXPECT_EQ(net.stats().multicastNicEvents, 2 * dsts.size());
}

// ---------------------------------------------------------------------
// System-level outcome gate: the tree changes message timing only.
// A flat and a tree run of the same workload must commit the same
// number of transactions and leave bit-identical memory images, with
// the online invariant checker clean in both. The workload pins
// writeSpreadDirs=1 so every plain store has a single writer and the
// final image is a pure function of the committed set (commit order
// legitimately shifts under the tree).
// ---------------------------------------------------------------------

struct Outcome {
    std::uint64_t commits = 0;
    std::uint64_t fingerprint = 0;
};

Outcome
runOutcome(const MulticastConfig &mc, std::uint32_t domains = 0)
{
    SystemConfig cfg;
    cfg.numProcs = 64;
    cfg.homePolicy = HomePolicy::Interleave;
    cfg.network.multicast = mc;
    cfg.check.invariants = true;
    cfg.pdes.domains = domains;
    System sys(cfg);
    const WorkloadBundle bundle = makeWorkload(
        "barnes",
        WorkloadParams::parse(
            "write_spread_dirs=1,phases=1,txns_per_phase=128"),
        /*seed=*/7, cfg.numProcs);
    bundle.attach(sys);
    RunResult res = sys.run();
    EXPECT_TRUE(res.completed);
    EXPECT_TRUE(res.quiesced);
    EXPECT_TRUE(res.invariants.ok) << res.invariants.error;
    return {res.committedTxns, sys.memory().fingerprint()};
}

TEST(MulticastSystem, TreeMatchesFlatOutcome)
{
    const Outcome flat = runOutcome(MulticastConfig{});
    const Outcome tree4 = runOutcome(treeCfg(4));
    const Outcome tree8 = runOutcome(treeCfg(8));
    EXPECT_GT(flat.commits, 0u);
    EXPECT_EQ(tree4.commits, flat.commits);
    EXPECT_EQ(tree4.fingerprint, flat.fingerprint);
    EXPECT_EQ(tree8.commits, flat.commits);
    EXPECT_EQ(tree8.fingerprint, flat.fingerprint);
}

TEST(MulticastSystem, TreeUnderPdesMatchesSequentialTree)
{
    // Domain decomposition is invisible to the model: a tree-multicast
    // run split across PDES domains must reproduce the sequential
    // tree run exactly, not merely a valid serialization.
    const Outcome seq = runOutcome(treeCfg(4));
    const Outcome pdes = runOutcome(treeCfg(4), /*domains=*/4);
    EXPECT_EQ(pdes.commits, seq.commits);
    EXPECT_EQ(pdes.fingerprint, seq.fingerprint);
}

TEST(MulticastSystem, GoldenSerialTreeRun)
{
    // Absolute outcome of one serial-engine tree-k4 run. The gates
    // above compare tree with flat and PDES with serial; this pins the
    // tree schedule's timing itself. The values come from a known-good
    // build and are never edited to follow a code change.
    SystemConfig cfg;
    cfg.numProcs = 64;
    cfg.homePolicy = HomePolicy::Interleave;
    cfg.network.multicast = treeCfg(4);
    cfg.check.serial = true;
    cfg.check.invariants = true;
    System sys(cfg);
    const WorkloadBundle bundle = makeWorkload(
        "barnes",
        WorkloadParams::parse(
            "write_spread_dirs=1,phases=1,txns_per_phase=128"),
        /*seed=*/7, cfg.numProcs);
    bundle.attach(sys);
    const RunResult r = sys.run();
    ASSERT_TRUE(r.completed);
    ASSERT_TRUE(r.checksPassed()) << r.serial.error << r.invariants.error;
    EXPECT_GT(sys.network().stats().multicasts, 0u);
    EXPECT_EQ(r.cycles, 64584u);
    EXPECT_EQ(r.committedTxns, 128u);
    EXPECT_EQ(r.violations, 2u);
    EXPECT_EQ(r.events, 115002u);
    EXPECT_EQ(sys.memory().fingerprint(), 4472990100756069682ull);
}

} // namespace
} // namespace tcc
