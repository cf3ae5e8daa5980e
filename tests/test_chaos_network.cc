/**
 * @file
 * Unit tests for the fault-injection network decorator: deterministic
 * per (seed, config), delay bounded by jitter + reorderWindow, jitter
 * alone reordering one mesh route, and duplication restricted to
 * idempotent reply types. A system-level
 * section runs real workloads over every chaos preset with both
 * checkers armed.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "noc/chaos_network.hh"
#include "core/system.hh"
#include "workload/registry.hh"

namespace tcc {
namespace {

/** One observed delivery at an endpoint. */
struct Delivery {
    Tick tick;
    MsgType type;
    NodeId src;
    std::uint32_t seq;

    bool
    operator==(const Delivery &o) const
    {
        return tick == o.tick && type == o.type && src == o.src &&
               seq == o.seq;
    }
};

/** Chaos over a 1-cycle ideal base with recording endpoints. */
struct Harness {
    EventQueue eq;
    std::unique_ptr<ChaosNetwork> net;
    std::vector<std::vector<Delivery>> inbox;

    explicit Harness(const ChaosConfig &cfg, std::uint32_t nodes = 4,
                     Tick base_latency = 1)
        : inbox(nodes)
    {
        net = std::make_unique<ChaosNetwork>(
            eq, nodes,
            std::make_unique<IdealNetwork>(eq, nodes, base_latency),
            cfg);
        for (NodeId n = 0; n < nodes; ++n)
            net->connect(n, [this, n](const Message &m) {
                inbox[n].push_back(
                    {eq.now(), m.type, m.src, m.seq});
            });
    }

    void
    post(MsgType t, NodeId src, NodeId dst, std::uint32_t seq = 0)
    {
        Message m;
        m.type = t;
        m.src = src;
        m.dst = dst;
        m.seq = seq;
        m.bytes = 8;
        net->send(m);
    }
};

ChaosConfig
noisyConfig(std::uint64_t seed)
{
    ChaosConfig cfg;
    cfg.jitter = 6;
    cfg.reorderProb = 0.5;
    cfg.reorderWindow = 20;
    cfg.duplicateProb = 0.3;
    cfg.duplicateLag = 5;
    cfg.seed = seed;
    return cfg;
}

std::vector<std::vector<Delivery>>
runBurst(const ChaosConfig &cfg)
{
    Harness h(cfg);
    for (std::uint32_t i = 0; i < 40; ++i) {
        h.post(MsgType::LoadReply, i % 4,
               static_cast<NodeId>((i + 1) % 4), i);
        h.post(MsgType::Skip, (i + 2) % 4,
               static_cast<NodeId>((i + 3) % 4), i);
    }
    h.eq.run();
    return h.inbox;
}

TEST(ChaosNetwork, DeterministicPerSeed)
{
    const auto a = runBurst(noisyConfig(7));
    const auto b = runBurst(noisyConfig(7));
    EXPECT_EQ(a, b) << "same (seed, config) must replay identically";
}

TEST(ChaosNetwork, DifferentSeedsPerturbDifferently)
{
    const auto a = runBurst(noisyConfig(7));
    const auto b = runBurst(noisyConfig(8));
    EXPECT_NE(a, b)
        << "distinct seeds should produce distinct fault schedules";
}

TEST(ChaosNetwork, ExtraDelayBoundedByJitterPlusWindow)
{
    ChaosConfig cfg = noisyConfig(11);
    cfg.duplicateProb = 0.0; // duplicates would confuse the census
    constexpr Tick kBase = 1;
    Harness h(cfg, 4, kBase);

    // All messages posted at tick 0: the delivery tick IS the latency.
    for (std::uint32_t i = 0; i < 200; ++i)
        h.post(MsgType::Probe, 0, static_cast<NodeId>(1 + i % 3), i);
    h.eq.run();

    std::size_t seen = 0;
    bool any_late = false;
    for (const auto &box : h.inbox)
        for (const auto &d : box) {
            ++seen;
            EXPECT_GE(d.tick, kBase);
            EXPECT_LE(d.tick,
                      kBase + cfg.jitter + cfg.reorderWindow);
            if (d.tick > kBase + cfg.jitter)
                any_late = true; // a reorder hold actually fired
        }
    EXPECT_EQ(seen, 200u) << "chaos must never drop messages";
    EXPECT_TRUE(any_late);
    EXPECT_GT(h.net->chaosStats().reordersHeld, 0u);
    EXPECT_LE(h.net->chaosStats().maxExtraDelay,
              cfg.jitter + cfg.reorderWindow);
}

TEST(ChaosNetwork, JitterReordersSometimes)
{
    // The mesh alone keeps one route FIFO (MeshNetwork.SameRouteIsFifo);
    // the jitter preset (no reorder holds) must still let a later
    // message overtake an earlier one.
    const ChaosConfig cfg = chaosPreset("jitter");
    ASSERT_EQ(cfg.reorderProb, 0.0);
    EventQueue eq;
    ChaosNetwork net(eq, 16, std::make_unique<MeshNetwork>(eq, 16), cfg);
    std::vector<std::uint32_t> order;
    net.connect(15, [&](const Message &m) { order.push_back(m.seq); });
    for (std::uint32_t i = 0; i < 50; ++i) {
        Message m;
        m.type = MsgType::Skip;
        m.src = 0;
        m.dst = 15;
        m.seq = i;
        m.bytes = 16;
        net.send(m);
    }
    eq.run();
    ASSERT_EQ(order.size(), 50u);
    bool reordered = false;
    for (std::size_t i = 1; i < order.size(); ++i)
        if (order[i] < order[i - 1])
            reordered = true;
    EXPECT_TRUE(reordered);
}

TEST(ChaosNetwork, DuplicatesOnlyIdempotentReplies)
{
    ChaosConfig cfg;
    cfg.jitter = 0;
    cfg.reorderProb = 0.0;
    cfg.reorderWindow = 0;
    cfg.duplicateProb = 1.0; // every eligible message duplicates
    cfg.duplicateLag = 5;
    cfg.seed = 3;
    Harness h(cfg);

    h.post(MsgType::LoadReply, 0, 1, 42);
    h.post(MsgType::ProbeReply, 0, 2);
    h.post(MsgType::TidReply, 0, 3); // gap-free TIDs: never duplicated
    h.eq.run();

    EXPECT_EQ(h.inbox[1].size(), 2u)
        << "LoadReply is idempotent and must arrive twice";
    EXPECT_EQ(h.inbox[2].size(), 2u)
        << "ProbeReply is idempotent and must arrive twice";
    EXPECT_EQ(h.inbox[3].size(), 1u)
        << "TidReply duplication would mint two transactions";
    // The copy carries the same sequence tag as the original.
    EXPECT_EQ(h.inbox[1][0].seq, 42u);
    EXPECT_EQ(h.inbox[1][1].seq, 42u);
    EXPECT_EQ(h.net->chaosStats().duplicates, 2u);
}

TEST(ChaosNetwork, DuplicablePredicate)
{
    EXPECT_TRUE(chaosDuplicable(MsgType::LoadReply));
    EXPECT_TRUE(chaosDuplicable(MsgType::ProbeReply));
    EXPECT_FALSE(chaosDuplicable(MsgType::TidReply));
    EXPECT_FALSE(chaosDuplicable(MsgType::Inv));
    EXPECT_FALSE(chaosDuplicable(MsgType::InvAck));
    EXPECT_FALSE(chaosDuplicable(MsgType::Commit));
    EXPECT_FALSE(chaosDuplicable(MsgType::Mark));
    EXPECT_FALSE(chaosDuplicable(MsgType::Skip));
    EXPECT_FALSE(chaosDuplicable(MsgType::WriteBack));
}

TEST(ChaosNetwork, PresetsAllParse)
{
    for (const auto &name : chaosPresetNames()) {
        const ChaosConfig cfg = chaosPreset(name);
        SystemConfig sys_cfg;
        sys_cfg.numProcs = 4;
        sys_cfg.network.model = NetworkConfig::Model::Chaos;
        sys_cfg.network.chaos = cfg;
        EXPECT_EQ(sys_cfg.validate(), "") << "preset " << name;
    }
}

// --- system-level: real workloads survive every preset --------------

RunResult
runChaosApp(const std::string &preset, std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.numProcs = 8;
    cfg.network.model = NetworkConfig::Model::Chaos;
    cfg.network.chaos = chaosPreset(preset);
    cfg.network.chaos.seed = seed;
    cfg.check.serial = true;
    cfg.check.invariants = true;
    System sys(cfg);
    const WorkloadBundle bundle =
        makeWorkload("radix", {}, seed, cfg.numProcs);
    bundle.attach(sys);
    return sys.run(2'000'000'000ull);
}

TEST(ChaosSystem, EveryPresetRunsCleanWithBothCheckers)
{
    for (const auto &preset : chaosPresetNames()) {
        SCOPED_TRACE(preset);
        const RunResult res = runChaosApp(preset, 1234);
        ASSERT_TRUE(res.completed);
        EXPECT_TRUE(res.quiesced);
        EXPECT_TRUE(res.serial.ok) << res.serial.error;
        EXPECT_TRUE(res.invariants.ok) << res.invariants.error;
        EXPECT_GT(res.invariants.checks, 0u)
            << "checker hooks never fired - observer not attached?";
    }
}

TEST(ChaosSystem, RunFingerprintIsAFunctionOfSeed)
{
    const RunResult a = runChaosApp("heavy", 99);
    const RunResult b = runChaosApp("heavy", 99);
    const RunResult c = runChaosApp("heavy", 100);
    ASSERT_TRUE(a.completed);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.events, b.events);
    EXPECT_TRUE(a.cycles != c.cycles || a.events != c.events)
        << "different chaos seeds should not collide exactly";
}

} // namespace
} // namespace tcc
