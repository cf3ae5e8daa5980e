/**
 * @file
 * Tests for the conservative PDES engine (sim/domain.hh): partitioner
 * properties, the window-barrier message-ordering contract, the
 * determinism contract - a PDES run is a pure function of (config,
 * seeds, domain count) - and absolute golden runs. A chaos section
 * runs every fault preset with both checkers armed.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/system.hh"
#include "sim/domain.hh"
#include "workload/scripted_source.hh"
#include "workload/registry.hh"

namespace tcc {
namespace {

// --- partitioner properties -----------------------------------------

PdesPlan
meshPlan(std::uint32_t procs, std::uint32_t domains,
         MeshConfig mesh = MeshConfig{})
{
    return computePdesPlan(procs, domains, /*mesh_based=*/true, mesh,
                           /*ideal=*/1);
}

PdesPlan
idealPlan(std::uint32_t procs, std::uint32_t domains, Tick latency)
{
    return computePdesPlan(procs, domains, /*mesh_based=*/false,
                           MeshConfig{}, latency);
}

TEST(PdesPartition, EveryNodeInExactlyOneDomain)
{
    // Square, ragged, and tiny node counts; over- and under-requests.
    const std::uint32_t cases[][2] = {{16, 4}, {10, 3}, {64, 8},
                                      {7, 2},  {256, 8}, {9, 9}};
    for (const auto &c : cases) {
        SCOPED_TRACE(std::to_string(c[0]) + " procs / " +
                     std::to_string(c[1]) + " domains");
        const PdesPlan plan = meshPlan(c[0], c[1]);
        std::vector<unsigned> owners(c[0], 0);
        for (const DomainSpec &s : plan.domains)
            for (NodeId n = s.firstNode; n < s.firstNode + s.numNodes;
                 ++n) {
                ASSERT_LT(n, c[0]);
                ++owners[n];
            }
        for (std::uint32_t n = 0; n < c[0]; ++n)
            EXPECT_EQ(owners[n], 1u) << "node " << n;
    }
}

TEST(PdesPartition, DomainsAreContiguousRowBlocks)
{
    const PdesPlan plan = meshPlan(64, 4); // 8x8 grid
    ASSERT_EQ(plan.gridCols, 8u);
    ASSERT_EQ(plan.gridRows, 8u);
    ASSERT_EQ(plan.domains.size(), 4u);
    NodeId expect_first = 0;
    for (const DomainSpec &s : plan.domains) {
        EXPECT_EQ(s.firstNode, expect_first)
            << "domains must tile the NodeId space in order";
        EXPECT_EQ(s.firstNode % plan.gridCols, 0u)
            << "domain boundaries must fall on row boundaries";
        expect_first = s.firstNode + s.numNodes;
    }
    EXPECT_EQ(expect_first, 64u);
    // nodeDomain and rowDomain agree with the specs.
    for (const DomainSpec &s : plan.domains)
        for (NodeId n = s.firstNode; n < s.firstNode + s.numNodes; ++n) {
            EXPECT_EQ(plan.nodeDomain[n], s.id);
            EXPECT_EQ(plan.rowDomain[n / plan.gridCols], s.id);
        }
}

TEST(PdesPartition, RaggedGridKeepsRowAlignment)
{
    // 10 nodes -> 4x3 grid with two phantom slots in the last row.
    const PdesPlan plan = meshPlan(10, 3);
    ASSERT_EQ(plan.gridCols, 4u);
    ASSERT_EQ(plan.gridRows, 3u);
    ASSERT_EQ(plan.rowDomain.size(), 3u);
    for (const DomainSpec &s : plan.domains)
        EXPECT_EQ(s.firstNode % plan.gridCols, 0u);
    // The last row's domain also owns its phantom slots' links.
    EXPECT_EQ(plan.rowDomain.back(),
              plan.domains.back().id);
}

TEST(PdesPartition, RequestClampedToTopology)
{
    // Mesh: a 4x4 grid has 4 rows; requesting 9 domains yields 4.
    EXPECT_EQ(meshPlan(16, 9).domains.size(), 4u);
    // Ideal: clamped to the node count.
    EXPECT_EQ(idealPlan(8, 99, 1).domains.size(), 8u);
}

TEST(PdesPartition, LookaheadFormula)
{
    MeshConfig m;
    m.routerDelay = 2;
    m.hopLatency = 5;
    // Minimum cross-domain crossing: router in + 1-cycle
    // serialization + hop + router out.
    EXPECT_EQ(meshPlan(16, 4, m).lookahead, Tick{2 * 2 + 5 + 1});
    EXPECT_EQ(idealPlan(16, 4, 7).lookahead, Tick{7});
    EXPECT_EQ(idealPlan(16, 4, 0).lookahead, Tick{1})
        << "zero-latency ideal still needs a 1-cycle window";
}

// --- window-barrier message ordering --------------------------------

/** Two ideal-network domains over 4 nodes; domain 0 owns {0,1},
 *  domain 1 owns {2,3}. Records deliveries at domain 1's endpoints. */
struct MailboxHarness {
    PdesState st;
    std::vector<std::vector<std::pair<Tick, std::uint32_t>>> inbox;

    explicit MailboxHarness(Tick latency)
        : st(idealPlan(4, 2, latency)), inbox(4)
    {
        DomainNetConfig ncfg;
        ncfg.meshBased = false;
        ncfg.idealLatency = latency;
        for (const DomainSpec &spec : st.plan.domains) {
            auto d = std::make_unique<PdesDomain>(
                spec, TraceRecorder::kDefaultCapacity);
            d->net = std::make_unique<DomainNet>(d->eq, 4, spec,
                                                 st.plan, ncfg);
            for (NodeId n = spec.firstNode;
                 n < spec.firstNode + spec.numNodes; ++n)
                d->net->connect(n, [this, n](const Message &m) {
                    inbox[n].push_back(
                        {st.domains[st.plan.nodeDomain[n]]->eq.now(),
                         m.seq});
                });
            st.domains.push_back(std::move(d));
        }
    }

    void
    post(NodeId src, NodeId dst, std::uint32_t seq)
    {
        Message m;
        m.type = MsgType::Probe;
        m.src = src;
        m.dst = dst;
        m.seq = seq;
        m.bytes = 8;
        st.domains[st.plan.nodeDomain[src]]->net->send(m);
    }
};

TEST(PdesMailbox, FlushPreservesPerPairSendOrder)
{
    MailboxHarness h(/*latency=*/4);
    // Interleave two cross-domain pairs; all sends inside window 0.
    for (std::uint32_t i = 0; i < 16; ++i) {
        h.post(0, 2, i);       // pair A
        h.post(1, 3, 100 + i); // pair B
    }
    ASSERT_EQ(h.st.domains[0]->net->crossMessages(), 32u);

    const Tick window_end = h.st.plan.lookahead;
    h.st.initPulse(); // flushMailboxes consults the parcel flags
    EXPECT_EQ(h.st.flushMailboxes(window_end), 32u);
    h.st.domains[1]->eq.run();

    ASSERT_EQ(h.inbox[2].size(), 16u);
    ASSERT_EQ(h.inbox[3].size(), 16u);
    for (std::uint32_t i = 0; i < 16; ++i) {
        // Same per-(src,dst) FIFO order a serial network delivers.
        EXPECT_EQ(h.inbox[2][i].second, i);
        EXPECT_EQ(h.inbox[3][i].second, 100 + i);
        // Nothing may land inside the window it was sent in.
        EXPECT_GE(h.inbox[2][i].first, window_end);
    }
}

TEST(PdesMailbox, MeshParcelsRespectTheLookahead)
{
    // 16 nodes, 4 row-domains over the default mesh; every
    // cross-domain parcel sent at tick 0 must arrive at or after the
    // derived lookahead, or conservative execution is unsound.
    PdesState st(meshPlan(16, 4));
    DomainNetConfig ncfg;
    ncfg.meshBased = true;
    for (const DomainSpec &spec : st.plan.domains) {
        auto d = std::make_unique<PdesDomain>(
            spec, TraceRecorder::kDefaultCapacity);
        d->net = std::make_unique<DomainNet>(d->eq, 16, spec, st.plan,
                                             ncfg);
        st.domains.push_back(std::move(d));
    }
    // Saturate: every node sends to every foreign-domain node.
    for (NodeId s = 0; s < 16; ++s)
        for (NodeId t = 0; t < 16; ++t) {
            if (st.plan.nodeDomain[s] == st.plan.nodeDomain[t])
                continue;
            Message m;
            m.type = MsgType::Probe;
            m.src = s;
            m.dst = t;
            m.bytes = 64; // several serialization cycles
            st.domains[st.plan.nodeDomain[s]]->net->send(m);
        }
    std::uint64_t parcels = 0;
    for (const auto &d : st.domains)
        for (const auto &box : d->net->outbox)
            for (const DomainNet::Parcel &p : box) {
                EXPECT_GE(p.when, st.plan.lookahead)
                    << p.msg.src << "->" << p.msg.dst;
                ++parcels;
            }
    EXPECT_EQ(parcels, 16u * 12u);
    // flushMailboxes itself enforces the same bound (panics on
    // violation) - exercise the success path.
    st.initPulse();
    EXPECT_EQ(st.flushMailboxes(st.plan.lookahead), parcels);
}

// --- determinism ---------------------------------------------------

RunResult
runPdes(const std::string &app, std::uint32_t procs,
        std::uint32_t domains, const std::string &chaos_preset = "",
        std::uint64_t seed = 42, Tick max_ticks = 2'000'000'000ull)
{
    SystemConfig cfg;
    cfg.numProcs = procs;
    cfg.homePolicy = HomePolicy::Interleave;
    cfg.check.serial = true;
    cfg.check.invariants = true;
    cfg.pdes.domains = domains;
    if (!chaos_preset.empty()) {
        cfg.network.model = NetworkConfig::Model::Chaos;
        cfg.network.chaos = chaosPreset(chaos_preset);
        cfg.network.chaos.seed = seed;
    }
    System sys(cfg);
    const WorkloadBundle bundle =
        makeWorkload(app, {}, seed, cfg.numProcs);
    bundle.attach(sys);
    return sys.run(max_ticks);
}

/** Full-RunResult equality (the window-width distribution aside). */
void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.quiesced, b.quiesced);
    EXPECT_EQ(a.breakdown.useful, b.breakdown.useful);
    EXPECT_EQ(a.breakdown.miss, b.breakdown.miss);
    EXPECT_EQ(a.breakdown.commit, b.breakdown.commit);
    EXPECT_EQ(a.breakdown.idle, b.breakdown.idle);
    EXPECT_EQ(a.breakdown.violation, b.breakdown.violation);
    EXPECT_EQ(a.committedTxns, b.committedTxns);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.overflows, b.overflows);
    EXPECT_EQ(a.committedInstructions, b.committedInstructions);
    ASSERT_EQ(a.procs.size(), b.procs.size());
    for (std::size_t p = 0; p < a.procs.size(); ++p) {
        EXPECT_EQ(a.procs[p].txnsCommitted, b.procs[p].txnsCommitted);
        EXPECT_EQ(a.procs[p].violations, b.procs[p].violations);
        EXPECT_EQ(a.procs[p].overflows, b.procs[p].overflows);
        EXPECT_EQ(a.procs[p].soloCommits, b.procs[p].soloCommits);
        EXPECT_EQ(a.procs[p].committedInstructions,
                  b.procs[p].committedInstructions);
    }
    ASSERT_EQ(a.dirs.size(), b.dirs.size());
    for (std::size_t d = 0; d < a.dirs.size(); ++d) {
        EXPECT_EQ(a.dirs[d].nstid, b.dirs[d].nstid);
        EXPECT_EQ(a.dirs[d].commitsServed, b.dirs[d].commitsServed);
        EXPECT_EQ(a.dirs[d].skipsReceived, b.dirs[d].skipsReceived);
        EXPECT_EQ(a.dirs[d].abortsServed, b.dirs[d].abortsServed);
        EXPECT_EQ(a.dirs[d].invalidationsSent,
                  b.dirs[d].invalidationsSent);
        EXPECT_EQ(a.dirs[d].writeBacksDropped,
                  b.dirs[d].writeBacksDropped);
    }
    EXPECT_EQ(a.serial.ok, b.serial.ok);
    EXPECT_EQ(a.serial.checks, b.serial.checks);
    EXPECT_EQ(a.serial.error, b.serial.error);
    EXPECT_EQ(a.invariants.ok, b.invariants.ok);
    EXPECT_EQ(a.invariants.checks, b.invariants.checks);
    EXPECT_EQ(a.invariants.error, b.invariants.error);
    EXPECT_EQ(a.pdes.domains, b.pdes.domains);
    EXPECT_EQ(a.pdes.lookahead, b.pdes.lookahead);
    EXPECT_EQ(a.pdes.phases, b.pdes.phases);
    EXPECT_EQ(a.pdes.mailboxMessages, b.pdes.mailboxMessages);
    EXPECT_EQ(a.pdes.idleDomainSkips, b.pdes.idleDomainSkips);
    EXPECT_EQ(a.pdes.windows, b.pdes.windows);
    EXPECT_EQ(a.pdes.emptyBroadcastsSkipped, b.pdes.emptyBroadcastsSkipped);
}

TEST(PdesDeterminism, RepeatRunsAreIdentical)
{
    const RunResult a = runPdes("radix", 16, 4);
    const RunResult b = runPdes("radix", 16, 4);
    ASSERT_TRUE(a.completed);
    expectSameResult(a, b);
}

TEST(PdesDeterminism, DomainCountIsPartOfTheModel)
{
    // Different partitions are different (valid) executions: both
    // pass the checkers, but fingerprints may differ - the domain
    // count is a model parameter.
    const RunResult d2 = runPdes("barnes", 16, 2);
    const RunResult d4 = runPdes("barnes", 16, 4);
    ASSERT_TRUE(d2.completed);
    ASSERT_TRUE(d4.completed);
    EXPECT_TRUE(d2.checksPassed());
    EXPECT_TRUE(d4.checksPassed());
    EXPECT_EQ(d2.pdes.domains, 2u);
    EXPECT_EQ(d4.pdes.domains, 4u);
    EXPECT_EQ(d2.committedTxns, d4.committedTxns)
        << "every partition must commit the same workload";
}

TEST(PdesDeterminism, PartitionCollapseFallsBackToSerialEngine)
{
    // 2 procs -> 2x1 grid -> one row -> one domain: the PDES request
    // silently collapses and the legacy serial engine runs.
    const RunResult pdes = runPdes("barnes", 2, 4);
    SystemConfig cfg;
    cfg.numProcs = 2;
    cfg.homePolicy = HomePolicy::Interleave;
    cfg.check.serial = true;
    cfg.check.invariants = true;
    System sys(cfg);
    const WorkloadBundle bundle =
        makeWorkload("barnes", {}, 42, cfg.numProcs);
    bundle.attach(sys);
    const RunResult serial = sys.run(2'000'000'000ull);
    ASSERT_TRUE(pdes.completed);
    EXPECT_EQ(pdes.pdes.domains, 0u) << "collapse reports no PDES";
    expectSameResult(pdes, serial);
}

TEST(PdesDeterminism, TickLimitStopsAtMaxTicks)
{
    // The tick-limit rule of every engine: a run cut by max_ticks
    // executes every event at or before it, none later, and reports
    // cycles == max_ticks (not the start of the last window).
    SystemConfig cfg;
    cfg.numProcs = 4;
    cfg.homePolicy = HomePolicy::Interleave;
    cfg.pdes.domains = 2;
    System sys(cfg);
    std::vector<ScriptedSource> srcs(4);
    for (NodeId p = 0; p < 4; ++p) {
        srcs[p].add({TxOp::compute(1'000'000)});
        sys.setSource(p, &srcs[p]);
    }
    const RunResult res = sys.run(/*max_ticks=*/1000);
    EXPECT_EQ(res.pdes.domains, 2u);
    EXPECT_FALSE(res.completed);
    EXPECT_EQ(res.cycles, 1000u);
}

TEST(PdesDeterminism, ValidateRejectsBadConfigs)
{
    SystemConfig cfg;
    cfg.numProcs = 16;
    cfg.pdes.domains = 4;
    // First-touch home assignment depends on a global access order
    // that domains do not share.
    cfg.homePolicy = HomePolicy::FirstTouch;
    EXPECT_NE(cfg.validate(), "");
    cfg.homePolicy = HomePolicy::Interleave;
    EXPECT_EQ(cfg.validate(), "");
}

// --- variable lookahead (adaptive sync) -----------------------------

TEST(PdesAdaptive, WindowBoundHelpersClampAndStayMonotone)
{
    // Plain arithmetic away from the edge...
    EXPECT_EQ(pdesWindowEnd(0, 6), Tick{6});
    EXPECT_EQ(pdesWindowEnd(100, 250), Tick{350});
    // ...and saturation instead of wraparound at kTickMax.
    EXPECT_EQ(pdesWindowEnd(kTickMax - 3, 6), kTickMax);
    EXPECT_EQ(pdesWindowEnd(kTickMax, 6), kTickMax)
        << "an idle domain (next == kTickMax) must impose no bound";
    // The bound is monotone in the next-event tick - the property that
    // makes min-over-domains a safe window bound even as domains drain.
    for (Tick la : {Tick{1}, Tick{6}, Tick{250}}) {
        const Tick nexts[] = {0,           1,       5,
                              6,           1000,    kTickMax - 500,
                              kTickMax - 1, kTickMax};
        Tick prev = 0;
        for (Tick next : nexts) {
            const Tick end = pdesWindowEnd(next, la);
            EXPECT_GE(end, prev) << "next=" << next << " la=" << la;
            EXPECT_GT(end, next - (next == kTickMax ? 1 : 0))
                << "the bound may never precede the event it bounds";
            prev = end;
        }
    }
}

TEST(PdesAdaptive, SpotCheckLargerGridsTruncatedMidWindow)
{
    // Larger partitions, capped at a tick limit that lands mid-window:
    // the max_ticks clamp cuts that sub-phase short, and the run
    // reports the cap as its cycle count.
    struct Cell {
        const char *app;
        std::uint32_t procs;
        std::uint32_t domains;
        Tick cap;
    };
    for (const Cell &c : {Cell{"barnes", 64, 8, 100'003},
                          Cell{"swim", 256, 16, 60'007}}) {
        SCOPED_TRACE(std::string(c.app) + " procs=" +
                     std::to_string(c.procs));
        const RunResult res =
            runPdes(c.app, c.procs, c.domains, "", 42, c.cap);
        EXPECT_FALSE(res.completed) << "cap chosen to truncate the run";
        EXPECT_EQ(res.cycles, c.cap);
    }
}

TEST(PdesAdaptive, WindowWidthDistributionIsSound)
{
    const RunResult res = runPdes("barnes", 16, 4);
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(res.pdes.windowWidth.count(), res.pdes.windows);
    EXPECT_GE(res.pdes.windows, 1u);
    EXPECT_LE(res.pdes.windows, res.pdes.phases);
    // Every window spans at least one full sub-phase, and sub-phases
    // are exactly one lookahead wide away from the tick limit.
    EXPECT_GE(res.pdes.windowWidth.min(),
              static_cast<double>(res.pdes.lookahead));
    EXPECT_GE(res.pdes.windowWidth.percentile(99),
              res.pdes.windowWidth.percentile(50));
}

TEST(PdesAdaptive, IdleDomainsAreNeverDispatched)
{
    // Domain 0 (procs 0-3, directories 0-3 under Interleave) runs a
    // long scripted workload against its own directories; every other
    // processor commits one trivial transaction and finishes. Commits
    // still broadcast NSTID skips to every directory, so domains 1-3
    // see a trickle of parcels - but between arrivals they have no
    // events, and the idle fast path must skip them in those
    // sub-phases without touching their queues.
    SystemConfig cfg;
    cfg.numProcs = 16;
    cfg.homePolicy = HomePolicy::Interleave;
    cfg.check.serial = true;
    cfg.check.invariants = true;
    cfg.pdes.domains = 4;
    auto sys = std::make_unique<System>(cfg);
    std::vector<ScriptedSource> srcs(16);
    for (NodeId p = 0; p < 4; ++p) {
        // 64 transactions per busy proc, each writing one word of the
        // proc's own page (homed at directory p, domain 0).
        for (std::uint32_t t = 0; t < 64; ++t) {
            srcs[p].add({{TxOp::Kind::Compute, 10, 0, 0},
                         {TxOp::Kind::Store, 0,
                          static_cast<Addr>(p) * 4096 + t * 4, t + 1}});
        }
    }
    for (NodeId p = 4; p < 16; ++p)
        srcs[p].add({{TxOp::Kind::Compute, 5, 0, 0}});
    for (NodeId p = 0; p < 16; ++p)
        sys->setSource(p, &srcs[p]);

    const RunResult one = sys->run(2'000'000'000ull);
    ASSERT_TRUE(one.completed);
    ASSERT_TRUE(one.checksPassed())
        << one.serial.error << one.invariants.error;
    // Skips count the domains left off each sub-phase's dispatch list:
    // some, but not all of them.
    EXPECT_GT(one.pdes.idleDomainSkips, 0u);
    EXPECT_LT(one.pdes.idleDomainSkips, 4 * one.pdes.phases);

    // The engine state is kept alive by the System: domains 1-3 ran
    // their short prologue plus the per-commit skip deliveries, a
    // small fraction of the busy domain's event count.
    const PdesState *st = sys->pdesInternals();
    ASSERT_NE(st, nullptr);
    ASSERT_EQ(st->domains.size(), 4u);
    const std::uint64_t busy = st->domains[0]->eq.executed();
    for (std::size_t d = 1; d < 4; ++d) {
        const std::uint64_t idle = st->domains[d]->eq.executed();
        EXPECT_LT(idle * 2, busy)
            << "domain " << d << " executed " << idle
            << " events vs " << busy << " on the busy domain";
        EXPECT_EQ(st->domains[d]->eq.pending(), 0u);
        EXPECT_TRUE(st->domains[d]->storeLog.empty());
        EXPECT_FALSE(st->domains[d]->net->hasParcels());
    }
}

// --- golden runs: absolute outcomes ---------------------------------
//
// Everything above compares PDES with itself. These pin absolute
// values, so a refactor of the engine that shifts every run the same
// way still fails. The values
// are captured from a known-good build and are never edited to follow
// a code change: a mismatch means simulated behaviour moved.

struct PdesGolden {
    Tick cycles;
    std::uint64_t commits;
    std::uint64_t violations;
    std::uint64_t events;
    std::uint64_t fingerprint;
    std::uint64_t mailboxMessages;
    std::uint64_t phases;
};

void
expectPdesGolden(SystemConfig cfg, const std::string &app,
                 const std::string &params, std::uint64_t seed,
                 const PdesGolden &g)
{
    cfg.homePolicy = HomePolicy::Interleave;
    cfg.check.serial = true;
    cfg.check.invariants = true;
    cfg.pdes.domains = 4;
    System sys(cfg);
    const WorkloadBundle bundle = makeWorkload(
        app, WorkloadParams::parse(params), seed, cfg.numProcs);
    bundle.attach(sys);
    const RunResult r = sys.run();
    ASSERT_TRUE(r.completed);
    ASSERT_TRUE(r.checksPassed()) << r.serial.error << r.invariants.error;
    EXPECT_EQ(r.pdes.domains, 4u);
    EXPECT_EQ(r.cycles, g.cycles);
    EXPECT_EQ(r.committedTxns, g.commits);
    EXPECT_EQ(r.violations, g.violations);
    EXPECT_EQ(r.events, g.events);
    EXPECT_EQ(sys.memory().fingerprint(), g.fingerprint);
    EXPECT_EQ(r.pdes.mailboxMessages, g.mailboxMessages);
    EXPECT_EQ(r.pdes.phases, g.phases);
}

SystemConfig
goldenCfg(std::uint32_t procs)
{
    SystemConfig cfg;
    cfg.numProcs = procs;
    return cfg;
}

TEST(PdesGolden, MeshFlatMulticast)
{
    expectPdesGolden(goldenCfg(16), "barnes", "", 42,
                     {1350826, 2560, 44, 1606186, 17334670617963124052ull,
                      242577, 189967});
}

TEST(PdesGolden, MeshTreeMulticast)
{
    SystemConfig cfg = goldenCfg(64);
    cfg.network.multicast.topology = MulticastConfig::Topology::Tree;
    cfg.network.multicast.fanout = 4;
    expectPdesGolden(cfg, "barnes",
                     "write_spread_dirs=1,phases=1,txns_per_phase=128",
                     7,
                     {64121, 128, 2, 115173, 4472990100756069682ull, 24772,
                      8950});
}

TEST(PdesGolden, ChaosHeavyOverMesh)
{
    SystemConfig cfg = goldenCfg(16);
    cfg.network.model = NetworkConfig::Model::Chaos;
    cfg.network.chaos = chaosPreset("heavy");
    cfg.network.chaos.seed = 42;
    expectPdesGolden(cfg, "radix", "phases=1,txns_per_phase=256", 42,
                     {1362208, 256, 94, 803960, 5822055433255922495ull,
                      145964, 154071});
}

TEST(PdesGolden, IdealNetwork)
{
    SystemConfig cfg = goldenCfg(16);
    cfg.network.model = NetworkConfig::Model::Ideal;
    cfg.network.idealLatency = 4;
    expectPdesGolden(cfg, "barnes", "", 42,
                     {1191886, 2560, 35, 1625063, 17033242699392137758ull,
                      252133, 246222});
}

// --- PDES x chaos ---------------------------------------------------

TEST(PdesChaos, EveryPresetPassesBothCheckers)
{
    for (const auto &preset : chaosPresetNames()) {
        SCOPED_TRACE(preset);
        const RunResult res = runPdes("radix", 16, 4, preset, 99);
        ASSERT_TRUE(res.completed);
        EXPECT_TRUE(res.checksPassed())
            << res.serial.error << res.invariants.error;
    }
}

TEST(PdesChaos, SeedPerturbsTheRun)
{
    const RunResult a = runPdes("radix", 16, 4, "heavy", 99);
    const RunResult b = runPdes("radix", 16, 4, "heavy", 99);
    const RunResult c = runPdes("radix", 16, 4, "heavy", 100);
    ASSERT_TRUE(a.completed);
    expectSameResult(a, b);
    EXPECT_TRUE(a.cycles != c.cycles || a.events != c.events)
        << "different chaos seeds should not collide exactly";
}

} // namespace
} // namespace tcc
