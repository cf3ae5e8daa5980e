/**
 * @file
 * Observability layer (obs/metrics.hh, obs/contention.hh): epoch
 * boundary exactness, ring-wrap accounting, top-K eviction
 * determinism, blame-edge resolution - and the three system-level
 * gates: metrics off by default with armed runs bit-identical to off
 * runs (observability is free), PDES per-domain layers merging to
 * the same series and table on every run, and SweepRunner concurrency
 * leaving every
 * armed simulation bit-identical to its serial twin.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/sweep.hh"
#include "core/system.hh"
#include "obs/contention.hh"
#include "obs/metrics.hh"
#include "workload/registry.hh"

namespace tcc {
namespace {

// --- epoch sampler unit tests ---------------------------------------

/** Sampler with one Delta and one Gauge probe over local counters. */
struct Probed {
    std::uint64_t counter = 0;
    std::uint64_t gauge = 0;
    MetricsSampler m;

    Probed(Tick epoch_len, std::size_t cap)
        : m(epoch_len, cap, nullptr)
    {
        m.addProbe("delta", MetricsSampler::Kind::Delta,
                   MetricsSampler::Merge::Sum,
                   [this]() { return counter; });
        m.addProbe("gauge", MetricsSampler::Kind::Gauge,
                   MetricsSampler::Merge::Max,
                   [this]() { return gauge; });
    }

    /** Simulate one event at @p tick, mirroring the run loop: the
     *  sampler sees the tick *before* the event's effects. */
    void
    event(Tick tick, std::uint64_t add)
    {
        m.advanceTo(tick);
        counter += add;
        gauge = counter;
    }
};

TEST(MetricsSampler, EpochBoundaryExactness)
{
    // Epoch k must hold exactly the events with tick in
    // [k*10, (k+1)*10) - an event at tick 10 lands in epoch 1, never
    // epoch 0, because advanceTo(10) closes epoch 0 first.
    Probed p(10, 64);
    p.event(0, 1);   // epoch 0
    p.event(9, 2);   // epoch 0 (last interior tick)
    p.event(10, 4);  // epoch 1 (exactly on the boundary)
    p.event(19, 8);  // epoch 1
    p.event(20, 16); // epoch 2
    p.m.finish(25);

    ASSERT_EQ(p.m.closed(), 3u);
    EXPECT_EQ(p.m.dropped(), 0u);
    EXPECT_EQ(p.m.firstEpoch(), 0u);
    const int d = p.m.probeIndex("delta");
    const int g = p.m.probeIndex("gauge");
    ASSERT_GE(d, 0);
    ASSERT_GE(g, 0);
    EXPECT_EQ(p.m.at(0, d), 3u);  // 1 + 2
    EXPECT_EQ(p.m.at(1, d), 12u); // 4 + 8
    EXPECT_EQ(p.m.at(2, d), 16u);
    // Gauge snapshots the value at each boundary.
    EXPECT_EQ(p.m.at(0, g), 3u);
    EXPECT_EQ(p.m.at(1, g), 15u);
    EXPECT_EQ(p.m.at(2, g), 31u);
}

TEST(MetricsSampler, QuietEpochsCloseEmpty)
{
    // A long gap closes every intervening epoch with a zero delta;
    // gauges carry the standing value forward.
    Probed p(10, 64);
    p.event(5, 7);
    p.event(47, 1); // closes epochs 0..3 on the way
    p.m.finish(47);

    ASSERT_EQ(p.m.closed(), 5u);
    const int d = p.m.probeIndex("delta");
    const int g = p.m.probeIndex("gauge");
    EXPECT_EQ(p.m.at(0, d), 7u);
    for (std::size_t r = 1; r <= 3; ++r) {
        EXPECT_EQ(p.m.at(r, d), 0u) << "epoch " << r;
        EXPECT_EQ(p.m.at(r, g), 7u) << "epoch " << r;
    }
    EXPECT_EQ(p.m.at(4, d), 1u);
    EXPECT_EQ(p.m.at(4, g), 8u);
}

TEST(MetricsSampler, RingWrapKeepsNewestRows)
{
    Probed p(10, 3); // capacity 3 epochs
    for (Tick t = 0; t < 70; t += 10)
        p.event(t, 1); // one event per epoch, epochs 0..6
    p.m.finish(69);

    EXPECT_EQ(p.m.closed(), 7u);
    EXPECT_EQ(p.m.rows(), 3u);
    EXPECT_EQ(p.m.dropped(), 4u);
    EXPECT_EQ(p.m.firstEpoch(), 4u);
    const int d = p.m.probeIndex("delta");
    const int g = p.m.probeIndex("gauge");
    // Kept rows are the newest three, oldest first.
    for (std::size_t r = 0; r < 3; ++r) {
        EXPECT_EQ(p.m.at(r, d), 1u);
        EXPECT_EQ(p.m.at(r, g), 5u + r); // gauge after epoch 4+r
    }
}

TEST(MetricsSampler, EmptyQueuePeekIsNoOp)
{
    // The run loop passes kTickMax when the queue drains; that must
    // not close the tail (finish() owns the final partial epoch).
    Probed p(10, 8);
    p.event(3, 5);
    p.m.advanceTo(kTickMax);
    EXPECT_EQ(p.m.closed(), 0u);
    p.m.finish(3);
    ASSERT_EQ(p.m.closed(), 1u);
    EXPECT_EQ(p.m.at(0, p.m.probeIndex("delta")), 5u);
}

TEST(MetricsSampler, AdoptMergedFoldsPerProbeOp)
{
    // Two "domains" with identical schema and epoch counts; Sum, Min,
    // and Max probes fold element-wise.
    auto mk = [](std::uint64_t *v) {
        auto m = std::make_unique<MetricsSampler>(10, 8, nullptr);
        m->addProbe("sum", MetricsSampler::Kind::Delta,
                    MetricsSampler::Merge::Sum, [v]() { return v[0]; });
        m->addProbe("min", MetricsSampler::Kind::Gauge,
                    MetricsSampler::Merge::Min, [v]() { return v[1]; });
        m->addProbe("max", MetricsSampler::Kind::Gauge,
                    MetricsSampler::Merge::Max, [v]() { return v[2]; });
        return m;
    };
    std::uint64_t va[3] = {0, 0, 0};
    std::uint64_t vb[3] = {0, 0, 0};
    auto a = mk(va);
    auto b = mk(vb);
    va[0] = 3, va[1] = 7, va[2] = 2;
    vb[0] = 5, vb[1] = 4, vb[2] = 9;
    a->advanceTo(10);
    b->advanceTo(10);
    va[0] = 10, va[1] = 1, va[2] = 8;
    vb[0] = 6, vb[1] = 2, vb[2] = 3;
    a->finish(15);
    b->finish(15);
    ASSERT_EQ(a->closed(), b->closed());

    MetricsSampler merged(10, 8, nullptr);
    std::uint64_t zero[1] = {0};
    merged.addProbe("sum", MetricsSampler::Kind::Delta,
                    MetricsSampler::Merge::Sum, [&]() { return zero[0]; });
    merged.addProbe("min", MetricsSampler::Kind::Gauge,
                    MetricsSampler::Merge::Min, [&]() { return zero[0]; });
    merged.addProbe("max", MetricsSampler::Kind::Gauge,
                    MetricsSampler::Merge::Max, [&]() { return zero[0]; });
    merged.adoptMerged({a.get(), b.get()});

    ASSERT_EQ(merged.closed(), 2u);
    EXPECT_EQ(merged.at(0, 0), 8u);  // 3 + 5
    EXPECT_EQ(merged.at(0, 1), 4u);  // min(7, 4)
    EXPECT_EQ(merged.at(0, 2), 9u);  // max(2, 9)
    EXPECT_EQ(merged.at(1, 0), 8u);  // (10-3) + (6-5)
    EXPECT_EQ(merged.at(1, 1), 1u);  // min(1, 2)
    EXPECT_EQ(merged.at(1, 2), 8u);  // max(8, 3)
}

// --- contention profiler unit tests ---------------------------------

TEST(ContentionProfiler, TopKEvictionIsDeterministic)
{
    // K = 2. Fill with two addresses, then admit a third: the
    // minimum-weight entry goes; on a weight tie the larger address is
    // evicted (lower addresses win).
    ContentionProfiler prof(2, nullptr);
    // addr 0x100: weight 3. addr 0x200: weight 1.
    for (int i = 0; i < 3; ++i)
        prof.recordConflict(0, 1, 0x100, true, false, false, 0);
    prof.recordConflict(0, 1, 0x200, true, false, false, 0);
    // Newcomer 0x300 evicts 0x200 (min weight).
    prof.recordConflict(0, 1, 0x300, false, true, false, 0);
    EXPECT_EQ(prof.evictions(), 1u);

    auto hot = prof.hotWords();
    ASSERT_EQ(hot.size(), 2u);
    EXPECT_EQ(hot[0].addr, 0x100u);
    EXPECT_EQ(hot[0].s.srConflicts, 3u);
    EXPECT_EQ(hot[1].addr, 0x300u);
    EXPECT_EQ(hot[1].s.smConflicts, 1u);

    // Tie case: bump 0x300 to weight 3 so both entries tie; the
    // newcomer then evicts the LARGER address (0x300, not 0x100).
    prof.recordConflict(0, 1, 0x300, true, true, false, 0); // w=3
    prof.recordConflict(0, 1, 0x400, true, false, false, 0);
    EXPECT_EQ(prof.evictions(), 2u);
    hot = prof.hotWords();
    ASSERT_EQ(hot.size(), 2u);
    // 0x100 survived the tie; 0x300 was evicted; 0x400 admitted fresh.
    EXPECT_EQ(hot[0].addr, 0x100u);
    EXPECT_EQ(hot[1].addr, 0x400u);
    EXPECT_EQ(prof.conflictsRecorded(), 7u);
}

TEST(ContentionProfiler, BlameEdgesResolveThroughOwnerMap)
{
    ContentionProfiler prof(8, nullptr);
    prof.recordTidOwner(100, 3); // proc 3 owns TID 100
    prof.recordTidOwner(101, 5);
    // Two aborts of victim 1 by TID 100, one of victim 2 by TID 101,
    // one by a TID never granted (unresolvable).
    prof.recordConflict(1, 100, 0x40, true, false, true, 500);
    prof.recordConflict(1, 100, 0x40, true, false, true, 700);
    prof.recordConflict(2, 101, 0x80, true, false, true, 90);
    prof.recordConflict(2, 999, 0x80, true, false, true, 10);
    // Non-aborting overlap contributes no edge.
    prof.recordConflict(4, 100, 0x40, false, true, false, 0);

    auto edges = prof.blameEdges();
    ASSERT_EQ(edges.size(), 3u);
    EXPECT_EQ(edges[0].killer, 3u);
    EXPECT_EQ(edges[0].victim, 1u);
    EXPECT_EQ(edges[0].count, 2u);
    EXPECT_EQ(edges[1].killer, 5u);
    EXPECT_EQ(edges[1].victim, 2u);
    EXPECT_EQ(edges[1].count, 1u);
    EXPECT_EQ(edges[2].killer, kInvalidNode);
    EXPECT_EQ(edges[2].count, 1u);

    auto hot = prof.hotWords();
    ASSERT_EQ(hot.size(), 2u);
    EXPECT_EQ(hot[0].addr, 0x40u);
    EXPECT_EQ(hot[0].s.aborts, 2u);
    EXPECT_EQ(hot[0].s.wasted, 1200u);
}

TEST(ContentionProfiler, MergeIsOrderDeterministic)
{
    // Build the same conflict stream split two ways across a pair of
    // profilers; merging in the same (domain-id) order must produce
    // identical tables even though intra-domain arrival order differed.
    auto feed = [](ContentionProfiler &p, int salt, bool reversed) {
        for (int k = 0; k < 6; ++k) {
            const int i = reversed ? 5 - k : k;
            const Addr a = 0x1000 + 0x10 * ((i + salt) % 3);
            p.recordConflict(static_cast<NodeId>(i % 4), 50 + i % 2, a,
                             true, i % 2 == 0, i % 3 == 0,
                             100 * static_cast<std::uint64_t>(i));
        }
    };
    ContentionProfiler a0(4, nullptr), a1(4, nullptr);
    ContentionProfiler b0(4, nullptr), b1(4, nullptr);
    feed(a0, 0, false);
    feed(a1, 1, false);
    feed(b0, 0, true);
    feed(b1, 1, true);
    a0.recordTidOwner(50, 0);
    b0.recordTidOwner(50, 0);
    a1.recordTidOwner(51, 1);
    b1.recordTidOwner(51, 1);

    ContentionProfiler ma(4, nullptr), mb(4, nullptr);
    ma.mergeFrom(a0);
    ma.mergeFrom(a1);
    mb.mergeFrom(b0);
    mb.mergeFrom(b1);

    const auto ha = ma.hotWords();
    const auto hb = mb.hotWords();
    ASSERT_EQ(ha.size(), hb.size());
    for (std::size_t i = 0; i < ha.size(); ++i) {
        EXPECT_EQ(ha[i].addr, hb[i].addr);
        EXPECT_EQ(ha[i].s.srConflicts, hb[i].s.srConflicts);
        EXPECT_EQ(ha[i].s.smConflicts, hb[i].s.smConflicts);
        EXPECT_EQ(ha[i].s.aborts, hb[i].s.aborts);
        EXPECT_EQ(ha[i].s.wasted, hb[i].s.wasted);
    }
    const auto ea = ma.blameEdges();
    const auto eb = mb.blameEdges();
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].killer, eb[i].killer);
        EXPECT_EQ(ea[i].victim, eb[i].victim);
        EXPECT_EQ(ea[i].count, eb[i].count);
    }
    EXPECT_EQ(ma.conflictsRecorded(), mb.conflictsRecorded());
    EXPECT_EQ(ma.evictions(), mb.evictions());
}

// --- system-level gates ---------------------------------------------

/** The simulation fingerprint plus a full snapshot of both
 *  observability layers, extracted before the System dies. */
struct ObsSnapshot {
    // Simulation fingerprint (must be invariant under arming).
    std::uint64_t cycles = 0;
    std::uint64_t events = 0;
    std::uint64_t commits = 0;
    std::uint64_t violations = 0;
    std::uint64_t instructions = 0;
    std::uint64_t usefulCycles = 0;
    std::uint64_t violationCycles = 0;
    bool completed = false;
    bool checksOk = false;

    // Metrics series.
    bool hasMetrics = false;
    std::uint64_t epochsClosed = 0;
    std::uint64_t firstEpoch = 0;
    std::vector<std::string> probeNames;
    std::vector<std::uint64_t> seriesRows;

    // Contention table.
    bool hasContention = false;
    std::uint64_t conflicts = 0;
    std::uint64_t evictions = 0;
    std::vector<std::tuple<Addr, std::uint64_t, std::uint64_t,
                           std::uint64_t, std::uint64_t>>
        hotWords;
    std::vector<std::tuple<NodeId, NodeId, std::uint64_t>> blameEdges;

    bool operator==(const ObsSnapshot &) const = default;

    bool
    sameSimulation(const ObsSnapshot &o) const
    {
        return cycles == o.cycles && events == o.events &&
               commits == o.commits && violations == o.violations &&
               instructions == o.instructions &&
               usefulCycles == o.usefulCycles &&
               violationCycles == o.violationCycles &&
               completed == o.completed && checksOk == o.checksOk;
    }
};

ObsSnapshot
snapshot(System &sys, const RunResult &res)
{
    ObsSnapshot s;
    s.cycles = res.cycles;
    s.events = res.events;
    s.commits = res.committedTxns;
    s.violations = res.violations;
    s.instructions = res.committedInstructions;
    s.completed = res.completed;
    s.checksOk = res.checksPassed();
    s.usefulCycles = res.breakdown.useful;
    s.violationCycles = res.breakdown.violation;
    if (const MetricsSampler *m = sys.metricsSampler()) {
        s.hasMetrics = true;
        s.epochsClosed = m->closed();
        s.firstEpoch = m->firstEpoch();
        for (std::size_t p = 0; p < m->probeCount(); ++p)
            s.probeNames.emplace_back(m->probeName(p));
        s.seriesRows.reserve(m->rows() * m->probeCount());
        for (std::size_t r = 0; r < m->rows(); ++r)
            for (std::size_t p = 0; p < m->probeCount(); ++p)
                s.seriesRows.push_back(m->at(r, p));
    }
    if (const ContentionProfiler *c = sys.contentionProfiler()) {
        s.hasContention = true;
        s.conflicts = c->conflictsRecorded();
        s.evictions = c->evictions();
        for (const auto &h : c->hotWords())
            s.hotWords.emplace_back(h.addr, h.s.srConflicts,
                                    h.s.smConflicts, h.s.aborts,
                                    h.s.wasted);
        for (const auto &e : c->blameEdges())
            s.blameEdges.emplace_back(e.killer, e.victim, e.count);
    }
    return s;
}

ObsSnapshot
runApp(const std::string &app, std::uint32_t procs, Tick epoch,
       std::size_t top_k, std::uint32_t domains = 0,
       std::uint64_t seed = 42)
{
    SystemConfig cfg;
    cfg.numProcs = procs;
    cfg.homePolicy = HomePolicy::Interleave;
    cfg.check.serial = true;
    cfg.check.invariants = true;
    cfg.trace.metricsEpoch = epoch;
    cfg.trace.contentionTopK = top_k;
    cfg.pdes.domains = domains;
    System sys(cfg);
    const WorkloadBundle bundle = makeWorkload(app, {}, seed, procs);
    bundle.attach(sys);
    const RunResult res = sys.run(2'000'000'000ull);
    return snapshot(sys, res);
}

TEST(ObsSystem, OffByDefaultAndFree)
{
    // Default config: both layers off, accessors null.
    const ObsSnapshot off = runApp("radix", 8, 0, 0);
    ASSERT_TRUE(off.completed);
    ASSERT_TRUE(off.checksOk);
    EXPECT_FALSE(off.hasMetrics);
    EXPECT_FALSE(off.hasContention);

    // Arming both layers changes nothing about the simulation.
    const ObsSnapshot armed = runApp("radix", 8, 500, 16);
    EXPECT_TRUE(armed.hasMetrics);
    EXPECT_TRUE(armed.hasContention);
    EXPECT_TRUE(off.sameSimulation(armed))
        << "observability must be free: armed fingerprint diverged";
    EXPECT_GT(armed.epochsClosed, 0u);
    EXPECT_EQ(armed.probeNames.size(), 10u);

    // And the armed run itself is reproducible.
    const ObsSnapshot again = runApp("radix", 8, 500, 16);
    EXPECT_TRUE(armed == again);
}

TEST(ObsSystem, SerialEpochSeriesSumsToTotals)
{
    // With a ring big enough to keep every epoch, the Delta columns
    // must sum to the end-of-run aggregates - boundary exactness at
    // system scale (no event double-counted or lost at epoch edges).
    SystemConfig cfg;
    cfg.numProcs = 8;
    cfg.homePolicy = HomePolicy::Interleave;
    cfg.trace.metricsEpoch = 300;
    cfg.trace.metricsCapacity = 1 << 20;
    cfg.trace.contentionTopK = 8;
    System sys(cfg);
    const WorkloadBundle bundle =
        makeWorkload("radix", {}, 42, cfg.numProcs);
    bundle.attach(sys);
    const RunResult res = sys.run(2'000'000'000ull);
    ASSERT_TRUE(res.completed);

    const MetricsSampler *m = sys.metricsSampler();
    ASSERT_NE(m, nullptr);
    ASSERT_EQ(m->dropped(), 0u);
    auto colSum = [&](const char *name) {
        const int p = m->probeIndex(name);
        EXPECT_GE(p, 0) << name;
        std::uint64_t sum = 0;
        for (std::size_t r = 0; r < m->rows(); ++r)
            sum += m->at(r, static_cast<std::size_t>(p));
        return sum;
    };
    EXPECT_EQ(colSum("commits"), res.committedTxns);
    EXPECT_EQ(colSum("violations"), res.violations);
    EXPECT_EQ(colSum("net_messages"), sys.network().stats().messages);
    EXPECT_EQ(colSum("net_bytes"), sys.network().stats().totalBytes);
    // The final gauge row observes the end-of-run NSTID frontier.
    const int nstid = m->probeIndex("nstid_min");
    ASSERT_GE(nstid, 0);
    std::uint64_t min_nstid = ~std::uint64_t{0};
    for (const auto &d : res.dirs)
        min_nstid = std::min(min_nstid, std::uint64_t{d.nstid});
    EXPECT_EQ(m->at(m->rows() - 1, static_cast<std::size_t>(nstid)),
              min_nstid);
}

TEST(ObsSystem, PdesMergeIsReproducible)
{
    // Both layers armed under PDES: the merged series and table are a
    // pure function of the simulation.
    const ObsSnapshot a = runApp("barnes", 16, 400, 16, 4);
    ASSERT_TRUE(a.completed);
    ASSERT_TRUE(a.checksOk);
    ASSERT_TRUE(a.hasMetrics);
    ASSERT_TRUE(a.hasContention);
    EXPECT_GT(a.epochsClosed, 0u);
    const ObsSnapshot b = runApp("barnes", 16, 400, 16, 4);
    EXPECT_TRUE(a == b) << "merged observability diverged on a rerun";
}

TEST(ObsSystem, PdesArmedMatchesOffFingerprint)
{
    // Observability is free under PDES too.
    const ObsSnapshot off = runApp("barnes", 16, 0, 0, 4);
    const ObsSnapshot armed = runApp("barnes", 16, 400, 16, 4);
    ASSERT_TRUE(off.completed);
    EXPECT_TRUE(off.sameSimulation(armed));
}

TEST(ObsSweep, ConcurrentArmedRunsStayIdentical)
{
    // A batch of armed simulations through the pool must be
    // bit-identical to the same batch run serially: each System owns
    // its sampler and profiler, so workers share no sampling state.
    struct Cfg {
        std::string app;
        std::uint32_t procs;
        Tick epoch;
        std::uint64_t seed;
    };
    std::vector<Cfg> cfgs;
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        cfgs.push_back({"radix", 4, 200, seed});
        cfgs.push_back({"radix", 8, 500, seed});
        cfgs.push_back({"barnes", 8, 350, seed});
    }
    auto one = [&](std::size_t i) {
        const Cfg &c = cfgs[i];
        return runApp(c.app, c.procs, c.epoch, 16, 0, c.seed);
    };

    SweepRunner serial(1);
    const auto s = sweepIndex<ObsSnapshot>(serial, cfgs.size(), one);
    SweepRunner pool(4);
    const auto p = sweepIndex<ObsSnapshot>(pool, cfgs.size(), one);

    ASSERT_EQ(s.size(), p.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        SCOPED_TRACE("config " + std::to_string(i));
        EXPECT_TRUE(s[i].completed);
        EXPECT_TRUE(s[i].hasMetrics);
        EXPECT_TRUE(s[i] == p[i])
            << "pooled armed run diverged from serial";
    }
}

} // namespace
} // namespace tcc
