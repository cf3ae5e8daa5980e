/**
 * @file
 * Structured protocol tracing: TraceRecorder ring semantics, the one
 * switch (TraceConfig::capacity), the golden event sequence of the
 * Figure 2 two-processor conflict, the transaction ledger the
 * processors write (and its agreement with the ring and with their
 * counters), and the determinism of the text / Chrome-trace /
 * stats-JSON renderings.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/stats_dump.hh"
#include "core/sweep.hh"
#include "core/system.hh"
#include "noc/message.hh"
#include "obs/chrome_trace.hh"
#include "obs/trace_recorder.hh"
#include "obs/tx_ledger.hh"
#include "workload/registry.hh"
#include "workload/scripted_source.hh"

namespace tcc {
namespace {

/** The Figure 2 scenario: P0 commits, P1 reads early and violates.
 *  Traced into a ring of @p capacity events (0 = tracing off). */
struct ConflictScenario {
    static constexpr Addr kX = 0x100000;

    SystemConfig cfg;
    System sys;
    ScriptedSource p0, p1;

    explicit ConflictScenario(
        std::size_t capacity = TraceRecorder::kDefaultCapacity)
        : cfg(makeCfg(capacity)), sys(cfg)
    {
        p0.add({TxOp::compute(100), TxOp::store(kX, 42)});
        p1.add({TxOp::load(kX), TxOp::compute(4000),
                TxOp::storeAdd(kX + 4096, 0)});
        sys.setSource(0, &p0);
        sys.setSource(1, &p1);
    }

    static SystemConfig
    makeCfg(std::size_t capacity)
    {
        SystemConfig cfg;
        cfg.numProcs = 2;
        cfg.homePolicy = HomePolicy::Interleave;
        cfg.trace.capacity = capacity;
        return cfg;
    }
};

// ---------------------------------------------------------------------
// Ring semantics
// ---------------------------------------------------------------------

TEST(TraceRecorder, RingWrapKeepsNewestEvents)
{
    EventQueue eq;
    Arena arena;
    TraceRecorder rec(eq, arena, /*capacity=*/8);
    EXPECT_EQ(rec.capacity(), 8u);
    EXPECT_EQ(rec.size(), 0u);

    for (std::uint64_t i = 0; i < 20; ++i)
        rec.push(TraceEventKind::TxBegin, /*node=*/0, /*tid=*/i, i, 0);

    EXPECT_EQ(rec.captured(), 20u);
    EXPECT_EQ(rec.size(), 8u);
    EXPECT_EQ(rec.dropped(), 12u);
    // Oldest retained event is #12; at() walks oldest -> newest.
    for (std::size_t i = 0; i < rec.size(); ++i)
        EXPECT_EQ(rec.at(i).arg0, 12u + i);

    std::uint64_t seen = 0;
    rec.forEach([&](const TraceEvent &e) {
        EXPECT_EQ(e.arg0, 12u + seen);
        ++seen;
    });
    EXPECT_EQ(seen, 8u);

    rec.clear();
    EXPECT_EQ(rec.captured(), 0u);
    EXPECT_EQ(rec.size(), 0u);
}

TEST(TraceRecorder, EventsCarryTheQueueTimestamp)
{
    EventQueue eq;
    Arena arena;
    TraceRecorder rec(eq, arena, 16);
    rec.push(TraceEventKind::TxBegin, 1, 7, 0, 0);
    eq.schedule(25, [&]() {
        rec.push(TraceEventKind::TxCommit, 1, 7, 0, 0);
    });
    while (eq.step()) {}
    ASSERT_EQ(rec.size(), 2u);
    EXPECT_EQ(rec.at(0).tick, 0u);
    EXPECT_EQ(rec.at(1).tick, 25u);
    EXPECT_EQ(rec.at(1).kind, TraceEventKind::TxCommit);
}

TEST(TraceRecorder, FormatIsOneLinePerEvent)
{
    TraceEvent e;
    e.tick = 120;
    e.kind = TraceEventKind::TxCommit;
    e.node = 1;
    e.tid = 3;
    e.arg0 = 0x10;
    e.arg1 = 2;
    EXPECT_EQ(formatTraceEvent(e),
              "[120] tx_commit node=1 tid=3 a0=10 a1=2");
    e.kind = TraceEventKind::NetSend;
    e.tid = kInvalidTid;
    e.arg1 = packNetInfo(0, static_cast<std::uint8_t>(MsgType::LoadReply),
                         0, 72);
    // Network events also name the message they carry.
    const std::string line = formatTraceEvent(e);
    EXPECT_EQ(line.rfind("[120] net_send node=1 tid=-1 a0=10 a1=", 0), 0u);
    EXPECT_EQ(line.substr(line.size() - 10), " LoadReply");
}

// ---------------------------------------------------------------------
// The one switch: capacity 0 is off, any other value records everything
// ---------------------------------------------------------------------

TEST(TraceRecorder, DisabledTracingRecordsNothing)
{
    // Capacity 0 (the default): a full run must not record a single
    // event, and the recorder holds no ring.
    ConflictScenario s(0);
    ASSERT_TRUE(s.sys.run().completed);
    EXPECT_FALSE(s.sys.traceRecorder().armed());
    EXPECT_EQ(s.sys.traceRecorder().captured(), 0u);
}

TEST(TraceRecorder, ArmedRunRecordsEveryComponent)
{
    // One switch arms the processors, the directories and the network
    // alike: the Figure 2 run records each of their event families.
    ConflictScenario s;
    ASSERT_TRUE(s.sys.run().completed);
    std::vector<bool> seen(
        static_cast<std::size_t>(TraceEventKind::NumKinds), false);
    s.sys.traceRecorder().forEach([&](const TraceEvent &e) {
        seen[static_cast<std::size_t>(e.kind)] = true;
    });
    for (TraceEventKind k :
         {TraceEventKind::TxBegin, TraceEventKind::TxViolation,
          TraceEventKind::ViolationCause, TraceEventKind::TidAcquire,
          TraceEventKind::ProbeSend, TraceEventKind::CommitStart,
          TraceEventKind::TxCommit, TraceEventKind::DirNstidAdvance,
          TraceEventKind::DirInvalidate, TraceEventKind::NetSend,
          TraceEventKind::NetDeliver}) {
        EXPECT_TRUE(seen[static_cast<std::size_t>(k)])
            << traceEventKindName(k);
    }
}

// ---------------------------------------------------------------------
// Golden event sequence + ledger for the scripted conflict
// ---------------------------------------------------------------------

TEST(TraceRecorder, GoldenConflictSequence)
{
    ConflictScenario s;
    ASSERT_TRUE(s.sys.run().completed);
    const TraceRecorder &rec = s.sys.traceRecorder();
    ASSERT_GT(rec.captured(), 0u);
    ASSERT_EQ(rec.dropped(), 0u) << "scenario must fit the ring";

    // Project out the lifecycle events (skip net/dir noise).
    struct Lc {
        TraceEventKind kind;
        NodeId node;
        Tid tid;
        std::uint64_t a0;
    };
    std::vector<Lc> lc;
    rec.forEach([&](const TraceEvent &e) {
        switch (e.kind) {
          case TraceEventKind::TxBegin:
          case TraceEventKind::TxViolation:
          case TraceEventKind::ViolationCause:
          case TraceEventKind::TxCommit:
            lc.push_back({e.kind, e.node, e.tid, e.arg0});
            break;
          default:
            break;
        }
    });

    // Both processors begin; P0 commits with TID 0; P1 is invalidated
    // (cause: line X written by TID 0), violates, re-begins, commits
    // with TID 1.
    ASSERT_GE(lc.size(), 7u);
    EXPECT_EQ(lc[0].kind, TraceEventKind::TxBegin);
    EXPECT_EQ(lc[1].kind, TraceEventKind::TxBegin);

    std::vector<Lc> p1;
    for (const Lc &e : lc)
        if (e.node == 1)
            p1.push_back(e);
    ASSERT_EQ(p1.size(), 5u);
    EXPECT_EQ(p1[0].kind, TraceEventKind::TxBegin);
    EXPECT_EQ(p1[1].kind, TraceEventKind::ViolationCause);
    EXPECT_EQ(p1[1].a0, ConflictScenario::kX); // conflicting line
    EXPECT_EQ(p1[1].tid, 0u);                  // the writer's TID
    EXPECT_EQ(p1[2].kind, TraceEventKind::TxViolation);
    EXPECT_EQ(p1[3].kind, TraceEventKind::TxBegin);
    EXPECT_EQ(p1[3].a0, 1u); // one prior violation
    EXPECT_EQ(p1[4].kind, TraceEventKind::TxCommit);
    EXPECT_EQ(p1[4].tid, 1u);

    std::vector<Lc> p0;
    for (const Lc &e : lc)
        if (e.node == 0)
            p0.push_back(e);
    ASSERT_EQ(p0.size(), 2u);
    EXPECT_EQ(p0[1].kind, TraceEventKind::TxCommit);
    EXPECT_EQ(p0[1].tid, 0u);
}

TEST(TxLedger, NamesTheConflictAddressAndWriter)
{
    ConflictScenario s;
    ASSERT_TRUE(s.sys.run().completed);
    const TxLedger &ledger = s.sys.ledger();

    // One entry per committed transaction, in commit order.
    ASSERT_EQ(ledger.size(), 2u);
    EXPECT_EQ(ledger[0].tid, 0u);
    EXPECT_EQ(ledger[0].node, 0u);
    EXPECT_EQ(ledger[0].retries, 0u);
    EXPECT_FALSE(ledger[0].hasViolation());
    EXPECT_GT(ledger[0].execCycles(), 0u);
    EXPECT_GT(ledger[0].commitCycles(), 0u);

    EXPECT_EQ(ledger[1].tid, 1u);
    EXPECT_EQ(ledger[1].node, 1u);
    EXPECT_EQ(ledger[1].retries, 1u);
    EXPECT_TRUE(ledger[1].hasViolation());
    EXPECT_EQ(ledger[1].violationAddr, ConflictScenario::kX);
    EXPECT_EQ(ledger[1].violationWriter, 0u);
    // The committing attempt sent probes and observed round trips.
    EXPECT_GT(ledger[1].probeCount + ledger[0].probeCount, 0u);
}

/** One TxCommit event of the ring: which TID committed where, when. */
struct RingCommit {
    Tid tid;
    NodeId node;
    Tick tick;
    bool operator==(const RingCommit &) const = default;
};

/** A contended 4-proc ds_map run traced into a ring of @p capacity
 *  events (0 = untraced; per domain under PDES, @p domains >= 2): its
 *  ledger, its ring's commits, and the same commit facts as the
 *  processors count them. */
struct ContendedRun {
    TxLedger ledger;
    /** The ring's TxCommit events, oldest first. */
    std::vector<RingCommit> ringCommits;
    bool ringWrapped = false;
    std::uint64_t committed = 0;
    std::uint64_t soloCommits = 0;
    /** Per-proc multicast_nic_per_commit, merged. */
    Distribution multicastNic;
    /** Per proc: commit_cycles, violations and commit_latency. */
    std::vector<std::uint64_t> commitCycles;
    std::vector<std::uint64_t> violations;
    std::vector<Distribution> commitLatency;
};

ContendedRun
contendedLedger(std::size_t capacity, std::uint32_t domains)
{
    SystemConfig cfg;
    cfg.numProcs = 4;
    cfg.homePolicy = HomePolicy::Interleave;
    cfg.trace.capacity = capacity;
    cfg.pdes.domains = domains;
    // A one-way, eight-line L2: transactions whose lines collide in a
    // set overflow and commit in solo mode.
    cfg.cache.l1Bytes = 64;
    cfg.cache.l1Assoc = 1;
    cfg.cache.l2Bytes = 256;
    cfg.cache.l2Assoc = 1;
    System sys(cfg);
    const WorkloadBundle bundle = makeWorkload(
        "ds_map", WorkloadParams::parse("theta=0.99,max_txns_per_phase=64"),
        /*seed=*/5, cfg.numProcs);
    bundle.attach(sys);
    const RunResult res = sys.run();
    EXPECT_TRUE(res.completed);
    EXPECT_GT(res.violations, 0u) << "the run must retry transactions";
    EXPECT_EQ(res.pdes.domains, domains);
    ContendedRun run;
    run.ledger = sys.ledger();
    const TraceRecorder &rec = sys.traceRecorder();
    rec.forEach([&run](const TraceEvent &e) {
        if (e.kind == TraceEventKind::TxCommit)
            run.ringCommits.push_back({e.tid, e.node, e.tick});
    });
    run.ringWrapped = rec.dropped() != 0;
    run.committed = res.committedTxns;
    for (NodeId p = 0; p < sys.numProcs(); ++p) {
        const auto &s = sys.proc(p).stats();
        run.soloCommits += s.soloCommits;
        run.multicastNic.merge(s.multicastNicPerCommit);
        run.commitCycles.push_back(s.commitCycles);
        run.violations.push_back(s.violations);
        run.commitLatency.push_back(s.commitLatency);
    }
    return run;
}

/** @p a and @p b hold the same samples, as far as the stats dump can
 *  tell. */
void
expectSameSamples(const Distribution &a, const Distribution &b)
{
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.sum(), b.sum());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
    EXPECT_EQ(a.percentile(50), b.percentile(50));
    EXPECT_EQ(a.percentile(99), b.percentile(99));
}

TEST(TxLedger, WrappedRingKeepsEveryCommit)
{
    // The processors write the ledger, so a ring that wraps cuts only
    // the event history: the ledger of a 256-event ring equals that of
    // a ring holding the whole run, entry for entry and in order, and
    // holds every commit.
    for (std::uint32_t domains : {0u, 2u}) {
        SCOPED_TRACE("domains=" + std::to_string(domains));
        const ContendedRun full =
            contendedLedger(std::size_t{1} << 20, domains);
        const ContendedRun cut = contendedLedger(256, domains);
        ASSERT_FALSE(full.ringWrapped);
        ASSERT_TRUE(cut.ringWrapped);
        EXPECT_EQ(cut.ledger.size(), cut.committed);
        EXPECT_EQ(full.ledger.size(), full.committed);
        EXPECT_TRUE(cut.ledger == full.ledger);
        // With the whole run in the ring, its TxCommit events name the
        // ledger's commits one for one, in the same order.
        std::vector<RingCommit> ledgerCommits;
        for (const TxLedgerEntry &e : full.ledger)
            ledgerCommits.push_back({e.tid, e.node, e.commitEndTick});
        EXPECT_TRUE(full.ringCommits == ledgerCommits);

        // Both commit paths record the same fan-out facts in the
        // ledger and in the per-proc distributions.
        EXPECT_GT(cut.soloCommits, 0u) << "the run must commit solo";
        Distribution mcast;
        for (const TxLedgerEntry &e : cut.ledger)
            mcast.sample(static_cast<double>(e.multicastEvents));
        expectSameSamples(mcast, cut.multicastNic);
    }
}

TEST(TxLedger, UntracedRunKeepsEveryCommit)
{
    // The ledger does not depend on tracing: with no ring at all it
    // holds every commit, and equals the traced run's ledger.
    for (std::uint32_t domains : {0u, 2u}) {
        SCOPED_TRACE("domains=" + std::to_string(domains));
        const ContendedRun off = contendedLedger(0, domains);
        const ContendedRun on =
            contendedLedger(std::size_t{1} << 20, domains);
        EXPECT_TRUE(off.ringCommits.empty());
        EXPECT_EQ(off.ledger.size(), off.committed);
        EXPECT_TRUE(off.ledger == on.ledger);
    }
}

/** Every sample of @p d, ascending. */
std::vector<double>
sortedSamples(const Distribution &d)
{
    std::vector<double> out;
    const std::size_t n = d.count();
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(d.percentile(
            n == 1 ? 0.0 : 100.0 * static_cast<double>(i) /
                               static_cast<double>(n - 1)));
    return out;
}

TEST(TxLedger, RecordsAgreeWithTheProcessorCounters)
{
    // Per node, the records add up to the processor's own counters:
    // commit cycles to the commit bucket, retries to the violations of
    // a completed run (every violated transaction went on to commit),
    // and each record's commit cycles to one commit_latency sample.
    for (std::uint32_t domains : {0u, 2u}) {
        SCOPED_TRACE("domains=" + std::to_string(domains));
        const ContendedRun run = contendedLedger(0, domains);
        for (NodeId p = 0; p < run.commitCycles.size(); ++p) {
            SCOPED_TRACE("node " + std::to_string(p));
            std::uint64_t cycles = 0, retries = 0;
            Distribution latency;
            for (const TxLedgerEntry &e : run.ledger) {
                if (e.node != p)
                    continue;
                cycles += e.commitCycles();
                retries += e.retries;
                latency.sample(static_cast<double>(e.commitCycles()));
            }
            EXPECT_EQ(cycles, run.commitCycles[p]);
            EXPECT_EQ(retries, run.violations[p]);
            EXPECT_EQ(sortedSamples(latency),
                      sortedSamples(run.commitLatency[p]));
            EXPECT_EQ(latency.mean(), run.commitLatency[p].mean());
        }
    }
}

// ---------------------------------------------------------------------
// Exporters: Perfetto JSON + stats JSON, deterministic and well-formed
// ---------------------------------------------------------------------

std::string
runAndExportChrome()
{
    ConflictScenario s;
    if (!s.sys.run().completed)
        return {};
    std::ostringstream os;
    exportChromeTrace(s.sys.traceRecorder(), s.cfg.numProcs, os);
    return os.str();
}

TEST(ChromeTrace, ExportIsDeterministicAndStructured)
{
    const std::string a = runAndExportChrome();
    const std::string b = runAndExportChrome();
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "export must be a pure function of the run";

    // Structural spot checks (full JSON parsing happens in the
    // obs_smoke ctest fixture via cmake's JSON support).
    EXPECT_NE(a.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(a.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(a.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(a.find("\"name\":\"proc 0\""), std::string::npos);
    EXPECT_NE(a.find("\"name\":\"dir 1\""), std::string::npos);
    EXPECT_NE(a.find("\"name\":\"commit\""), std::string::npos);
    EXPECT_NE(a.find("\"name\":\"tx 0\""), std::string::npos);
    EXPECT_NE(a.find("violation_cause"), std::string::npos);
}

TEST(ChromeTrace, QuietWhenNothingRecorded)
{
    ConflictScenario s(0);
    ASSERT_TRUE(s.sys.run().completed);
    std::ostringstream os;
    exportChromeTrace(s.sys.traceRecorder(), s.cfg.numProcs, os);
    // Metadata only - no slices, no instants.
    EXPECT_NE(os.str().find("\"traceEvents\":["), std::string::npos);
    EXPECT_EQ(os.str().find("\"ph\":\"X\""), std::string::npos);
}

TEST(StatsJson, SchemaAndDeterminism)
{
    auto run = []() {
        ConflictScenario s;
        EXPECT_TRUE(s.sys.run().completed);
        std::ostringstream os;
        dumpStatsJson(s.sys, os);
        return os.str();
    };
    const std::string a = run();
    const std::string b = run();
    EXPECT_EQ(a, b);

    for (const char *key :
         {"\"system\":{", "\"procs\":", "\"dirs\":", "\"network\":{",
          "\"bytes_by_class\":{", "\"trace_events_captured\":",
          "\"tx_ledger\":[", "\"violation_addr\":1048576",
          "\"violation_writer\":0", "\"txn_instructions\":{",
          "\"stddev\":", "\"min\":", "\"quiesced\":true"}) {
        EXPECT_NE(a.find(key), std::string::npos)
            << "missing JSON fragment: " << key;
    }
    // JSON must not leak the text dump's dotted key style.
    EXPECT_EQ(a.find("\"network.messages\""), std::string::npos);
}

TEST(StatsText, LedgerSectionAppearsWhenTraced)
{
    ConflictScenario s;
    ASSERT_TRUE(s.sys.run().completed);
    std::ostringstream os;
    dumpStats(s.sys, os);
    const std::string out = os.str();
    EXPECT_NE(out.find("tx_ledger.count 2"), std::string::npos);
    EXPECT_NE(out.find("tx_ledger.1.retries 1"), std::string::npos);
    EXPECT_NE(out.find("tx_ledger.1.violation_addr 1048576"),
              std::string::npos);
    EXPECT_NE(out.find("system.trace_events_captured"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Fingerprint neutrality: recording must never perturb the simulation
// ---------------------------------------------------------------------

struct RunFp {
    Tick cycles;
    std::uint64_t events;
    std::uint64_t violations;

    bool
    operator==(const RunFp &o) const
    {
        return cycles == o.cycles && events == o.events &&
               violations == o.violations;
    }
};

RunFp
runConflict(std::size_t capacity)
{
    ConflictScenario s(capacity);
    auto res = s.sys.run();
    EXPECT_TRUE(res.completed);
    return RunFp{res.cycles, res.events,
                 s.sys.proc(1).stats().violations};
}

TEST(TraceRecorder, TracingDoesNotChangeTheRun)
{
    const RunFp off = runConflict(0);
    const RunFp on = runConflict(TraceRecorder::kDefaultCapacity);
    EXPECT_EQ(off, on)
        << "recording is observational; fingerprints must match";
}

// ---------------------------------------------------------------------
// Sweep concurrency: each System arms its own ring
// ---------------------------------------------------------------------

TEST(TraceRecorder, ParallelSweepRecordsPerSystem)
{
    // Armed and unarmed Systems share one parallel pass: each armed
    // run captures what its serial twin captures, an unarmed run
    // captures nothing, and no run's outcome depends on either.
    constexpr std::size_t kRuns = 8;
    auto capacityOf = [](std::size_t i) {
        return i % 2 == 0 ? TraceRecorder::kDefaultCapacity : 0;
    };
    auto one = [&capacityOf](std::size_t i) {
        ConflictScenario s(capacityOf(i));
        auto res = s.sys.run();
        std::uint64_t captured = s.sys.traceRecorder().captured();
        return std::make_pair(RunFp{res.cycles, res.events,
                                    s.sys.proc(1).stats().violations},
                              captured);
    };

    SweepRunner serial(1);
    const auto want =
        sweepIndex<std::pair<RunFp, std::uint64_t>>(serial, kRuns, one);
    SweepRunner pool(4);
    const auto got =
        sweepIndex<std::pair<RunFp, std::uint64_t>>(pool, kRuns, one);

    ASSERT_EQ(got.size(), kRuns);
    for (std::size_t i = 0; i < kRuns; ++i) {
        EXPECT_TRUE(want[i].first == got[i].first) << "run " << i;
        EXPECT_TRUE(got[0].first == got[i].first) << "run " << i;
        EXPECT_EQ(want[i].second, got[i].second) << "run " << i;
        if (capacityOf(i) != 0)
            EXPECT_GT(got[i].second, 0u) << "run " << i;
        else
            EXPECT_EQ(got[i].second, 0u) << "run " << i;
    }
}

} // namespace
} // namespace tcc
