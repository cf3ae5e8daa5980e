/**
 * @file
 * Structured protocol tracing: TraceRecorder ring semantics,
 * category gating, the golden event sequence of the Figure 2
 * two-processor conflict, the transaction ledger folded from it, and
 * the determinism of the Chrome-trace / stats-JSON exporters.
 *
 * The trace flags are process-global, so every test that enables them
 * uses the RAII guard below to restore the default (all off, text on)
 * - other tests in this binary must keep seeing a quiet switchboard.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "core/stats_dump.hh"
#include "core/sweep.hh"
#include "core/system.hh"
#include "obs/chrome_trace.hh"
#include "obs/trace_recorder.hh"
#include "obs/tx_ledger.hh"
#include "workload/registry.hh"
#include "workload/scripted_source.hh"

namespace tcc {
namespace {

/** Restore the global trace switchboard on scope exit. */
struct TraceFlagsGuard {
    TraceFlagsGuard()
    {
        Trace::enableAll(false);
        Trace::setTextOutput(false); // tests never spam stderr
    }
    ~TraceFlagsGuard()
    {
        Trace::enableAll(false);
        Trace::setTextOutput(true);
    }
};

/** The Figure 2 scenario: P0 commits, P1 reads early and violates. */
struct ConflictScenario {
    static constexpr Addr kX = 0x100000;

    SystemConfig cfg;
    System sys;
    ScriptedSource p0, p1;

    ConflictScenario() : cfg(makeCfg()), sys(cfg)
    {
        p0.add({TxOp::compute(100), TxOp::store(kX, 42)});
        p1.add({TxOp::load(kX), TxOp::compute(4000),
                TxOp::storeAdd(kX + 4096, 0)});
        sys.setSource(0, &p0);
        sys.setSource(1, &p1);
    }

    static SystemConfig
    makeCfg()
    {
        SystemConfig cfg;
        cfg.numProcs = 2;
        cfg.homePolicy = HomePolicy::Interleave;
        return cfg;
    }
};

// ---------------------------------------------------------------------
// Ring semantics
// ---------------------------------------------------------------------

TEST(TraceRecorder, RingWrapKeepsNewestEvents)
{
    EventQueue eq;
    TraceRecorder rec(eq, /*arena=*/nullptr, /*capacity=*/8);
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
    TraceRecorder rec(eq, nullptr, 16);
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

// ---------------------------------------------------------------------
// Gating: off by default, per-category when on
// ---------------------------------------------------------------------

TEST(TraceRecorder, DisabledTracingRecordsNothing)
{
    TraceFlagsGuard guard;
    // All categories off (the default): a full run must not record a
    // single event - the recorder should not even allocate its ring.
    ConflictScenario s;
    ASSERT_TRUE(s.sys.run().completed);
    EXPECT_EQ(s.sys.traceRecorder().captured(), 0u);
}

TEST(TraceRecorder, CategoryGatingIsSelective)
{
    TraceFlagsGuard guard;
    Trace::enable(TraceCat::Dir, true);

    ConflictScenario s;
    ASSERT_TRUE(s.sys.run().completed);
    const TraceRecorder &rec = s.sys.traceRecorder();
    EXPECT_GT(rec.captured(), 0u);
    rec.forEach([](const TraceEvent &e) {
        EXPECT_GE(static_cast<unsigned>(e.kind),
                  static_cast<unsigned>(TraceEventKind::DirSkip));
        EXPECT_LE(static_cast<unsigned>(e.kind),
                  static_cast<unsigned>(TraceEventKind::DirInvalidate));
    });
}

// ---------------------------------------------------------------------
// Golden event sequence + ledger for the scripted conflict
// ---------------------------------------------------------------------

TEST(TraceRecorder, GoldenConflictSequence)
{
    TraceFlagsGuard guard;
    Trace::enableAll(true);

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
    TraceFlagsGuard guard;
    Trace::enableAll(true);

    ConflictScenario s;
    ASSERT_TRUE(s.sys.run().completed);
    const auto ledger = buildTxLedger(s.sys.traceRecorder()).entries;

    // One entry per committed transaction, in commit order.
    ASSERT_EQ(ledger.size(), 2u);
    EXPECT_EQ(ledger[0].tid, 0u);
    EXPECT_EQ(ledger[0].node, 0u);
    EXPECT_EQ(ledger[0].retries, 0u);
    EXPECT_FALSE(ledger[0].hasViolation);
    EXPECT_GT(ledger[0].execCycles(), 0u);
    EXPECT_GT(ledger[0].commitCycles(), 0u);

    EXPECT_EQ(ledger[1].tid, 1u);
    EXPECT_EQ(ledger[1].node, 1u);
    EXPECT_EQ(ledger[1].retries, 1u);
    EXPECT_TRUE(ledger[1].hasViolation);
    EXPECT_EQ(ledger[1].violationAddr, ConflictScenario::kX);
    EXPECT_EQ(ledger[1].violationWriter, 0u);
    // The committing attempt sent probes and observed round trips.
    EXPECT_GT(ledger[1].probeCount + ledger[0].probeCount, 0u);
}

/** The ledger of a contended 4-proc ds_map run recorded into a ring
 *  of @p capacity events (per domain under PDES, @p domains >= 2). */
TxLedger
contendedLedger(std::size_t capacity, std::uint32_t domains)
{
    SystemConfig cfg;
    cfg.numProcs = 4;
    cfg.homePolicy = HomePolicy::Interleave;
    cfg.trace.capacity = capacity;
    cfg.pdes.domains = domains;
    System sys(cfg);
    const WorkloadBundle bundle = makeWorkload(
        "ds_map", WorkloadParams::parse("theta=0.99,max_txns_per_phase=64"),
        /*seed=*/5, cfg.numProcs);
    bundle.attach(sys);
    const RunResult res = sys.run();
    EXPECT_TRUE(res.completed);
    EXPECT_GT(res.violations, 0u) << "the run must retry transactions";
    EXPECT_EQ(res.pdes.domains, domains);
    return buildTxLedger(sys.traceRecorder());
}

TEST(TxLedger, WrappedRingReportsOnlyCompleteCommits)
{
    // A ring that wraps loses the start of some transactions. Each
    // entry the wrapped ledger still reports must equal the same
    // transaction's entry in a ledger of the whole run: no begin tick
    // moved up to the commit start, no retries lost.
    TraceFlagsGuard guard;
    Trace::enable(TraceCat::Proc, true);
    Trace::enable(TraceCat::Commit, true);
    for (std::uint32_t domains : {0u, 2u}) {
        SCOPED_TRACE("domains=" + std::to_string(domains));
        const TxLedger full = contendedLedger(std::size_t{1} << 20, domains);
        ASSERT_EQ(full.truncated, 0u);
        const TxLedger cut = contendedLedger(64, domains);
        EXPECT_GT(cut.truncated, 0u);
        EXPECT_FALSE(cut.entries.empty());
        for (const TxLedgerEntry &e : cut.entries) {
            SCOPED_TRACE("tid " + std::to_string(e.tid));
            auto it = std::find_if(
                full.entries.begin(), full.entries.end(),
                [&e](const TxLedgerEntry &f) { return f.tid == e.tid; });
            ASSERT_NE(it, full.entries.end());
            EXPECT_EQ(e.node, it->node);
            EXPECT_EQ(e.beginTick, it->beginTick);
            EXPECT_EQ(e.commitStartTick, it->commitStartTick);
            EXPECT_EQ(e.commitEndTick, it->commitEndTick);
            EXPECT_EQ(e.retries, it->retries);
            EXPECT_EQ(e.hasViolation, it->hasViolation);
            EXPECT_EQ(e.causes, it->causes);
            EXPECT_EQ(e.probeCount, it->probeCount);
            EXPECT_EQ(e.probeRttTotal, it->probeRttTotal);
            EXPECT_EQ(e.firstSkipTick, it->firstSkipTick);
            EXPECT_EQ(e.firstMarkTick, it->firstMarkTick);
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
    TraceFlagsGuard guard;
    Trace::enableAll(true);

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
    TraceFlagsGuard guard; // everything off
    ConflictScenario s;
    ASSERT_TRUE(s.sys.run().completed);
    std::ostringstream os;
    exportChromeTrace(s.sys.traceRecorder(), s.cfg.numProcs, os);
    // Metadata only - no slices, no instants.
    EXPECT_NE(os.str().find("\"traceEvents\":["), std::string::npos);
    EXPECT_EQ(os.str().find("\"ph\":\"X\""), std::string::npos);
}

TEST(StatsJson, SchemaAndDeterminism)
{
    TraceFlagsGuard guard;
    Trace::enableAll(true);

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
    TraceFlagsGuard guard;
    Trace::enableAll(true);

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
runConflict()
{
    ConflictScenario s;
    auto res = s.sys.run();
    EXPECT_TRUE(res.completed);
    return RunFp{res.cycles, res.events,
                 s.sys.proc(1).stats().violations};
}

TEST(TraceRecorder, TracingDoesNotChangeTheRun)
{
    TraceFlagsGuard guard;
    const RunFp off = runConflict();
    Trace::enableAll(true);
    const RunFp on = runConflict();
    EXPECT_EQ(off, on)
        << "recording is observational; fingerprints must match";
}

// ---------------------------------------------------------------------
// Sweep concurrency: one ring per System, shared flags only
// ---------------------------------------------------------------------

TEST(TraceRecorder, ParallelSweepRecordsPerSystem)
{
    TraceFlagsGuard guard;
    Trace::enableAll(true);

    constexpr std::size_t kRuns = 8;
    auto one = [](std::size_t) {
        ConflictScenario s;
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
        EXPECT_EQ(want[i].second, got[i].second) << "run " << i;
        EXPECT_GT(got[i].second, 0u);
    }
}

} // namespace
} // namespace tcc
