/**
 * @file
 * Kernel-swap determinism guarantees: a full System run is a pure
 * function of its configuration and workload. Two identical runs must
 * produce bit-identical cycle counts, commit/violation counts, and
 * network statistics. This pins the simulation kernel's event
 * ordering: any change to the queue (timing wheel, bucket migration,
 * message pooling) that perturbs same-tick FIFO order shows up here as
 * a diff between runs or against the protocol invariants.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/system.hh"
#include "workload/scripted_source.hh"
#include "workload/registry.hh"

namespace tcc {
namespace {

/** Everything observable about one completed run, for bit-comparison. */
struct RunFingerprint {
    Tick cycles = 0;
    std::uint64_t events = 0;
    std::uint64_t commits = 0;
    std::uint64_t violations = 0;
    std::uint64_t messages = 0;
    std::uint64_t totalBytes = 0;
    std::uint64_t totalHops = 0;
    std::vector<std::uint64_t> classBytes;
    std::vector<std::uint64_t> nodeBytes;
    std::vector<std::uint64_t> perProcCommits;
    std::vector<Tick> perProcDone;
    Breakdown breakdown;

    bool
    operator==(const RunFingerprint &o) const
    {
        return cycles == o.cycles && events == o.events &&
               commits == o.commits && violations == o.violations &&
               messages == o.messages && totalBytes == o.totalBytes &&
               totalHops == o.totalHops && classBytes == o.classBytes &&
               nodeBytes == o.nodeBytes &&
               perProcCommits == o.perProcCommits &&
               perProcDone == o.perProcDone &&
               breakdown.useful == o.breakdown.useful &&
               breakdown.miss == o.breakdown.miss &&
               breakdown.commit == o.breakdown.commit &&
               breakdown.idle == o.breakdown.idle &&
               breakdown.violation == o.breakdown.violation;
    }
};

RunFingerprint
fingerprint(System &sys, const RunResult &res)
{
    RunFingerprint fp;
    fp.cycles = res.cycles;
    fp.events = res.events;
    const NetworkStats &ns = sys.network().stats();
    fp.messages = ns.messages;
    fp.totalBytes = ns.totalBytes;
    fp.totalHops = ns.totalHops;
    for (int c = 0; c < static_cast<int>(TrafficClass::NumClasses); ++c)
        fp.classBytes.push_back(ns.classBytes[c]);
    fp.nodeBytes = ns.nodeBytes;
    for (NodeId n = 0; n < sys.numProcs(); ++n) {
        const auto &s = sys.proc(n).stats();
        fp.commits += s.txnsCommitted;
        fp.violations += s.violations;
        fp.perProcCommits.push_back(s.txnsCommitted);
        fp.perProcDone.push_back(sys.proc(n).doneTick());
    }
    fp.breakdown = res.breakdown;
    return fp;
}

/**
 * A 4-proc scripted workload with deliberate cross-processor conflicts
 * (all procs read-modify-write a shared counter) plus disjoint work
 * and a barrier, so the run exercises violations, commit ordering,
 * invalidations, and idle accounting.
 */
std::vector<std::unique_ptr<ScriptedSource>>
conflictWorkload(std::uint32_t procs)
{
    std::vector<std::unique_ptr<ScriptedSource>> srcs;
    constexpr Addr kShared = 0x9000;
    for (std::uint32_t p = 0; p < procs; ++p) {
        auto src = std::make_unique<ScriptedSource>();
        const Addr priv = 0x100000 + static_cast<Addr>(p) * 0x10000;
        for (int t = 0; t < 6; ++t) {
            src->add({TxOp::compute(20 + 7 * p),
                      TxOp::load(kShared),
                      TxOp::storeAdd(kShared, 1),
                      TxOp::store(priv + 8 * t, p * 100 + t)});
        }
        // Barrier, then a read-heavy transaction over others' data.
        const Addr other =
            0x100000 + static_cast<Addr>((p + 1) % procs) * 0x10000;
        src->add({TxOp::compute(10), TxOp::load(other),
                  TxOp::load(other + 8), TxOp::store(priv + 0x800, p)},
                 /*barrier_before=*/true);
        srcs.push_back(std::move(src));
    }
    return srcs;
}

RunFingerprint
runScripted(bool jitter)
{
    SystemConfig cfg;
    cfg.numProcs = 4;
    cfg.check.serial = true;
    cfg.check.invariants = true;
    if (jitter) {
        // Unordered network: a jitter-only chaos network.
        cfg.network.model = NetworkConfig::Model::Chaos;
        cfg.network.chaos = chaosPreset("jitter");
        cfg.network.chaos.jitter = 7;
        cfg.network.chaos.seed = 99;
    }
    System sys(cfg);
    auto srcs = conflictWorkload(cfg.numProcs);
    for (NodeId p = 0; p < cfg.numProcs; ++p)
        sys.setSource(p, srcs[p].get());
    const RunResult res = sys.run();
    EXPECT_TRUE(res.completed);
    EXPECT_TRUE(res.quiesced);
    EXPECT_TRUE(res.serial.ok) << res.serial.error;
    EXPECT_TRUE(res.invariants.ok) << res.invariants.error;
    // The shared counter saw every committed increment exactly once.
    EXPECT_EQ(sys.memory().read(0x9000),
              static_cast<std::uint64_t>(cfg.numProcs) * 6);
    return fingerprint(sys, res);
}

TEST(KernelDeterminism, GoldenScriptedRunsAreBitIdentical)
{
    const RunFingerprint a = runScripted(false);
    const RunFingerprint b = runScripted(false);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.commits, b.commits);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.totalBytes, b.totalBytes);
    EXPECT_TRUE(a == b);
    EXPECT_GT(a.violations + a.commits, 0u);
}

TEST(KernelDeterminism, GoldenRunsWithReorderJitterAreBitIdentical)
{
    const RunFingerprint a = runScripted(true);
    const RunFingerprint b = runScripted(true);
    EXPECT_TRUE(a == b);
}

// Same property through the synthetic-app path (seeded Rng workload,
// 8 procs, mesh contention): the heavier event population exercises
// wheel wraparound and overflow migration.
TEST(KernelDeterminism, SyntheticAppRunsAreBitIdentical)
{
    auto once = [] {
        SystemConfig cfg;
        cfg.numProcs = 8;
        System sys(cfg);
        const WorkloadBundle bundle = makeWorkload(
            "water_spatial",
            WorkloadParams::parse("txns_per_phase=64,phases=2"),
            /*seed=*/7, cfg.numProcs);
        bundle.attach(sys);
        auto res = sys.run();
        EXPECT_TRUE(res.completed);
        return fingerprint(sys, res);
    };
    const RunFingerprint a = once();
    const RunFingerprint b = once();
    EXPECT_TRUE(a == b);
    EXPECT_GT(a.commits, 0u);
}

} // namespace
} // namespace tcc
