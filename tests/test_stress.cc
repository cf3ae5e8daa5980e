/**
 * @file
 * Property-based stress tests: randomized transactional workloads are
 * pushed through the full protocol stack across a parameter sweep
 * (seeds x conflict-detection granularity x network model x processor
 * count x chaos-network jitter), and three invariants are verified
 * after every run:
 *
 *   1. serializability - every committed transaction's reads match a
 *      serial replay in TID order (SerialChecker);
 *   2. quiescence - every directory retired every issued TID and no
 *      protocol state is left in flight;
 *   3. progress - every generated transaction committed.
 *
 * The parameter sweep runs through SweepRunner: every configuration
 * simulates concurrently on a worker (each System is thread-confined),
 * and the invariants are asserted serially afterwards - gtest
 * assertions are not thread-safe, so no EXPECT runs off the main
 * thread.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/sweep.hh"
#include "core/system.hh"
#include "sim/random.hh"
#include "workload/scripted_source.hh"

namespace tcc {
namespace {

struct StressParam {
    std::uint64_t seed;
    std::uint32_t procs;
    Granularity gran;
    /** Nonzero: the mesh sits under a jitter-only chaos network that
     *  delays every message by up to this many cycles. */
    Tick jitter;
    bool ideal;
    bool writeThrough = false;
    std::uint32_t dirCacheEntries = 0;
};

std::string
paramName(const StressParam &p)
{
    std::string s = "seed" + std::to_string(p.seed) + "_p" +
                    std::to_string(p.procs) +
                    (p.gran == Granularity::Word ? "_word" : "_line") +
                    "_j" + std::to_string(p.jitter) +
                    (p.ideal ? "_ideal" : "_mesh");
    if (p.writeThrough)
        s += "_wt";
    if (p.dirCacheEntries)
        s += "_dc" + std::to_string(p.dirCacheEntries);
    return s;
}

/**
 * Build a random conflict-heavy workload: each processor runs
 * transactions mixing private accesses, shared-array accesses, and
 * read-modify-writes on a small hot set.
 */
std::vector<ScriptedSource>
buildWorkload(const StressParam &p, std::uint32_t txns_per_proc)
{
    std::vector<ScriptedSource> srcs(p.procs);
    for (NodeId proc = 0; proc < p.procs; ++proc) {
        Rng rng(p.seed * 1000 + proc);
        for (std::uint32_t t = 0; t < txns_per_proc; ++t) {
            std::vector<TxOp> ops;
            const int n_ops = 2 + static_cast<int>(rng.below(8));
            for (int k = 0; k < n_ops; ++k) {
                const double roll = rng.uniform();
                if (roll < 0.3) {
                    ops.push_back(TxOp::compute(
                        1 + static_cast<std::uint32_t>(
                                rng.below(60))));
                } else if (roll < 0.55) {
                    // Private data.
                    ops.push_back(TxOp::store(
                        0x1000000ull * (proc + 1) +
                            4 * rng.below(64),
                        rng.next()));
                } else if (roll < 0.8) {
                    // Shared array read-modify-write.
                    const Addr a = 0x90000000ull + 4 * rng.below(32);
                    ops.push_back(TxOp::load(a));
                    ops.push_back(TxOp::storeAdd(a, 1));
                } else {
                    // Hot word increment (heavy conflicts).
                    const Addr a = 0xA0000000ull + 4 * rng.below(3);
                    ops.push_back(TxOp::load(a));
                    ops.push_back(TxOp::storeAdd(a, 1));
                }
            }
            srcs[proc].add(std::move(ops),
                           /*barrier_before=*/t != 0 &&
                               rng.chance(0.05));
        }
    }
    return srcs;
}

/** Everything the main thread asserts about one finished run. */
struct StressResult {
    bool completed = false;
    bool allCommitted = false;
    bool checkerOk = false;
    std::string checkerError;
    bool quiesced = false;
    bool memoryOk = false;
    std::string memoryError;
};

StressResult
runStress(const StressParam &p)
{
    SystemConfig cfg;
    cfg.numProcs = p.procs;
    cfg.check.serial = true;
    cfg.check.invariants = true;
    cfg.cache.granularity = p.gran;
    cfg.network.model = p.ideal ? NetworkConfig::Model::Ideal
                                : NetworkConfig::Model::Mesh;
    if (p.jitter != 0) {
        cfg.network.model = NetworkConfig::Model::Chaos;
        cfg.network.chaos = chaosPreset("jitter");
        cfg.network.chaos.jitter = p.jitter;
        cfg.network.chaos.seed = p.seed;
    }
    cfg.writeThroughCommit = p.writeThrough;
    cfg.directory.dirCacheEntries = p.dirCacheEntries;
    System sys(cfg);

    constexpr std::uint32_t kTxns = 25;
    auto srcs = buildWorkload(p, kTxns);
    for (NodeId n = 0; n < p.procs; ++n)
        sys.setSource(n, &srcs[n]);

    const RunResult res = sys.run(1'000'000'000ull);
    StressResult out;
    out.completed = res.completed;
    if (!out.completed)
        return out;

    // Progress: every transaction committed exactly once.
    out.allCommitted = true;
    for (NodeId n = 0; n < p.procs; ++n)
        if (srcs[n].committed() != kTxns)
            out.allCommitted = false;

    // Serializability and online protocol invariants.
    out.checkerOk = res.serial.ok && res.invariants.ok;
    out.checkerError =
        !res.serial.ok ? res.serial.error : res.invariants.error;

    // Quiescence.
    out.quiesced = res.quiesced;

    // Hot counters must equal the number of increments recorded by
    // the replay (conservation is implied by the checker, but verify
    // the simulator's memory too).
    out.memoryOk = true;
    GlobalStore final_state;
    sys.commitLog().replayFinalState(final_state);
    final_state.forEach([&](Addr addr, std::uint64_t val) {
        if (out.memoryOk && sys.memory().read(addr) != val) {
            out.memoryOk = false;
            std::ostringstream os;
            os << "memory mismatch at " << std::hex << addr;
            out.memoryError = os.str();
        }
    });
    // The whole image, too: the simulator may hold no word the replay
    // lacks (footprint) and must hold every value (fingerprint).
    if (out.memoryOk &&
        (final_state.footprint() != sys.memory().footprint() ||
         final_state.fingerprint() != sys.memory().fingerprint())) {
        out.memoryOk = false;
        std::ostringstream os;
        os << "image mismatch: replay " << final_state.footprint()
           << " words, memory " << sys.memory().footprint() << " words";
        out.memoryError = os.str();
    }
    return out;
}

std::vector<StressParam> makeParams();

TEST(StressSweep, SerializableQuiescentAndLive)
{
    const auto params = makeParams();
    SweepRunner runner; // TCC_JOBS / hardware concurrency
    const auto results = sweepIndex<StressResult>(
        runner, params.size(),
        [&](std::size_t i) { return runStress(params[i]); });

    for (std::size_t i = 0; i < params.size(); ++i) {
        SCOPED_TRACE(paramName(params[i]));
        const auto &r = results[i];
        ASSERT_TRUE(r.completed)
            << "stuck (livelock or lost message)";
        EXPECT_TRUE(r.allCommitted);
        EXPECT_TRUE(r.checkerOk) << r.checkerError;
        EXPECT_TRUE(r.quiesced);
        EXPECT_TRUE(r.memoryOk) << r.memoryError;
    }
}

std::vector<StressParam>
makeParams()
{
    std::vector<StressParam> ps;
    for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
        for (std::uint32_t procs : {2u, 4u, 8u}) {
            ps.push_back({seed, procs, Granularity::Word, 0, false});
        }
    }
    // Line granularity (false sharing paths).
    for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
        ps.push_back({seed, 4, Granularity::Line, 0, false});
        ps.push_back({seed, 8, Granularity::Line, 0, false});
    }
    // Unordered network: chaos jitter stresses the race-elimination
    // machinery (poisoned fills, stale marks, TID-tagged write-backs).
    for (std::uint64_t seed : {21ull, 22ull, 23ull, 24ull}) {
        ps.push_back({seed, 4, Granularity::Word, 30, false});
        ps.push_back({seed, 8, Granularity::Word, 60, false});
    }
    // Ideal network (different timing interleavings).
    for (std::uint64_t seed : {31ull, 32ull}) {
        ps.push_back({seed, 8, Granularity::Word, 0, true});
    }
    // Line granularity + jitter combined.
    for (std::uint64_t seed : {41ull, 42ull}) {
        ps.push_back({seed, 8, Granularity::Line, 40, false});
    }
    // Write-through commit ablation under contention and jitter.
    for (std::uint64_t seed : {51ull, 52ull}) {
        StressParam p{seed, 8, Granularity::Word, 0, false};
        p.writeThrough = true;
        ps.push_back(p);
        StressParam q{seed, 4, Granularity::Word, 30, false};
        q.writeThrough = true;
        ps.push_back(q);
    }
    // Tiny directory cache (every message can miss).
    for (std::uint64_t seed : {61ull, 62ull}) {
        StressParam p{seed, 8, Granularity::Word, 0, false};
        p.dirCacheEntries = 16;
        ps.push_back(p);
    }
    // A larger machine (wider mesh, longer commit fan-out).
    ps.push_back({71, 16, Granularity::Word, 0, false});
    ps.push_back({72, 32, Granularity::Word, 0, false});
    return ps;
}

// ---------------------------------------------------------------------
// Tiny-cache stress: overflow handling under pressure.
// ---------------------------------------------------------------------

class TinyCacheStress : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TinyCacheStress, OverflowViolatesButStaysCorrect)
{
    SystemConfig cfg;
    cfg.numProcs = 4;
    cfg.check.serial = true;
    cfg.check.invariants = true;
    cfg.cache.l1Bytes = 128;
    cfg.cache.l1Assoc = 2;
    cfg.cache.l2Bytes = 1024; // 32 lines
    cfg.cache.l2Assoc = 4;
    System sys(cfg);

    // Transactions with working sets comparable to the whole cache.
    std::vector<ScriptedSource> srcs(4);
    Rng rng(GetParam());
    for (NodeId proc = 0; proc < 4; ++proc) {
        for (int t = 0; t < 8; ++t) {
            std::vector<TxOp> ops;
            for (int k = 0; k < 20; ++k) {
                const Addr a =
                    0x90000000ull + 0x20 * rng.below(64) + 4 * proc;
                ops.push_back(TxOp::load(a));
                ops.push_back(TxOp::storeAdd(a, 1));
            }
            srcs[proc].add(std::move(ops));
        }
        sys.setSource(proc, &srcs[proc]);
    }

    const RunResult res = sys.run(2'000'000'000ull);
    ASSERT_TRUE(res.completed);
    EXPECT_TRUE(res.serial.ok) << res.serial.error;
    EXPECT_TRUE(res.invariants.ok) << res.invariants.error;
    EXPECT_TRUE(res.quiesced);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TinyCacheStress,
                         ::testing::Values(100, 101, 102));

} // namespace
} // namespace tcc
