/**
 * @file
 * SweepRunner: scheduling semantics (completion, start and result
 * order, errors, reuse, TCC_JOBS) and the determinism contract - a
 * batch of simulations run through the pool must be bit-identical to
 * the same batch run serially, because every System is
 * thread-confined.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <latch>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/sweep.hh"
#include "core/system.hh"
#include "workload/scripted_source.hh"

namespace tcc {
namespace {

TEST(SweepRunner, RunsEveryJob)
{
    SweepRunner runner(4);
    EXPECT_EQ(runner.jobs(), 4u);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        runner.submit([&count]() { ++count; });
    runner.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(SweepRunner, SingleJobRunsInline)
{
    SweepRunner runner(1);
    EXPECT_EQ(runner.jobs(), 1u);
    // Inline mode: submission order IS execution order, observable
    // without synchronization because everything runs on this thread.
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        runner.submit([&order, i]() { order.push_back(i); });
    runner.wait();
    std::vector<int> want(10);
    std::iota(want.begin(), want.end(), 0);
    EXPECT_EQ(order, want);
}

TEST(SweepRunner, WaitRethrowsJobException)
{
    SweepRunner runner(2);
    std::atomic<int> count{0};
    for (int i = 0; i < 8; ++i) {
        runner.submit([&count, i]() {
            if (i == 3)
                throw std::runtime_error("job 3 failed");
            ++count;
        });
    }
    EXPECT_THROW(runner.wait(), std::runtime_error);
    // The other jobs still ran; the runner is reusable afterwards.
    EXPECT_EQ(count.load(), 7);
    runner.submit([&count]() { ++count; });
    EXPECT_NO_THROW(runner.wait());
    EXPECT_EQ(count.load(), 8);
}

TEST(SweepRunner, ReusableAcrossWaves)
{
    SweepRunner runner(3);
    std::atomic<int> count{0};
    for (int wave = 0; wave < 5; ++wave) {
        for (int i = 0; i < 20; ++i)
            runner.submit([&count]() { ++count; });
        runner.wait();
        EXPECT_EQ(count.load(), (wave + 1) * 20);
    }
}

TEST(SweepRunner, SweepIndexReturnsSubmissionOrder)
{
    SweepRunner runner(4);
    auto out = sweepIndex<std::size_t>(
        runner, 200, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 200u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(SweepRunner, JobsStartInSubmissionOrder)
{
    // Two workers plus the caller inside wait() make three consumers.
    // Jobs 0 and 1 hold two of them until job 7 runs, so jobs 2-7 all
    // go through the one consumer left and start in the order they
    // were submitted.
    SweepRunner runner(2);
    std::latch gate(1);
    std::mutex orderMtx;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i) {
        runner.submit([&, i]() {
            if (i < 2) {
                gate.wait();
                return;
            }
            {
                std::lock_guard<std::mutex> lk(orderMtx);
                order.push_back(i);
            }
            if (i == 7)
                gate.count_down();
        });
    }
    runner.wait();
    EXPECT_EQ(order, (std::vector<int>{2, 3, 4, 5, 6, 7}));
}

TEST(SweepRunner, DefaultJobsHonorsEnv)
{
    ASSERT_EQ(setenv("TCC_JOBS", "3", 1), 0);
    EXPECT_EQ(SweepRunner::defaultJobs(), 3u);
    ASSERT_EQ(setenv("TCC_JOBS", "0", 1), 0); // malformed: ignored
    EXPECT_GE(SweepRunner::defaultJobs(), 1u);
    ASSERT_EQ(unsetenv("TCC_JOBS"), 0);
    EXPECT_GE(SweepRunner::defaultJobs(), 1u);
}

// ---------------------------------------------------------------------
// Determinism: parallel == serial, bit for bit.
// ---------------------------------------------------------------------

struct SimResult {
    std::uint64_t cycles = 0;
    std::uint64_t events = 0;
    std::uint64_t commits = 0;
    std::uint64_t violations = 0;
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    bool completed = false;
    bool checkerOk = false;
    bool quiesced = false;

    bool
    operator==(const SimResult &o) const
    {
        return cycles == o.cycles && events == o.events &&
               commits == o.commits && violations == o.violations &&
               messages == o.messages && bytes == o.bytes &&
               completed == o.completed && checkerOk == o.checkerOk &&
               quiesced == o.quiesced;
    }
};

struct SimConfig {
    std::uint64_t seed;
    std::uint32_t procs;
    Granularity gran;
    Tick jitter;
};

/** One self-contained simulation; safe to run on any worker thread. */
SimResult
runOne(const SimConfig &c)
{
    SystemConfig cfg;
    cfg.numProcs = c.procs;
    cfg.check.serial = true;
    cfg.check.invariants = true;
    cfg.cache.granularity = c.gran;
    if (c.jitter != 0) {
        cfg.network.model = NetworkConfig::Model::Chaos;
        cfg.network.chaos = chaosPreset("jitter");
        cfg.network.chaos.jitter = c.jitter;
        cfg.network.chaos.seed = c.seed;
    }
    System sys(cfg);

    std::vector<ScriptedSource> srcs(c.procs);
    Rng rng(c.seed);
    for (NodeId p = 0; p < c.procs; ++p) {
        for (int t = 0; t < 12; ++t) {
            std::vector<TxOp> ops;
            ops.push_back(TxOp::compute(
                1 + static_cast<std::uint32_t>(rng.below(30))));
            const Addr hot = 0xA0000000ull + 4 * rng.below(4);
            ops.push_back(TxOp::load(hot));
            ops.push_back(TxOp::storeAdd(hot, 1));
            ops.push_back(TxOp::store(
                0x1000000ull * (p + 1) + 4 * rng.below(32),
                rng.next()));
            srcs[p].add(std::move(ops));
        }
        sys.setSource(p, &srcs[p]);
    }

    const RunResult res = sys.run(1'000'000'000ull);
    SimResult out;
    out.cycles = res.cycles;
    out.events = res.events;
    out.completed = res.completed;
    for (NodeId p = 0; p < c.procs; ++p) {
        out.commits += sys.proc(p).stats().txnsCommitted;
        out.violations += sys.proc(p).stats().violations;
    }
    out.messages = sys.network().stats().messages;
    out.bytes = sys.network().stats().totalBytes;
    out.checkerOk = res.serial.ok && res.invariants.ok;
    out.quiesced = res.quiesced;
    return out;
}

TEST(SweepDeterminism, ParallelBitIdenticalToSerial)
{
    std::vector<SimConfig> configs;
    for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull, 6ull}) {
        configs.push_back({seed, 4, Granularity::Word, 0});
        configs.push_back({seed, 8, Granularity::Line, 0});
        configs.push_back({seed, 4, Granularity::Word, 25});
    }

    SweepRunner serial(1);
    const auto serialResults = sweepIndex<SimResult>(
        serial, configs.size(),
        [&](std::size_t i) { return runOne(configs[i]); });

    SweepRunner pool(4);
    const auto poolResults = sweepIndex<SimResult>(
        pool, configs.size(),
        [&](std::size_t i) { return runOne(configs[i]); });

    ASSERT_EQ(serialResults.size(), poolResults.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("config " + std::to_string(i) + " (seed " +
                     std::to_string(configs[i].seed) + ", procs " +
                     std::to_string(configs[i].procs) + ")");
        EXPECT_TRUE(serialResults[i].completed);
        EXPECT_TRUE(serialResults[i].checkerOk);
        EXPECT_TRUE(serialResults[i].quiesced);
        EXPECT_TRUE(serialResults[i] == poolResults[i])
            << "parallel run diverged from serial run";
    }

    // And a second parallel pass reproduces the first (run-to-run
    // determinism, not just serial-vs-parallel).
    SweepRunner pool2(3);
    const auto again = sweepIndex<SimResult>(
        pool2, configs.size(),
        [&](std::size_t i) { return runOne(configs[i]); });
    for (std::size_t i = 0; i < configs.size(); ++i)
        EXPECT_TRUE(again[i] == poolResults[i]) << "config " << i;
}

} // namespace
} // namespace tcc
