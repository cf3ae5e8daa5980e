/**
 * @file
 * Adversarial-network sweep: every chaos preset x a slice of the
 * paper's applications x processor counts, each point under its own
 * fault seed with BOTH correctness checkers armed (the serializability
 * replay and the online protocol-invariant engine). The protocol must
 * shrug the faults off: any violation, stall, or incompleteness fails
 * the sweep.
 *
 * The grid runs twice - serially and through SweepRunner with N
 * workers - and the two passes must be bit-identical, proving the
 * chaos stream is a pure function of (seed, config) even under
 * parallel evaluation. The same two timed passes gate SweepRunner
 * itself: on a full run with N > 1 workers on a multi-core machine,
 * the parallel pass must not be slower than the serial one.
 *
 * Usage: chaos_sweep [--smoke] [--out PATH] [--jobs=<n>]
 *   --smoke   presets x one application (CI wiring check)
 *   --out     JSON output path (default BENCH_chaos.json)
 *   --jobs    parallel worker count (default: TCC_JOBS env, else
 *             hardware threads)
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "noc/chaos_network.hh"

namespace {

using namespace tccbench;

struct ChaosCell {
    std::string preset;
    std::string app;
    std::uint32_t procs;
    std::uint64_t seed;
};

std::string
cellName(const ChaosCell &c)
{
    return c.preset + "/" + c.app + "/" + std::to_string(c.procs) +
           "/s" + std::to_string(c.seed);
}

RunOutcome
runCell(const ChaosCell &c, bool smoke)
{
    RunOptions opt;
    opt.procs = c.procs;
    opt.seed = c.seed;
    opt.network.model = NetworkConfig::Model::Chaos;
    opt.network.chaos = chaosPreset(c.preset);
    // Every grid point gets its own fault stream, decorrelated from
    // the workload seed by an odd multiplier.
    opt.network.chaos.seed = c.seed * 0x9E3779B97F4A7C15ull + 1;
    opt.check.serial = true;
    opt.check.invariants = true;
    if (smoke) {
        // Sanitizer builds run this fixture too: keep each point to a
        // few hundred transactions while touching every fault path.
        opt.wl.set("phases", "1").set("max_txns_per_phase", "64");
    }
    return runWorkload(c.app, opt);
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args =
        parseBenchArgs(argc, argv, "BENCH_chaos.json", true);
    BenchReport report(args);
    const unsigned jobs =
        args.jobs ? args.jobs : SweepRunner::defaultJobs();

    // The grid: every fault preset x applications x machine sizes,
    // 40 points (the acceptance floor is 32). Smoke trims to the
    // presets x one small application - still every fault model,
    // fast enough for sanitizer CI.
    const std::vector<std::string> apps =
        args.smoke ? std::vector<std::string>{"radix"}
                   : std::vector<std::string>{"barnes", "radix",
                                              "water_spatial", "tomcatv"};
    const std::vector<std::uint32_t> procs =
        args.smoke ? std::vector<std::uint32_t>{4}
                   : std::vector<std::uint32_t>{8, 16};

    std::vector<ChaosCell> grid;
    std::uint64_t seed = 1;
    for (const auto &preset : chaosPresetNames())
        for (const auto &app : apps)
            for (std::uint32_t p : procs)
                grid.push_back(ChaosCell{preset, app, p, seed++});

    std::printf("== chaos sweep: %zu fault-config x workload points, "
                "both checkers armed ==\n",
                grid.size());

    const auto pass = [&](unsigned n) {
        SweepRunner runner(n);
        return sweepIndex<RunOutcome>(
            runner, grid.size(),
            [&](std::size_t i) { return runCell(grid[i], args.smoke); });
    };
    const auto s0 = std::chrono::steady_clock::now();
    const auto serial = pass(1);
    const auto s1 = std::chrono::steady_clock::now();
    const auto parallel = pass(jobs);
    const auto s2 = std::chrono::steady_clock::now();

    std::size_t passed = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const RunResult &res = serial[i].res;
        const bool clean = res.completed && res.checksPassed();
        passed += clean;
        report.check("clean", clean, "%s: %s", cellName(grid[i]).c_str(),
                     !res.completed    ? "did not complete"
                     : !res.serial.ok ? res.serial.error.c_str()
                                      : res.invariants.error.c_str());
        const char *diff = outcomeDiff(serial[i], parallel[i]);
        report.match("deterministic", !diff,
                     "%s: parallel run differs from serial in '%s'",
                     cellName(grid[i]).c_str(), diff);
    }
    const bool deterministic = report.passed("deterministic");

    std::printf("passed             : %zu / %zu points\n", passed,
                grid.size());
    std::printf("determinism        : serial vs %u-job sweep %s\n",
                jobs, deterministic ? "bit-identical" : "MISMATCH");
    const double speedup = seconds(s0, s1) / seconds(s1, s2);
    std::printf("serial   (1 job)   : %8.3f sec\n", seconds(s0, s1));
    std::printf("parallel (%u jobs) : %8.3f sec\n", jobs,
                seconds(s1, s2));
    std::printf("speedup            : %8.2fx\n", speedup);

    // Regression gate: on a machine with real parallelism, a parallel
    // sweep that loses to the serial loop means the workers are
    // contending on something (allocator, false sharing). The smoke
    // grid is too short to time.
    const unsigned hw = std::thread::hardware_concurrency();
    if (!args.smoke && jobs > 1 && hw > 1)
        report.check("parallel_speedup", speedup >= 1.0,
                     "parallel sweep slower than serial (%.2fx with %u "
                     "jobs on %u hardware threads)",
                     speedup, jobs, hw);

    StatsNode &r = report.root();
    r.num("chaos_configs_passed", passed);
    r.num("chaos_configs_total", grid.size());
    r.flag("deterministic", deterministic);
    r.num("jobs", jobs);
    r.real("serial_sec", seconds(s0, s1));
    r.real("parallel_sec", seconds(s1, s2));
    r.real("speedup", speedup);
    StatsNode &cfg = report.config();
    cfg.num("presets", chaosPresetNames().size());
    cfg.num("apps", apps.size());
    cfg.num("proc_counts", procs.size());
    return report.finish();
}
