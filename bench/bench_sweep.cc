/**
 * @file
 * Benchmark of the evaluation harness itself, with a machine-readable
 * result (BENCH_sweep.json): wall-clock of a representative
 * figure-style grid (every application at 8 and 16 processors) run
 * serially vs through SweepRunner with N workers.
 *
 * Two identity gates run before any number is trusted: the parallel
 * pass must be bit-identical to the serial pass, and one grid point
 * re-run with the epoch sampler and the contention profiler armed must
 * be bit-identical to the plain run (observability is free). The
 * single-run throughput, trace-wiring and chaos measurements live in
 * bench_kernel and chaos_sweep.
 *
 * Usage: bench_sweep [--smoke] [--out PATH] [--jobs=<n>]
 *   --smoke   tiny grid (CI wiring check, not a benchmark)
 *   --out     JSON output path (default BENCH_sweep.json)
 *   --jobs    parallel worker count (default: TCC_JOBS env, else
 *             hardware threads)
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"

namespace {

using namespace tccbench;

/** Mean / min / relative standard deviation of repeated wall times.
 *  The minimum feeds the speedup (least-noise estimate); the relative
 *  stddev tells the gate whether this machine's timings are stable
 *  enough to fail on. */
struct WallStats {
    double minSec = 0;
    double meanSec = 0;
    double relStddev = 0;
};

WallStats
wallStats(const std::vector<double> &times)
{
    WallStats w;
    w.minSec = times[0];
    double sum = 0;
    for (double t : times) {
        sum += t;
        w.minSec = std::min(w.minSec, t);
    }
    w.meanSec = sum / static_cast<double>(times.size());
    double var = 0;
    for (double t : times)
        var += (t - w.meanSec) * (t - w.meanSec);
    var /= static_cast<double>(times.size());
    if (w.meanSec > 0)
        w.relStddev = std::sqrt(var) / w.meanSec;
    return w;
}

struct GridCell {
    std::string app;
    std::uint32_t procs;
};

std::vector<RunOutcome>
runGrid(const std::vector<GridCell> &grid, unsigned jobs)
{
    SweepRunner runner(jobs);
    return sweepIndex<RunOutcome>(
        runner, grid.size(), [&](std::size_t i) {
            RunOptions opt;
            opt.procs = grid[i].procs;
            return runWorkload(grid[i].app, opt);
        });
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args =
        parseBenchArgs(argc, argv, "BENCH_sweep.json", true);
    BenchReport report(args);
    const unsigned jobs =
        args.jobs ? args.jobs : SweepRunner::defaultJobs();

    // The grid: every application at 8 and 16 CPUs (a slice of the
    // Figure 7 sweep). Smoke keeps two applications so CI only checks
    // the wiring.
    std::vector<GridCell> grid;
    std::size_t nApps = 0;
    for (const auto &app : benchApps()) {
        if (args.smoke && nApps >= 2)
            break;
        ++nApps;
        for (std::uint32_t p : {8u, 16u})
            grid.push_back(GridCell{app, p});
    }

    std::printf("== sweep-engine throughput (%zu runs) ==\n",
                grid.size());

    // Repeat each timed pass so the JSON carries per-run wall times
    // and the speedup gate can tell a real regression from scheduler
    // noise. The grid results are deterministic, so only the first
    // pass's outcomes are kept for the bit-identity check.
    const int passes = args.smoke ? 1 : 3;
    std::vector<double> serialTimes, parallelTimes;
    const auto timedPasses = [&](unsigned n, std::vector<double> &times) {
        std::vector<RunOutcome> first;
        for (int p = 0; p < passes; ++p) {
            const auto t0 = std::chrono::steady_clock::now();
            auto out = runGrid(grid, n);
            times.push_back(seconds(t0, std::chrono::steady_clock::now()));
            if (p == 0)
                first = std::move(out);
        }
        return first;
    };
    const std::vector<RunOutcome> serial = timedPasses(1, serialTimes);
    const std::vector<RunOutcome> parallel =
        timedPasses(jobs, parallelTimes);
    const WallStats serialW = wallStats(serialTimes);
    const WallStats parallelW = wallStats(parallelTimes);
    const double serialSec = serialW.minSec;
    const double parallelSec = parallelW.minSec;
    const double noise = std::max(serialW.relStddev, parallelW.relStddev);
    std::printf("serial   (1 job)  : %8.3f sec "
                "(min of %d, +/-%.1f%%)\n",
                serialSec, passes, serialW.relStddev * 100.0);
    std::printf("parallel (%u jobs) : %8.3f sec "
                "(min of %d, +/-%.1f%%)\n",
                jobs, parallelSec, passes,
                parallelW.relStddev * 100.0);

    // Determinism gate: the parallel sweep must reproduce the serial
    // sweep bit for bit, or its timing is meaningless.
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const char *diff = outcomeDiff(serial[i], parallel[i]);
        report.match("parallel_identical", !diff,
                     "at %s/%u: parallel run differs from serial in "
                     "'%s'",
                     grid[i].app.c_str(), grid[i].procs, diff);
    }
    std::printf("determinism        : %s\n",
                report.passed("parallel_identical")
                    ? "parallel == serial (all runs bit-identical)"
                    : "MISMATCH");

    const double speedup = serialSec / parallelSec;
    std::printf("speedup            : %8.2fx\n", speedup);

    // Observability-is-free gate: re-run one grid point with the
    // epoch sampler and the contention profiler armed. Sampling is
    // purely observational, so the outcome must match the plain run
    // bit for bit - any divergence means the metrics layer leaked
    // into the simulation.
    RunOptions armedOpt;
    armedOpt.procs = grid[0].procs;
    armedOpt.trace.metricsEpoch = 500;
    armedOpt.trace.contentionTopK = 16;
    const RunOutcome armed = runWorkload(grid[0].app, armedOpt);
    const char *armedDiff = outcomeDiff(armed, serial[0]);
    report.match("observability_identical", !armedDiff,
                 "at %s/%u: run with metrics sampler armed differs "
                 "from the plain run in '%s'",
                 grid[0].app.c_str(), grid[0].procs, armedDiff);
    std::printf("observability gate : armed == off (%llu epochs "
                "sampled)\n",
                (unsigned long long)armed.metricsEpochs);

    // Regression gate: on a machine with real parallelism, a parallel
    // sweep that loses to the serial loop means the workers are
    // contending on something (allocator, false sharing). It arms on
    // full runs with more than one hardware thread; on a noisy machine
    // (run-to-run variance above 10%) a sub-1.0 ratio is as likely to
    // be scheduler interference, so it warns and records instead.
    const unsigned hw = std::thread::hardware_concurrency();
    if (!args.smoke && jobs > 1 && hw > 1) {
        if (speedup < 1.0 && noise > 0.10)
            std::fprintf(stderr,
                         "WARN: parallel sweep slower than serial "
                         "(%.2fx with %u jobs on %u hardware threads) "
                         "but wall times vary +/-%.0f%% - not failing "
                         "on a noisy machine\n",
                         speedup, jobs, hw, noise * 100.0);
        else
            report.check("parallel_speedup", speedup >= 1.0,
                         "parallel sweep slower than serial (%.2fx "
                         "with %u jobs on %u hardware threads)",
                         speedup, jobs, hw);
    }

    StatsNode &r = report.root();
    StatsNode &serialRuns = r.vector("serial_runs_sec");
    for (double t : serialTimes)
        serialRuns.pushReal(t);
    StatsNode &parallelRuns = r.vector("parallel_runs_sec");
    for (double t : parallelTimes)
        parallelRuns.pushReal(t);
    r.real("serial_sec", serialSec);
    r.real("parallel_sec", parallelSec);
    r.real("wall_time_rel_stddev", noise);
    r.num("jobs", jobs);
    r.real("speedup", speedup);
    r.num("metrics_epochs", armed.metricsEpochs);
    StatsNode &cfg = report.config();
    cfg.num("apps", nApps);
    cfg.num("runs", grid.size());
    StatsNode &procs = cfg.vector("procs");
    procs.push(8);
    procs.push(16);
    return report.finish();
}
