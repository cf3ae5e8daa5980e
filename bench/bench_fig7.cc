/**
 * @file
 * Reproduces Figure 7: scaling of every application from 8 to 64
 * processors. For each (app, p) the harness prints the execution-time
 * breakdown normalized to the single-processor run of the same app,
 * with the speedup on top of each bar exactly as the paper annotates.
 *
 * Shape targets (the paper's testbed constants differ from ours):
 * near-linear scaling for SPECjbb / SVM Classify / swim / tomcatv /
 * barnes / radix; commit-limited volrend / equake; violation-limited
 * Cluster GA at low processor counts.
 */

#include <cstdio>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace tccbench;
    const BenchArgs args = parseBenchArgs(argc, argv);
    const auto apps = benchApps(args);
    const auto procList = benchProcs(args, {8u, 16u, 32u, 64u});

    std::puts("=== Figure 7: execution time vs processor count "
              "(normalized to 1 CPU) ===");
    std::printf("%-16s %5s %9s %9s | %7s %7s %7s %7s %9s  (%% of 1-CPU "
                "time)\n",
                "application", "cpus", "speedup", "norm_time", "useful",
                "miss", "idle", "commit", "violation");

    // One job per grid cell; cell 0 of each app row is the 1-CPU
    // baseline the rest normalize against.
    struct Cell {
        std::size_t app;
        std::uint32_t procs;
    };
    std::vector<Cell> cells;
    for (std::size_t a = 0; a < apps.size(); ++a) {
        cells.push_back({a, 1});
        for (std::uint32_t p : procList)
            cells.push_back({a, p});
    }
    SweepRunner runner(args.jobs);
    auto outs = sweepIndex<RunOutcome>(
        runner, cells.size(), [&](std::size_t i) {
            RunOptions opt;
            opt.procs = cells[i].procs;
            return runWorkload(apps[cells[i].app], opt);
        });

    const std::size_t stride = 1 + procList.size();
    for (std::size_t a = 0; a < apps.size(); ++a) {
        const auto &uni = outs[a * stride];
        if (!uni.res.completed) {
            std::printf("%-16s 1-CPU run DID NOT COMPLETE\n",
                        apps[a].c_str());
            continue;
        }
        const double t1 = static_cast<double>(uni.res.cycles);

        for (std::size_t j = 0; j < procList.size(); ++j) {
            const auto &out = outs[a * stride + 1 + j];
            if (!out.res.completed) {
                std::printf("%-16s %5u DID NOT COMPLETE\n",
                            apps[a].c_str(), procList[j]);
                continue;
            }
            const double tp = static_cast<double>(out.res.cycles);
            const double speedup = t1 / tp;
            // Per-bucket fractions of total busy time, scaled to the
            // normalized bar height (tp/t1 * 100%).
            const double height = 100.0 * tp / t1;
            const auto &bd = out.res.breakdown;
            std::printf("%-16s %5u %8.1fx %8.1f%% | %6.1f%% %6.1f%% "
                        "%6.1f%% %6.1f%% %8.1f%%\n",
                        apps[a].c_str(), out.procs, speedup,
                        height, height * bd.fraction(bd.useful),
                        height * bd.fraction(bd.miss),
                        height * bd.fraction(bd.idle),
                        height * bd.fraction(bd.commit),
                        height * bd.fraction(bd.violation));
        }
    }
    return 0;
}
