/**
 * @file
 * Reproduces Figure 6: normalized execution-time breakdown of every
 * application on a single processor. The paper's point: with one
 * processor, TCC overhead (commit) is insignificant (~1-2%), so a TCC
 * uniprocessor is equivalent to a conventional one.
 */

#include <cstdio>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace tccbench;
    const BenchArgs args = parseBenchArgs(argc, argv);
    const auto apps = benchApps(args);
    const std::uint32_t procs =
        args.procs.empty() ? 1u : args.procs.front();

    std::puts("=== Figure 6: single-processor execution time "
              "breakdown ===");
    std::puts(breakdownHeader().c_str());

    SweepRunner runner(args.jobs);
    auto outs = sweepIndex<RunOutcome>(
        runner, apps.size(), [&](std::size_t i) {
            RunOptions opt;
            opt.procs = procs;
            return runWorkload(apps[i], opt);
        });

    double worst_commit = 0;
    for (const auto &out : outs) {
        std::puts(breakdownRow(out.app, out.res.breakdown).c_str());
        worst_commit = std::max(
            worst_commit,
            out.res.breakdown.fraction(out.res.breakdown.commit));
    }
    std::printf("\nmax commit overhead on 1 CPU: %.1f%% (paper: ~1%% "
                "on average)\n",
                100.0 * worst_commit);
    return 0;
}
