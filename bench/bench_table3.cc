/**
 * @file
 * Reproduces Table 3: the TM characteristics of every application at
 * 64 processors - 90th-percentile transaction size (instructions),
 * write-/read-set sizes (KB), operations per word written, directories
 * touched per commit, directory working set (entries with remote
 * sharers), and directory occupancy (busy cycles per commit).
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
        args.procs.empty() ? 64u : args.procs.front();

    std::puts("=== Table 3: application TM characteristics "
              "(64 processors) ===");
    std::puts(table3Header().c_str());

    SweepRunner runner(args.jobs);
    auto outs = sweepIndex<RunOutcome>(
        runner, apps.size(), [&](std::size_t i) {
            RunOptions opt;
            opt.procs = procs;
            return runWorkload(apps[i], opt);
        });

    for (const auto &out : outs) {
        if (!out.res.completed) {
            std::printf("%-16s DID NOT COMPLETE\n", out.app.c_str());
            continue;
        }
        std::puts(table3Row(out.characterization).c_str());
    }
    return 0;
}
