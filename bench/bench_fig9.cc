/**
 * @file
 * Reproduces Figure 9: remote traffic bandwidth at 64 processors, in
 * bytes per committed instruction, broken into overhead (protocol
 * control), miss (load requests + data), write-back, and shared
 * (cache-to-cache) components. The paper reports 0.01-0.6
 * bytes/instruction total, i.e., well within commodity cluster
 * interconnect bandwidth at 2 GHz.
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

    std::puts("=== Figure 9: remote traffic (bytes/instr, "
              "64 processors) ===");
    std::puts(trafficHeader().c_str());

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
        std::puts(trafficRowText(out.traffic).c_str());
        // The paper also quotes the implied MB/s at 2 GHz per node.
        const double mbps =
            out.traffic.total() * 2e9 / static_cast<double>(procs) /
            1e6;
        std::printf("%-16s   -> %.1f MB/s per node at 2 GHz\n",
                    out.app.c_str(), mbps);
    }
    return 0;
}
