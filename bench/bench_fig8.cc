/**
 * @file
 * Reproduces Figure 8: the impact of interconnect communication
 * latency at 32 processors. The x-axis sweeps cycles-per-hop over
 * {2, 4, 8}; bars are normalized to each application's run at the
 * lowest latency. The paper's finding: applications with significant
 * remote misses (equake) or commit time (volrend) degrade by up to
 * ~50% at 8 cycles/hop, while low-communication applications
 * (SPECjbb, swim) are nearly flat.
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
        args.procs.empty() ? 32u : args.procs.front();
    const std::vector<Tick> hops = {2, 4, 8};

    std::puts("=== Figure 8: communication latency sensitivity "
              "(32 processors) ===");
    std::printf("%-16s %10s %11s | %7s %7s %7s %7s %9s\n", "application",
                "cyc/hop", "norm_time", "useful", "miss", "idle",
                "commit", "violation");

    SweepRunner runner(args.jobs);
    auto outs = sweepIndex<RunOutcome>(
        runner, apps.size() * hops.size(), [&](std::size_t i) {
            RunOptions opt;
            opt.procs = procs;
            opt.hopLatency = hops[i % hops.size()];
            return runWorkload(apps[i / hops.size()], opt);
        });

    for (std::size_t a = 0; a < apps.size(); ++a) {
        double t_base = 0;
        for (std::size_t h = 0; h < hops.size(); ++h) {
            const Tick hop = hops[h];
            const auto &out = outs[a * hops.size() + h];
            if (!out.res.completed) {
                std::printf("%-16s %10llu DID NOT COMPLETE\n",
                            apps[a].c_str(),
                            (unsigned long long)hop);
                continue;
            }
            if (h == 0)
                t_base = static_cast<double>(out.res.cycles);
            const double height =
                100.0 * static_cast<double>(out.res.cycles) / t_base;
            const auto &bd = out.res.breakdown;
            std::printf("%-16s %10llu %10.1f%% | %6.1f%% %6.1f%% "
                        "%6.1f%% %6.1f%% %8.1f%%\n",
                        apps[a].c_str(), (unsigned long long)hop,
                        height, height * bd.fraction(bd.useful),
                        height * bd.fraction(bd.miss),
                        height * bd.fraction(bd.idle),
                        height * bd.fraction(bd.commit),
                        height * bd.fraction(bd.violation));
        }
    }
    return 0;
}
