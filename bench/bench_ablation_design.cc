/**
 * @file
 * Ablations of the design choices DESIGN.md calls out, at 32 CPUs:
 *
 *  1. Conflict-detection granularity: per-word SR/SM bits vs per-line
 *     bits (Section 3.1 - word-level tracking avoids false sharing
 *     violations at the cost of wider tags).
 *  2. TID aging (starvation mitigation, Section 3.3): on vs off under
 *     a high-conflict workload.
 *  3. Home mapping: first-touch placement (paper's policy) vs page
 *     interleaving - locality is what makes parallel commit cheap.
 */

#include <cstdio>

#include "bench_common.hh"

namespace {

using namespace tccbench;

/** A/B sweep: run @p variants.size() options per app concurrently. */
std::vector<tccbench::RunOutcome>
abSweep(tccbench::SweepRunner &runner,
        const std::vector<std::string> &names,
        const std::vector<tccbench::RunOptions> &variants)
{
    return tccbench::sweepIndex<tccbench::RunOutcome>(
        runner, names.size() * variants.size(), [&](std::size_t i) {
            return tccbench::runWorkload(
                names[i / variants.size()],
                variants[i % variants.size()]);
        });
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tccbench;
    const BenchArgs args = parseBenchArgs(argc, argv);
    const std::uint32_t kProcs =
        args.procs.empty() ? 32u : args.procs.front();
    SweepRunner runner(args.jobs);

    std::puts("=== Ablation 1: word vs line conflict granularity "
              "(32 CPUs) ===");
    std::printf("%-16s %14s %14s %12s %12s\n", "application",
                "word_cycles", "line_cycles", "word_viol",
                "line_viol");
    {
        const std::vector<std::string> names = {
            "cluster_ga", "water_nsquared", "volrend", "barnes"};
        RunOptions w;
        w.procs = kProcs;
        w.granularity = Granularity::Word;
        RunOptions l = w;
        l.granularity = Granularity::Line;
        auto outs = abSweep(runner, names, {w, l});
        for (std::size_t a = 0; a < names.size(); ++a) {
            const auto &word = outs[a * 2];
            const auto &line = outs[a * 2 + 1];
            std::printf("%-16s %14llu %14llu %12llu %12llu\n",
                        names[a].c_str(),
                        (unsigned long long)word.res.cycles,
                        (unsigned long long)line.res.cycles,
                        (unsigned long long)word.res.violations,
                        (unsigned long long)line.res.violations);
        }
    }

    std::puts("\n=== Ablation 2: TID aging under high conflict "
              "(32 CPUs) ===");
    std::printf("%-16s %14s %14s %12s %12s\n", "config", "cycles",
                "violations", "committed", "completed");
    {
        WorkloadParams hot;
        hot.set("conflict_prob", "0.6")
            .set("hot_words", "8")
            .set("txns_per_phase", "256")
            .set("phases", "2");
        const std::vector<std::uint32_t> agings = {3u, 0u};
        auto outs = sweepIndex<RunOutcome>(
            runner, agings.size(), [&](std::size_t i) {
                RunOptions opt;
                opt.procs = kProcs;
                opt.agingThreshold = agings[i];
                opt.wl = hot;
                return runWorkload("cluster_ga", opt);
            });
        for (std::size_t i = 0; i < agings.size(); ++i) {
            const auto &out = outs[i];
            std::printf("aging=%-10u %14llu %14llu %12llu %12s\n",
                        agings[i], (unsigned long long)out.res.cycles,
                        (unsigned long long)out.res.violations,
                        (unsigned long long)out.res.committedTxns,
                        out.res.completed ? "yes" : "NO");
        }
    }

    std::puts("\n=== Ablation 3: write-back vs write-through commit "
              "(32 CPUs) ===");
    std::printf("%-16s %14s %14s %16s %16s\n", "application",
                "wb_cycles", "wt_cycles", "wb_bytes/instr",
                "wt_bytes/instr");
    {
        const std::vector<std::string> names = {"swim", "radix",
                                                "barnes", "tomcatv"};
        RunOptions wb;
        wb.procs = kProcs;
        RunOptions wt = wb;
        wt.writeThroughCommit = true;
        auto outs = abSweep(runner, names, {wb, wt});
        for (std::size_t i = 0; i < names.size(); ++i) {
            const auto &a = outs[i * 2];
            const auto &b = outs[i * 2 + 1];
            std::printf("%-16s %14llu %14llu %16.4f %16.4f\n",
                        names[i].c_str(),
                        (unsigned long long)a.res.cycles,
                        (unsigned long long)b.res.cycles,
                        a.traffic.total(), b.traffic.total());
        }
    }

    std::puts("\n=== Ablation 4: directory cache size (32 CPUs) ===");
    std::printf("%-16s %12s %14s %14s\n", "application", "entries",
                "cycles", "dcache_misses");
    {
        const std::vector<std::string> names = {"barnes", "swim"};
        const std::vector<std::uint32_t> sizes = {0u, 8192u, 512u,
                                                  64u};
        auto outs = sweepIndex<RunOutcome>(
            runner, names.size() * sizes.size(), [&](std::size_t i) {
                RunOptions opt;
                opt.procs = kProcs;
                opt.dirCacheEntries = sizes[i % sizes.size()];
                return runWorkload(names[i / sizes.size()], opt);
            });
        for (std::size_t a = 0; a < names.size(); ++a) {
            for (std::size_t s = 0; s < sizes.size(); ++s) {
                const auto &out = outs[a * sizes.size() + s];
                std::printf("%-16s %12u %14llu %14llu%s\n",
                            names[a].c_str(), sizes[s],
                            (unsigned long long)out.res.cycles,
                            (unsigned long long)out.dirCacheMisses,
                            out.res.completed ? "" : " INCOMPLETE");
            }
        }
    }

    std::puts("\n=== Ablation 5: first-touch vs interleaved homes "
              "(32 CPUs) ===");
    std::printf("%-16s %16s %16s %10s\n", "application", "firsttouch",
                "interleave", "slowdown");
    {
        const std::vector<std::string> names = {"swim", "specjbb",
                                                "barnes", "equake"};
        RunOptions ft;
        ft.procs = kProcs;
        ft.homePolicy = HomePolicy::FirstTouch;
        RunOptions il = ft;
        il.homePolicy = HomePolicy::Interleave;
        auto outs = abSweep(runner, names, {ft, il});
        for (std::size_t i = 0; i < names.size(); ++i) {
            const auto &a = outs[i * 2];
            const auto &b = outs[i * 2 + 1];
            std::printf("%-16s %16llu %16llu %9.2fx\n",
                        names[i].c_str(),
                        (unsigned long long)a.res.cycles,
                        (unsigned long long)b.res.cycles,
                        static_cast<double>(b.res.cycles) /
                            static_cast<double>(a.res.cycles));
        }
    }
    return 0;
}
