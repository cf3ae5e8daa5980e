/**
 * @file
 * Ablation: scalable (directory, parallel-commit) TCC vs. the original
 * small-scale (bus, serialized-commit) TCC - the comparison motivating
 * the paper (Section 2.2: "the sum of all commit times places a lower
 * bound on execution time" for the bus design).
 *
 * Expected shape: the bus design is competitive at low processor
 * counts (where the paper says TCC "works well within a CMP") but
 * flattens as commit serialization saturates the bus, while Scalable
 * TCC keeps scaling. The effect is strongest for commit-bound
 * applications (volrend, equake).
 */

#include <cstdio>

#include "bench_common.hh"
#include "busbaseline/bus_tcc.hh"

namespace {

using namespace tccbench;

/**
 * Cycles of one bus-baseline run, with completion reported
 * separately: an incomplete run must never be conflated with a
 * 0-cycle one (which would read as an infinitely fast bus).
 */
struct BusResult {
    Tick cycles = 0;
    bool completed = false;
};

/** Run the bus baseline on the same workload bundle (the registry
 *  attaches to either machine - the drop-in interchange the shared
 *  RunResult surface buys). */
BusResult
runBus(const std::string &app, std::uint32_t procs,
       std::uint64_t seed)
{
    BusConfig cfg;
    cfg.numProcs = procs;
    BusTcc bus(cfg);
    const WorkloadBundle bundle =
        makeWorkload(app, {}, seed, procs);
    bundle.attach(bus);
    const RunResult res = bus.run();
    return BusResult{res.cycles, res.completed};
}

/** Both designs on one (app, procs) grid cell. */
struct Cell {
    BusResult bus;
    RunOutcome scal;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace tccbench;
    const BenchArgs args = parseBenchArgs(argc, argv);
    const auto procList = benchProcs(args, {4u, 8u, 16u, 32u, 64u});

    std::vector<std::string> names;
    for (const char *name : {"volrend", "equake", "barnes", "specjbb"})
        if (args.filter.empty() ||
            std::string(name).find(args.filter) != std::string::npos)
            names.push_back(name);

    std::puts("=== Ablation: parallel commit (Scalable TCC) vs "
              "serialized commit (bus TCC) ===");
    std::printf("%-16s %5s %14s %14s %12s\n", "application", "cpus",
                "bus_speedup", "scal_speedup", "scal/bus");

    // Grid cell 0 of each app row is the 1-CPU baseline.
    const std::size_t stride = 1 + procList.size();
    SweepRunner runner(args.jobs);
    auto cells = sweepIndex<Cell>(
        runner, names.size() * stride, [&](std::size_t i) {
            const std::string &app = names[i / stride];
            const std::size_t j = i % stride;
            const std::uint32_t p =
                j == 0 ? 1u : procList[j - 1];
            Cell cell;
            cell.bus = runBus(app, p, 1);
            RunOptions opt;
            opt.procs = p;
            cell.scal = runWorkload(app, opt);
            return cell;
        });

    for (std::size_t a = 0; a < names.size(); ++a) {
        const char *name = names[a].c_str();
        const Cell &base = cells[a * stride];
        for (std::size_t j = 0; j < procList.size(); ++j) {
            const std::uint32_t p = procList[j];
            const Cell &cell = cells[a * stride + 1 + j];
            const bool busOk =
                base.bus.completed && cell.bus.completed;
            const bool scalOk =
                base.scal.res.completed && cell.scal.res.completed;
            if (!busOk || !scalOk) {
                std::printf("%-16s %5u %14s %14s %12s\n", name, p,
                            busOk ? "-" : "DID NOT COMPLETE",
                            scalOk ? "-" : "DID NOT COMPLETE", "-");
                continue;
            }
            const double bus_speedup =
                static_cast<double>(base.bus.cycles) /
                static_cast<double>(cell.bus.cycles);
            const double scal_speedup =
                static_cast<double>(base.scal.res.cycles) /
                static_cast<double>(cell.scal.res.cycles);
            std::printf("%-16s %5u %13.1fx %13.1fx %11.2fx\n", name, p,
                        bus_speedup, scal_speedup,
                        scal_speedup / bus_speedup);
        }
    }
    return 0;
}
