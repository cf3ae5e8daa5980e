/**
 * @file
 * Parallel single-run (PDES) engine benchmark with a machine-readable
 * result (BENCH_pdes.json): simulated events/sec of one System run
 * across processor counts, worker-thread counts, and barrier sync
 * modes (fixed lookahead grid vs adaptive variable-width windows).
 *
 * The grid is procs x jobs x sync with the domain count fixed per
 * processor count (the partition is part of the simulation model; jobs
 * and sync are not). Before any timing is reported, two identity gates
 * run:
 *  - every jobs > 1 point must be bit-identical to the jobs = 1 point
 *    of the same (row, sync) - the result is a pure function of
 *    (config, seeds, domain count), never of the thread count;
 *  - the adaptive jobs = 1 point must be bit-identical to the fixed
 *    jobs = 1 point of the same row in everything except the barrier
 *    cadence counters (windows, empty broadcasts, window widths) -
 *    deferring a barrier that had nothing to publish must not change
 *    the simulation.
 *
 * Perf gates: adaptive must close at least 5x fewer windows than fixed
 * (every row), and on the headline row the adaptive jobs = 1 run must
 * beat the fixed jobs = 1 throughput (full runs only; the smoke
 * workload is too short to time). The in-binary ratio understates the
 * PR that introduced adaptive sync - its barrier micro-fixes (idle
 * domain skip, empty-broadcast skip, pulse-array coordination) apply
 * under fixed sync too - so the JSON also records the throughput
 * relative to the pre-adaptive engine (kSeedEventsPerSecJobs1, the
 * bench_kernel speedup_vs_seed_kernel idiom; recorded, not gated,
 * since an absolute rate is machine-specific). The jobs = 4 speedup
 * gate only arms on hardware that can actually run the workers side
 * by side (>= 4 hardware threads). The JSON records
 * hardware_concurrency so a trend reader knows which case produced
 * each file.
 *
 * Usage: bench_pdes [--smoke] [--out PATH]
 *   --smoke   16 procs, jobs {1,2}, tiny workload (CI wiring check)
 *   --out     JSON output path (default BENCH_pdes.json)
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"

namespace {

using namespace tccbench;

/** Headline-row (barnes, 16 procs, 4 domains) jobs = 1 events/sec of
 *  the engine before variable lookahead landed: every sub-phase closed
 *  a window, touched every domain, and broadcast every (mostly empty)
 *  write log. Measured on the machine that produced the committed
 *  BENCH_pdes.json; only meaningful relative to rates measured there. */
constexpr double kSeedEventsPerSecJobs1 = 2.56e6;

/** One (row, jobs, sync) measurement. */
struct Point {
    std::uint32_t procs = 0;
    std::uint32_t domains = 0;
    const char *sync = "";
    Outcome out;

    double
    eventsPerSec() const
    {
        return static_cast<double>(out.res.events) / out.wallSec;
    }
};

Point
runPoint(const std::string &app, std::uint32_t procs,
         std::uint32_t domains, std::uint32_t jobs,
         PdesConfig::Sync sync, bool smoke)
{
    SystemConfig cfg;
    cfg.numProcs = procs;
    cfg.homePolicy = HomePolicy::Interleave;
    cfg.pdes.domains = domains;
    cfg.pdes.jobs = jobs;
    cfg.pdes.sync = sync;
    System sys(cfg);
    WorkloadParams wl;
    if (smoke)
        wl.set("phases", "1").set("max_txns_per_phase", "64");
    const WorkloadBundle bundle =
        makeWorkload(app, wl, /*seed=*/1, procs);
    bundle.attach(sys);
    Point pt;
    pt.procs = procs;
    pt.domains = domains;
    pt.sync = sync == PdesConfig::Sync::Adaptive ? "adaptive" : "fixed";
    pt.out = runOutcome(sys);
    return pt;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args =
        parseBenchArgs(argc, argv, "BENCH_pdes.json", false);
    BenchReport report(args);
    const bool smoke = args.smoke;
    const PdesConfig::Sync syncs[] = {PdesConfig::Sync::Fixed,
                                      PdesConfig::Sync::Adaptive};

    // Domain count per processor count: one domain per mesh-row block
    // of 2 rows (16 procs: 4x4 grid -> 4 domains of one row each is
    // too fine; 4 strikes the balance measured in DESIGN.md sec. 11).
    struct Row {
        const char *app;
        std::uint32_t procs;
        std::uint32_t domains;
    };
    const std::vector<Row> rows =
        smoke ? std::vector<Row>{{"barnes", 16, 4}}
              : std::vector<Row>{{"barnes", 16, 4},
                                 {"barnes", 64, 8},
                                 {"swim", 256, 16}};
    const std::vector<std::uint32_t> jobsList =
        smoke ? std::vector<std::uint32_t>{1, 2}
              : std::vector<std::uint32_t>{1, 2, 4, 8};

    const unsigned hw = std::thread::hardware_concurrency();
    std::printf("== PDES single-run throughput (hw threads: %u) ==\n",
                hw);

    std::vector<Point> points;
    double speedupJ4 = 0.0; // largest-procs row, jobs 4 vs jobs 1
    double epsJobs1Fixed = 0.0;    // headline row
    double epsJobs1Adaptive = 0.0; // headline row
    double windowReduction = 0.0;  // min over rows, jobs = 1
    for (const Row &row : rows) {
        Outcome fixedBase; // fixed-sync jobs = 1 of this row
        for (PdesConfig::Sync sync : syncs) {
            Outcome base; // jobs = 1 of this (row, sync)
            for (std::uint32_t jobs : jobsList) {
                // The engine clamps jobs to the domain count, so a
                // request beyond it would rerun the point measured at
                // jobs = domains (or its smaller jobs neighbour) and
                // emit a duplicate JSON row.
                if (jobs > row.domains &&
                    std::any_of(jobsList.begin(), jobsList.end(),
                                [&](std::uint32_t j) {
                                    return j < jobs && j >= row.domains;
                                })) {
                    std::printf("%-8s procs=%-4u domains=%-3u "
                                "jobs=%-2u : skipped (clamps to "
                                "jobs=%u, already measured)\n",
                                row.app, row.procs, row.domains, jobs,
                                row.domains);
                    continue;
                }
                points.push_back(runPoint(row.app, row.procs,
                                          row.domains, jobs, sync,
                                          smoke));
                const Point &pt = points.back();
                const RunResult &res = pt.out.res;
                std::printf(
                    "%-8s procs=%-4u domains=%-3u jobs=%-2u %-8s : "
                    "%9.3f sec  %12.0f events/sec  "
                    "(%llu windows, %llu mailbox msgs)\n",
                    row.app, row.procs, row.domains, jobs, pt.sync,
                    pt.out.wallSec, pt.eventsPerSec(),
                    (unsigned long long)res.pdes.windows,
                    (unsigned long long)res.pdes.mailboxMessages);
                if (!report.check("completed", res.completed,
                                  "procs=%u jobs=%u sync=%s: run did "
                                  "not complete",
                                  row.procs, jobs, pt.sync))
                    return report.finish();
                if (jobs != 1) {
                    const char *diff = outcomeDiff(base, pt.out);
                    report.match("deterministic", !diff,
                                 "at procs=%u jobs=%u sync=%s: '%s' "
                                 "differs from the jobs=1 run - PDES "
                                 "result depends on the thread count",
                                 row.procs, jobs, pt.sync, diff);
                    if (&row == &rows.back() && jobs == 4 &&
                        sync == PdesConfig::Sync::Adaptive)
                        speedupJ4 = base.wallSec / pt.out.wallSec;
                    continue;
                }
                base = pt.out;
                const bool headline = &row == &rows.front();
                if (sync == PdesConfig::Sync::Fixed) {
                    fixedBase = pt.out;
                    if (headline)
                        epsJobs1Fixed = pt.eventsPerSec();
                    continue;
                }
                if (headline)
                    epsJobs1Adaptive = pt.eventsPerSec();
                const char *diff =
                    outcomeDiff(fixedBase, pt.out, /*cross_sync=*/true);
                report.match("cross_sync_identical", !diff,
                             "at procs=%u: '%s' differs between fixed "
                             "and adaptive sync - deferred barriers "
                             "changed the simulation",
                             row.procs, diff);
                if (res.pdes.windows != 0) {
                    const double r =
                        static_cast<double>(fixedBase.res.pdes.windows) /
                        static_cast<double>(res.pdes.windows);
                    if (windowReduction == 0.0 || r < windowReduction)
                        windowReduction = r;
                }
            }
        }
    }
    const bool deterministic = report.passed("deterministic");
    const bool crossSyncIdentical = report.passed("cross_sync_identical");
    std::printf("determinism        : %s\n",
                deterministic ? "jobs>1 bit-identical to jobs=1"
                              : "MISMATCH");
    std::printf("cross-sync         : %s\n",
                crossSyncIdentical ? "adaptive bit-identical to fixed "
                                     "(modulo barrier cadence)"
                                   : "MISMATCH");
    std::printf("window reduction   : %8.2fx fewer barrier "
                "windows (worst row, jobs=1)\n",
                windowReduction);
    const double adaptiveSpeedupJ1 = epsJobs1Adaptive / epsJobs1Fixed;
    std::printf("adaptive speedup   : %8.2fx at jobs=1 "
                "(headline row)\n",
                adaptiveSpeedupJ1);
    if (speedupJ4 != 0.0)
        std::printf("speedup (jobs=4)   : %8.2fx at %u procs\n",
                    speedupJ4, rows.back().procs);
    const double speedupVsSeed =
        smoke ? 0.0 : epsJobs1Adaptive / kSeedEventsPerSecJobs1;
    if (speedupVsSeed != 0.0)
        std::printf("speedup vs seed    : %8.2fx at jobs=1 "
                    "(headline row, adaptive)\n",
                    speedupVsSeed);

    // Window-reduction gate: the whole point of adaptive sync. Armed
    // in smoke too - the reduction is a property of the event pattern,
    // not of wall-clock timing.
    report.check("window_reduction", windowReduction >= 5.0,
                 "adaptive closed only %.2fx fewer windows than fixed "
                 "(< 5x)",
                 windowReduction);
    // Throughput gate: full runs only (the smoke workload finishes in
    // milliseconds and its timing is noise). jobs=1 on the headline
    // row, so it is meaningful on any core count. The bar is a
    // regression guard - adaptive must beat fixed *in this binary*,
    // where both legs already carry the barrier micro-fixes; the
    // speedup over the pre-adaptive engine is the recorded
    // adaptive_speedup_vs_seed.
    if (!smoke)
        report.check("adaptive_throughput", adaptiveSpeedupJ1 >= 1.05,
                     "adaptive jobs=1 throughput %.2fx fixed (< 1.05x)",
                     adaptiveSpeedupJ1);
    // Speedup gate: only meaningful where the OS can actually schedule
    // 4 workers concurrently.
    if (!smoke && hw >= 4 && speedupJ4 != 0.0)
        report.check("speedup_jobs4", speedupJ4 >= 1.5,
                     "jobs=4 speedup %.2fx < 1.5x on %u hardware "
                     "threads",
                     speedupJ4, hw);

    StatsNode &r = report.root();
    r.flag("deterministic", deterministic);
    r.flag("cross_sync_identical", crossSyncIdentical);
    r.num("points_total", points.size());
    r.real("events_per_sec_jobs1", points.front().eventsPerSec());
    r.real("events_per_sec_jobs1_adaptive", epsJobs1Adaptive);
    r.real("adaptive_speedup_jobs1", adaptiveSpeedupJ1);
    r.real("adaptive_window_reduction", windowReduction);
    r.real("seed_events_per_sec_jobs1", kSeedEventsPerSecJobs1);
    r.real("adaptive_speedup_vs_seed", speedupVsSeed);
    r.real("speedup_jobs4", speedupJ4);
    StatsNode &list = r.list("points");
    for (const Point &pt : points) {
        const RunResult &res = pt.out.res;
        StatsNode &it = list.item();
        it.num("procs", pt.procs);
        it.num("domains", pt.domains);
        it.num("jobs", res.pdes.jobs);
        it.name("sync", pt.sync);
        it.real("wall_sec", pt.out.wallSec);
        it.real("events_per_sec", pt.eventsPerSec());
        it.num("cycles", res.cycles);
        it.num("events", res.events);
        it.num("lookahead", res.pdes.lookahead);
        it.num("windows", res.pdes.windows);
        it.num("phases", res.pdes.phases);
        it.real("events_per_window",
                res.pdes.windows == 0
                    ? 0.0
                    : static_cast<double>(res.events) /
                          static_cast<double>(res.pdes.windows));
        it.num("mailbox_messages", res.pdes.mailboxMessages);
        it.num("idle_domain_skips", res.pdes.idleDomainSkips);
        it.num("empty_broadcasts_skipped",
               res.pdes.emptyBroadcastsSkipped);
    }
    StatsNode &cfg = report.config();
    cfg.num("sync_modes", std::size(syncs));
    cfg.num("jobs_swept", jobsList.size());
    cfg.num("rows", rows.size());
    return report.finish();
}
