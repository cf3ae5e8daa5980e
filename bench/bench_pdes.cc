/**
 * @file
 * Parallel single-run (PDES) engine benchmark with a machine-readable
 * result (BENCH_pdes.json): simulated events/sec of one System run
 * across processor counts and thread counts.
 *
 * The grid is procs x jobs with the domain count fixed per processor
 * count (the partition is part of the simulation model; jobs is not).
 * Before any timing is reported, the identity gate runs: every
 * jobs > 1 point must be bit-identical to the jobs = 1 point of the
 * same row - the result is a pure function of (config, seeds, domain
 * count), never of the thread count.
 *
 * The jobs = 4 speedup gate only arms on hardware that can actually
 * run the threads side by side (>= 4 hardware threads). The JSON
 * records hardware_concurrency so a trend reader knows which case
 * produced each file. Full runs also record, as plain fields rather
 * than a gate, the speedup of jobs = 4 over jobs = 1 on barnes at 1024
 * procs over 16 domains, each the best of 5 timings of System::run
 * (setup excluded) - the number ROADMAP's keep-or-delete decision on
 * the PDES threads is made on.
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

/** One (row, jobs) measurement. */
struct Point {
    std::uint32_t procs = 0;
    std::uint32_t domains = 0;
    Outcome out;

    double
    eventsPerSec() const
    {
        return static_cast<double>(out.res.events) / out.wallSec;
    }
};

Point
runPoint(const std::string &app, std::uint32_t procs,
         std::uint32_t domains, std::uint32_t jobs, bool smoke)
{
    SystemConfig cfg;
    cfg.numProcs = procs;
    cfg.homePolicy = HomePolicy::Interleave;
    cfg.pdes.domains = domains;
    cfg.pdes.jobs = jobs;
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
    for (const Row &row : rows) {
        Outcome base; // jobs = 1 of this row
        for (std::uint32_t jobs : jobsList) {
            // The engine clamps jobs to the domain count, so a request
            // beyond it would rerun the point measured at jobs =
            // domains (or its smaller jobs neighbour) and emit a
            // duplicate JSON row.
            if (jobs > row.domains &&
                std::any_of(jobsList.begin(), jobsList.end(),
                            [&](std::uint32_t j) {
                                return j < jobs && j >= row.domains;
                            })) {
                std::printf("%-8s procs=%-4u domains=%-3u jobs=%-2u : "
                            "skipped (clamps to jobs=%u, already "
                            "measured)\n",
                            row.app, row.procs, row.domains, jobs,
                            row.domains);
                continue;
            }
            points.push_back(
                runPoint(row.app, row.procs, row.domains, jobs, smoke));
            const Point &pt = points.back();
            const RunResult &res = pt.out.res;
            std::printf("%-8s procs=%-4u domains=%-3u jobs=%-2u : "
                        "%9.3f sec  %12.0f events/sec  "
                        "(%llu windows, %llu mailbox msgs)\n",
                        row.app, row.procs, row.domains, jobs,
                        pt.out.wallSec, pt.eventsPerSec(),
                        (unsigned long long)res.pdes.windows,
                        (unsigned long long)res.pdes.mailboxMessages);
            if (!report.check("completed", res.completed,
                              "procs=%u jobs=%u: run did not complete",
                              row.procs, jobs))
                return report.finish();
            if (jobs == 1) {
                base = pt.out;
                continue;
            }
            const char *diff = outcomeDiff(base, pt.out);
            report.match("deterministic", !diff,
                         "at procs=%u jobs=%u: '%s' differs from the "
                         "jobs=1 run - PDES result depends on the "
                         "thread count",
                         row.procs, jobs, diff);
            if (&row == &rows.back() && jobs == 4)
                speedupJ4 = base.wallSec / pt.out.wallSec;
        }
    }

    // The keep-or-delete number: best of 5 System::run timings per
    // side, so co-tenant noise inflates neither.
    constexpr int kDecisionRuns = 5;
    double bestJ1 = 0.0, bestJ4 = 0.0;
    if (!smoke) {
        Outcome base;
        for (int rep = 0; rep < kDecisionRuns; ++rep) {
            for (std::uint32_t jobs : {1u, 4u}) {
                const Point pt = runPoint("barnes", 1024, 16, jobs, false);
                double &best = jobs == 1 ? bestJ1 : bestJ4;
                if (best == 0.0 || pt.out.wallSec < best)
                    best = pt.out.wallSec;
                if (rep == 0 && jobs == 1)
                    base = pt.out;
                const char *diff = outcomeDiff(base, pt.out);
                report.match("deterministic", !diff,
                             "barnes 1024 procs jobs=%u: '%s' differs "
                             "from the first jobs=1 run",
                             jobs, diff);
            }
        }
    }
    const double decisionSpeedup = bestJ4 == 0.0 ? 0.0 : bestJ1 / bestJ4;

    const bool deterministic = report.passed("deterministic");
    std::printf("determinism        : %s\n",
                deterministic ? "jobs>1 bit-identical to jobs=1"
                              : "MISMATCH");
    if (speedupJ4 != 0.0)
        std::printf("speedup (jobs=4)   : %8.2fx at %u procs\n",
                    speedupJ4, rows.back().procs);
    if (!smoke)
        std::printf("barnes 1024p/16d   : %8.2fx jobs=4 over jobs=1 "
                    "(System::run, best of %d: %.3f s vs %.3f s)\n",
                    decisionSpeedup, kDecisionRuns, bestJ4, bestJ1);

    // Speedup gate: only meaningful where the OS can actually schedule
    // 4 threads concurrently.
    if (!smoke && hw >= 4 && speedupJ4 != 0.0)
        report.check("speedup_jobs4", speedupJ4 >= 1.5,
                     "jobs=4 speedup %.2fx < 1.5x on %u hardware "
                     "threads",
                     speedupJ4, hw);

    StatsNode &r = report.root();
    r.flag("deterministic", deterministic);
    r.num("points_total", points.size());
    r.real("events_per_sec_jobs1", points.front().eventsPerSec());
    r.real("speedup_jobs4", speedupJ4);
    r.real("barnes1024_wall_sec_jobs1", bestJ1);
    r.real("barnes1024_wall_sec_jobs4", bestJ4);
    r.real("barnes1024_speedup_jobs4", decisionSpeedup);
    StatsNode &list = r.list("points");
    for (const Point &pt : points) {
        const RunResult &res = pt.out.res;
        StatsNode &it = list.item();
        it.num("procs", pt.procs);
        it.num("domains", pt.domains);
        it.num("jobs", res.pdes.jobs);
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
        it.num("shared_phases", res.pdes.sharedPhases);
        it.num("empty_broadcasts_skipped",
               res.pdes.emptyBroadcastsSkipped);
    }
    StatsNode &cfg = report.config();
    cfg.num("jobs_swept", jobsList.size());
    cfg.num("rows", rows.size());
    cfg.num("decision_runs", smoke ? 0 : kDecisionRuns);
    return report.finish();
}
