/**
 * @file
 * Data-structure / hot-key workload benchmark with a machine-readable
 * result (BENCH_datastruct.json): the ds_map engine swept across
 * Zipfian skew {0, 0.8, 0.99} x operation mix {read_mostly,
 * write_heavy} x processor count, plus one point each for the
 * flash-crowd schedule (ds_flash), the bank-transfer macrobench
 * (ds_bank), and the hot-counter queue (ds_queue).
 *
 * Per point the JSON records goodput (committed logical ops per
 * cycle - the headline metric: raw commit throughput counts aborted
 * work), the abort rate, commit-latency p50/p99 from the transaction
 * processors' per-commit statistics (every commit counts), the
 * final-memory fingerprint, and the contention profiler's
 * top-K hot words resolved back to key indices (which keys are
 * killing the system).
 *
 * Gates, all hard failures:
 *  - every point must complete, quiesce, and pass the online
 *    protocol-invariant checker;
 *  - every point's latency statistics cover all of its commits
 *    (commit_latency_n == commits);
 *  - seeded determinism: re-running a point yields a bit-identical
 *    outcome (RunResult and final-memory fingerprint);
 *  - SweepRunner identity: the whole grid re-run under jobs=N is
 *    bit-identical to the serial pass;
 *  - the flash-crowd point's abort rate must rise after the phase
 *    flip (the cold key turned hot);
 *  - the bank point must conserve the total balance: the sum over
 *    account words of the final memory image equals the initial sum.
 *
 * Usage: bench_datastruct [--smoke] [--out PATH] [--jobs=N]
 *   --smoke   procs {8} only, transactions clamped per phase
 *   --out     JSON output path (default BENCH_datastruct.json)
 *   --jobs    parallel-pass worker count (default: TCC_JOBS env,
 *             else hardware threads)
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "obs/contention.hh"

namespace {

using namespace tccbench;

/** One requested grid point. */
struct Spec {
    std::string workload;
    double theta = 0.0;
    std::string mix;
    std::uint32_t procs = 0;
    /** Apply theta/mix as registry overrides (the ds_map grid);
     *  the special points keep their registry defaults. */
    bool overrideKnobs = false;
};

/** A hot word resolved to its key index. */
struct HotKey {
    std::string addrHex; ///< the JSON value; outlives the tree
    /** Key index; -1 outside the key array (e.g. the queue's
     *  head/tail counters). */
    std::int64_t key = -1;
    std::uint64_t conflicts = 0;
    std::uint64_t aborts = 0;
};

/** Everything one point reports and gates on. */
struct Point {
    Spec spec;
    Outcome out;
    std::string fingerprintHex; ///< the JSON value; outlives the tree
    std::uint64_t committedOps = 0;
    double goodput = 0;   ///< committed ops / cycle
    double abortRate = 0; ///< violations / (commits + violations)
    /** Commit latency (cycles) merged across processors. */
    Distribution lat;
    std::vector<HotKey> hotKeys;
    std::vector<PhaseTally> phases;
    bool bankConserved = true; ///< only meaningful for ds_bank
    /** Why the run failed its completion / invariant check (empty:
     *  it passed). */
    std::string error;
};

constexpr std::uint64_t kSeed = 1;
constexpr std::size_t kTopK = 16;
constexpr std::size_t kHotKeysReported = 5;

Point
runPoint(const Spec &spec, bool smoke)
{
    SystemConfig cfg;
    cfg.numProcs = spec.procs;
    cfg.check.invariants = true;
    cfg.trace.contentionTopK = kTopK;

    System sys(cfg);
    WorkloadParams wl;
    if (spec.overrideKnobs) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.2f", spec.theta);
        wl.set("theta", buf).set("mix", spec.mix);
    }
    if (smoke)
        wl.set("max_txns_per_phase", "256");
    const WorkloadBundle bundle =
        makeWorkload(spec.workload, wl, kSeed, spec.procs);
    bundle.attach(sys);

    Point pt;
    pt.spec = spec;
    pt.out = runOutcome(sys);
    const RunResult &res = pt.out.res;
    pt.fingerprintHex = hex(pt.out.fingerprint, 16);
    pt.committedOps = bundle.committedOps();
    pt.phases = bundle.phaseTallies();

    if (!res.completed || !res.quiesced) {
        pt.error = res.completed ? "did not quiesce" : "did not complete";
        return pt;
    }
    if (!res.invariants.ok) {
        pt.error = "invariant checker: " + res.invariants.error;
        return pt;
    }

    pt.goodput = res.cycles ? static_cast<double>(pt.committedOps) /
                                  static_cast<double>(res.cycles)
                            : 0.0;
    const std::uint64_t attempts = res.committedTxns + res.violations;
    pt.abortRate = attempts ? static_cast<double>(res.violations) /
                                  static_cast<double>(attempts)
                            : 0.0;

    for (NodeId p = 0; p < sys.numProcs(); ++p)
        pt.lat.merge(sys.proc(p).stats().commitLatency);

    if (const ContentionProfiler *prof = sys.contentionProfiler()) {
        for (const auto &hw : prof->hotWords()) {
            if (pt.hotKeys.size() >= kHotKeysReported)
                break;
            HotKey hk;
            hk.addrHex = hex(hw.addr);
            hk.key = bundle.keyOf(hw.addr);
            hk.conflicts = hw.s.weight();
            hk.aborts = hw.s.aborts;
            pt.hotKeys.push_back(hk);
        }
    }

    // Bank conservation: transfers move balance, never create it. The
    // expected total is the initial image's sum over account words.
    if (spec.workload == "ds_bank") {
        std::uint64_t expected = 0, actual = 0;
        for (const auto &[addr, value] : bundle.initialWords) {
            if (bundle.keyOf(addr) < 0)
                continue;
            expected += value;
            actual += sys.memory().read(addr);
        }
        pt.bankConserved = expected == actual;
    }
    return pt;
}

std::vector<Spec>
buildGrid(bool smoke)
{
    const std::vector<double> thetas =
        smoke ? std::vector<double>{0.0, 0.99}
              : std::vector<double>{0.0, 0.8, 0.99};
    const std::vector<std::string> mixes = {"read_mostly",
                                            "write_heavy"};
    const std::vector<std::uint32_t> procsList =
        smoke ? std::vector<std::uint32_t>{8}
              : std::vector<std::uint32_t>{8, 16, 32};

    std::vector<Spec> grid;
    for (std::uint32_t procs : procsList)
        for (double theta : thetas)
            for (const auto &mix : mixes)
                grid.push_back({"ds_map", theta, mix, procs, true});

    // Special points: registry defaults, one processor count each.
    const std::uint32_t sp = smoke ? 8 : 16;
    grid.push_back({"ds_flash", 0.2, "phased", sp, false});
    grid.push_back({"ds_bank", 0.9, "transfer_heavy", sp, false});
    grid.push_back({"ds_queue", 0.0, "queue_5050", sp, false});
    return grid;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args =
        parseBenchArgs(argc, argv, "BENCH_datastruct.json", true);
    BenchReport report(args);
    const bool smoke = args.smoke;

    const std::vector<Spec> grid = buildGrid(smoke);
    std::printf("== data-structure / hot-key sweep: %zu points ==\n",
                grid.size());

    // Serial reference pass.
    std::vector<Point> points;
    for (const Spec &spec : grid) {
        points.push_back(runPoint(spec, smoke));
        const Point &pt = points.back();
        if (!report.check("completed", pt.error.empty(),
                          "%s procs=%u %s", spec.workload.c_str(),
                          spec.procs, pt.error.c_str()))
            return report.finish();
        report.check("latency_lossless",
                     pt.lat.count() == pt.out.res.committedTxns,
                     "%s procs=%u: %zu latency samples for %llu "
                     "commits",
                     spec.workload.c_str(), spec.procs, pt.lat.count(),
                     (unsigned long long)pt.out.res.committedTxns);
        checkLedger(report, "latency_lossless", pt.out,
                    spec.workload + " procs=" +
                        std::to_string(spec.procs));
        std::printf("%-9s th=%.2f %-12s procs=%-3u : %9llu cycles  "
                    "goodput %.4f  abort %.3f  lat p50/p99 "
                    "%5.0f/%5.0f\n",
                    spec.workload.c_str(), spec.theta, spec.mix.c_str(),
                    spec.procs, (unsigned long long)pt.out.res.cycles,
                    pt.goodput, pt.abortRate, pt.lat.percentile(50),
                    pt.lat.percentile(99));
    }

    // Gate: seeded determinism (same spec, same seed, same machine
    // state -> bit-identical outcome).
    const Point rerun = runPoint(grid.front(), smoke);
    const char *rerunDiff = outcomeDiff(rerun.out, points[0].out);
    report.match("deterministic", !rerunDiff,
                 "rerun of %s procs=%u differs in '%s'",
                 grid.front().workload.c_str(), grid.front().procs,
                 rerunDiff);
    const bool deterministic = report.passed("deterministic");
    std::printf("determinism        : %s\n",
                deterministic ? "rerun bit-identical" : "MISMATCH");

    // Gate: the SweepRunner pass (jobs=N) is bit-identical to the
    // serial loop above, point by point.
    SweepRunner runner(args.jobs);
    const auto parPoints = sweepIndex<Point>(
        runner, grid.size(),
        [&](std::size_t i) { return runPoint(grid[i], smoke); });
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const char *diff = outcomeDiff(parPoints[i].out, points[i].out);
        report.match("jobs_identical", !diff,
                     "jobs=%u pass differs at %s th=%.2f %s procs=%u "
                     "in '%s'",
                     runner.jobs(), grid[i].workload.c_str(),
                     grid[i].theta, grid[i].mix.c_str(), grid[i].procs,
                     diff);
    }
    const bool jobsIdentical = report.passed("jobs_identical");
    std::printf("jobs=%u identity    : %s\n", runner.jobs(),
                jobsIdentical ? "bit-identical to serial" : "MISMATCH");

    // Gate: the flash crowd raises the abort rate after the phase
    // flip (phase 0 read-mostly/no flash, phase 1 write-heavy with
    // the flash override).
    double flashPre = 0, flashPost = 0;
    for (const Point &pt : points) {
        if (pt.spec.workload != "ds_flash" || pt.phases.size() < 2)
            continue;
        const auto rate = [](const PhaseTally &t) {
            const std::uint64_t n = t.commits + t.aborts;
            return n ? static_cast<double>(t.aborts) /
                           static_cast<double>(n)
                     : 0.0;
        };
        flashPre = rate(pt.phases.front());
        flashPost = rate(pt.phases.back());
    }
    const bool flashRising = flashPost > flashPre;
    report.check("flash_abort_rising", flashRising,
                 "flash crowd abort rate %.3f -> %.3f does not rise",
                 flashPre, flashPost);
    std::printf("flash crowd        : abort %.3f -> %.3f  %s\n",
                flashPre, flashPost,
                flashRising ? "(rising, OK)" : "FAIL");

    for (const Point &pt : points)
        if (pt.spec.workload == "ds_bank")
            report.check("bank_conserved", pt.bankConserved,
                         "ds_bank balance not conserved");
    const bool bankConserved = report.passed("bank_conserved");
    std::printf("bank conservation  : %s\n",
                bankConserved ? "total balance preserved" : "FAIL");

    StatsNode &r = report.root();
    r.flag("deterministic", deterministic);
    r.flag("jobs_identical", jobsIdentical);
    r.real("flash_abort_pre", flashPre);
    r.real("flash_abort_post", flashPost);
    r.flag("flash_abort_rising", flashRising);
    r.flag("bank_conserved", bankConserved);
    r.num("points_total", points.size());
    StatsNode &list = r.list("points");
    for (const Point &pt : points) {
        const RunResult &res = pt.out.res;
        StatsNode &it = list.item();
        it.name("workload", pt.spec.workload.c_str());
        it.real("theta", pt.spec.theta);
        it.name("mix", pt.spec.mix.c_str());
        it.num("procs", pt.spec.procs);
        it.num("cycles", res.cycles);
        it.num("commits", res.committedTxns);
        it.num("violations", res.violations);
        it.num("committed_ops", pt.committedOps);
        it.real("goodput", pt.goodput);
        it.real("abort_rate", pt.abortRate);
        it.real("commit_latency_p50", pt.lat.percentile(50));
        it.real("commit_latency_p99", pt.lat.percentile(99));
        it.num("commit_latency_n", pt.lat.count());
        it.name("fingerprint", pt.fingerprintHex.c_str());
        StatsNode &phases = it.list("phase_tallies");
        for (const PhaseTally &t : pt.phases) {
            StatsNode &ph = phases.item();
            ph.num("commits", t.commits);
            ph.num("aborts", t.aborts);
        }
        StatsNode &hot = it.list("hot_keys");
        for (const HotKey &hk : pt.hotKeys) {
            StatsNode &h = hot.item();
            h.name("addr", hk.addrHex.c_str());
            h.inum("key", hk.key);
            h.num("conflicts", hk.conflicts);
            h.num("aborts", hk.aborts);
        }
    }
    StatsNode &cfg = report.config();
    cfg.num("seed", kSeed);
    cfg.num("jobs", runner.jobs());
    cfg.num("contention_top_k", kTopK);
    return report.finish();
}
