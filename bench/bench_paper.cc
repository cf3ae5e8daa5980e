/**
 * @file
 * The paper's evaluation (DESIGN.md section 4, E1-E7: Table 3, Figures
 * 6-9, the bus-TCC commit ablation and the design ablations) as one
 * grid in which each distinct configuration runs once, 112 System plus
 * 24 bus-TCC runs, with one result: BENCH_paper.json. Each point
 * records its configuration, outcome and final-memory fingerprint (so
 * a cycle change shows in the diff even when no claim flips) and what
 * the paper plots. Each EXPERIMENTS.md shape claim is one gate, its
 * threshold beside the paper's wording there and the numbers it judged
 * under "claims.<gate>"; claims the measurements contradict are
 * recorded under "deviations", not gated. Stdout is one line per gate,
 * then the whole document as text.
 *
 * Usage: bench_paper [--jobs=<n>] [--out PATH]
 * There is no --smoke: the claims are about the full configuration.
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "busbaseline/bus_tcc.hh"

namespace {

using namespace tccbench;

/** Figure 7's processor sweep (1 CPU is Figure 6 and the speedup base;
 *  64 is Table 3 and Figure 9). */
constexpr std::uint32_t kScaleProcs[] = {1, 8, 16, 32, 64};
constexpr std::uint32_t kMaxProcs = 64;
/** Figure 8 and the design ablations run at 32 CPUs. */
constexpr std::uint32_t kMidProcs = 32;
/** Figure 8's cycles per hop; the first is its normalization base. */
constexpr Tick kHops[] = {2, 4, 8};
/** The commit ablation: two commit-bound apps, two that scale. */
const std::string kBusApps[] = {"volrend", "equake", "barnes", "specjbb"};
constexpr std::uint32_t kBusProcs[] = {1, 4, 8, 16, 32, 64};
/** The design ablations' apps. */
const char *const kGranularityApps[] = {"cluster_ga", "water_nsquared",
                                        "volrend", "barnes"};
const char *const kWriteThroughApps[] = {"swim", "radix", "barnes",
                                         "tomcatv"};
const char *const kDirCacheApps[] = {"barnes", "swim"};
/** Shrinking directory caches; 0 (perfectly sized) is the default. */
constexpr std::uint32_t kDirCacheSizes[] = {8192, 512, 64};
const char *const kHomeApps[] = {"swim", "specjbb", "barnes", "equake"};
/** TID aging on/off for cluster_ga under a 60 %-conflict stress. */
constexpr std::uint32_t kAgingArms[] = {3, 0};
const char *const kHotOverrides =
    "conflict_prob=0.6,hot_words=8,txns_per_phase=256,phases=2";

/** One System configuration: runWorkload's Table 2 machine with the
 *  knobs the figures and ablations vary. */
struct Cell {
    std::string app;
    std::uint32_t procs = 0;
    Tick hop = RunOptions{}.hopLatency;
    Granularity granularity = RunOptions{}.granularity;
    HomePolicy homes = RunOptions{}.homePolicy;
    std::uint32_t aging = RunOptions{}.agingThreshold;
    std::uint32_t dirCache = RunOptions{}.dirCacheEntries;
    bool writeThrough = RunOptions{}.writeThroughCommit;
    /** Workload overrides ("key=val,..."; empty = the profile). */
    std::string overrides = {};

    bool operator==(const Cell &) const = default;
};

/**
 * The run @p c's speedup and normalized time are measured against: the
 * aging ablation's aging=3 arm, a design ablation's default arm,
 * Figure 8's 2-cycles/hop run, else (Figure 7, the commit ablation)
 * the same app on 1 CPU. A reference is its own reference.
 */
Cell
reference(Cell c)
{
    const Cell dflt{.app = c.app, .procs = c.procs};
    if (!c.overrides.empty())
        c.aging = dflt.aging;
    else if (c.granularity != dflt.granularity || c.homes != dflt.homes ||
             c.dirCache != dflt.dirCache ||
             c.writeThrough != dflt.writeThrough)
        return dflt;
    else if (c.hop != dflt.hop)
        c.hop = kHops[0];
    else
        c.procs = 1;
    return c;
}

/** Every distinct configuration, in first-use order. */
std::vector<Cell>
paperGrid(const std::vector<std::string> &apps)
{
    std::vector<Cell> cells;
    auto add = [&cells](const Cell &c) {
        if (std::find(cells.begin(), cells.end(), c) == cells.end())
            cells.push_back(c);
    };
    for (const std::string &app : apps)
        for (std::uint32_t p : kScaleProcs)
            add({.app = app, .procs = p});
    for (const std::string &app : apps)
        for (Tick hop : kHops)
            add({.app = app, .procs = kMidProcs, .hop = hop});
    for (const std::string &app : kBusApps)
        for (std::uint32_t p : kBusProcs)
            add({.app = app, .procs = p});
    // The design ablations' other arm is the default 32-CPU cell.
    for (const char *app : kGranularityApps)
        add({.app = app, .procs = kMidProcs,
             .granularity = Granularity::Line});
    for (const char *app : kWriteThroughApps)
        add({.app = app, .procs = kMidProcs, .writeThrough = true});
    for (const char *app : kDirCacheApps)
        for (std::uint32_t size : kDirCacheSizes)
            add({.app = app, .procs = kMidProcs, .dirCache = size});
    for (const char *app : kHomeApps)
        add({.app = app, .procs = kMidProcs,
             .homes = HomePolicy::Interleave});
    for (std::uint32_t aging : kAgingArms)
        add({.app = "cluster_ga", .procs = kMidProcs, .aging = aging,
             .overrides = kHotOverrides});
    return cells;
}

RunOutcome
runCell(const Cell &c)
{
    RunOptions opt;
    opt.procs = c.procs;
    opt.hopLatency = c.hop;
    opt.granularity = c.granularity;
    opt.homePolicy = c.homes;
    opt.agingThreshold = c.aging;
    opt.dirCacheEntries = c.dirCache;
    opt.writeThroughCommit = c.writeThrough;
    opt.wl = WorkloadParams::parse(c.overrides);
    return runWorkload(c.app, opt);
}

/** The bus baseline on the same workload bundle. */
RunResult
runBus(const std::string &app, std::uint32_t procs)
{
    BusConfig cfg;
    cfg.numProcs = procs;
    BusTcc bus(cfg);
    const WorkloadBundle bundle =
        makeWorkload(app, {}, RunOptions{}.seed, procs);
    bundle.attach(bus);
    return bus.run();
}

double
ratio(std::uint64_t a, std::uint64_t b)
{
    return static_cast<double>(a) / static_cast<double>(b);
}

/** One System run and what the figures derive from it. */
struct Point {
    Cell cell;
    RunOutcome run;
    /** Index of the reference() run. */
    std::size_t ref = 0;
    /** Reference cycles / cycles, and 100 x cycles / reference cycles. */
    double speedup = 0;
    double normTime = 0;
    std::string fingerprintHex;

    /** Percent of this run's busy time in @p part. */
    double
    pct(std::uint64_t part) const
    {
        return 100.0 * run.res.breakdown.fraction(part);
    }

    /** Percent of the reference run's time in @p part (the bar
     *  segments of Figures 7 and 8). */
    double
    bar(std::uint64_t part) const
    {
        return normTime * run.res.breakdown.fraction(part);
    }

    /** Figure 9's per-node bandwidth at 2 GHz, in MB/s. */
    double
    mbPerSecPerNode() const
    {
        return run.traffic.total() * 2e9 / cell.procs / 1e6;
    }
};

struct Results {
    std::vector<Point> points;
    /** The bus runs, kBusApps-major over kBusProcs. */
    std::vector<RunResult> bus;

    std::size_t
    index(const Cell &c) const
    {
        for (std::size_t i = 0; i < points.size(); ++i)
            if (points[i].cell == c)
                return i;
        std::fprintf(stderr, "bench_paper: no %s point\n", c.app.c_str());
        std::exit(1);
    }

    const Point &at(const Cell &c) const { return points[index(c)]; }

    /** The bus run of kBusApps[@p app] on @p procs. */
    const RunResult &
    busRun(std::size_t app, std::uint32_t procs) const
    {
        const std::size_t j =
            std::find(std::begin(kBusProcs), std::end(kBusProcs), procs) -
            std::begin(kBusProcs);
        return bus[app * std::size(kBusProcs) + j];
    }

    double
    busSpeedup(std::size_t app, std::uint32_t procs) const
    {
        return ratio(busRun(app, 1).cycles, busRun(app, procs).cycles);
    }
};

Results
runGrid(const std::vector<std::string> &apps, unsigned jobs)
{
    const std::vector<Cell> cells = paperGrid(apps);
    SweepRunner runner(jobs);
    std::vector<RunOutcome> outs = sweepIndex<RunOutcome>(
        runner, cells.size(),
        [&](std::size_t i) { return runCell(cells[i]); });
    Results r;
    r.bus = sweepIndex<RunResult>(
        runner, std::size(kBusApps) * std::size(kBusProcs),
        [](std::size_t b) {
            return runBus(kBusApps[b / std::size(kBusProcs)],
                          kBusProcs[b % std::size(kBusProcs)]);
        });
    for (std::size_t i = 0; i < cells.size(); ++i) {
        Point pt;
        pt.cell = cells[i];
        pt.run = std::move(outs[i]);
        pt.fingerprintHex = hex(pt.run.fingerprint, 16);
        r.points.push_back(std::move(pt));
    }
    for (Point &pt : r.points) {
        pt.ref = r.index(reference(pt.cell));
        const Tick base = r.points[pt.ref].run.res.cycles;
        pt.speedup = ratio(base, pt.run.res.cycles);
        pt.normTime = 100.0 * static_cast<double>(pt.run.res.cycles) /
                      static_cast<double>(base);
    }
    return r;
}

/** Record gate @p name and print its verdict with the evidence @p ev
 *  (its claims.<name> group) on one line. */
void
gate(BenchReport &report, const char *name, bool ok, const StatsNode &ev)
{
    std::ostringstream text;
    renderStatsText(ev, text);
    std::string evidence = text.str();
    evidence.pop_back();
    std::replace(evidence.begin(), evidence.end(), '\n', ';');
    std::printf("%s %s: %s\n", ok ? "PASS" : "FAIL", name,
                evidence.c_str());
    report.check(name, ok, "%s (claims.%s)", name, name);
}

/** Pointers into @p apps (which outlive the document naming them),
 *  ordered by @p key, largest first. */
template <typename Key>
std::vector<const std::string *>
rankApps(const std::vector<std::string> &apps, Key key)
{
    std::vector<const std::string *> order;
    for (const std::string &app : apps)
        order.push_back(&app);
    std::stable_sort(order.begin(), order.end(),
                     [&](const std::string *a, const std::string *b) {
                         return key(*a) > key(*b);
                     });
    return order;
}

/** Deviation @p name: whether the paper's claim holds here, then the
 *  numbers that contradict it. */
StatsNode &
deviation(StatsNode &dev, const char *name, bool holds)
{
    StatsNode &d = dev.group(name);
    d.flag("claim_holds", holds);
    return d;
}

/** Judge every claim: a gate for each claim the paper and
 *  EXPERIMENTS.md state, a deviation for each the data contradicts. */
void
judgeClaims(BenchReport &report, const Results &r,
            const std::vector<std::string> &apps)
{
    const auto top = [&](const std::string &app) -> const Point & {
        return r.at({.app = app, .procs = kMaxProcs});
    };
    const auto table3 =
        [&](const std::string &app) -> const AppCharacterization & {
        return top(app).run.characterization;
    };
    // Whether {a, b} is {equake, volrend}, in either order.
    const auto equakeAndVolrend = [](const std::string &a,
                                     const std::string &b) {
        return std::min(a, b) == "equake" && std::max(a, b) == "volrend";
    };
    const auto hop8 = [&](const std::string &app) {
        return r.at({.app = app, .procs = kMidProcs, .hop = kHops[2]})
            .normTime;
    };

    StatsNode &claims = report.root().group("claims");
    {
        std::uint64_t incomplete = 0;
        bool ledgers = true;
        for (const Point &pt : r.points) {
            incomplete += !pt.run.res.completed;
            ledgers = checkLedger(report, "completed", pt.run,
                                  pt.run.app + " procs=" +
                                      std::to_string(pt.run.procs)) &&
                      ledgers;
        }
        for (const RunResult &bus : r.bus)
            incomplete += !bus.completed;
        StatsNode &ev = claims.group("completed");
        ev.num("incomplete", incomplete);
        gate(report, "completed", incomplete == 0 && ledgers, ev);
    }
    {
        // Paper: SPECjbb "scales linearly"; volrend and equake are
        // limited by remote misses and commit overhead.
        const auto order = rankApps(
            apps, [&](const std::string &a) { return top(a).speedup; });
        StatsNode &ev = claims.group("scaling_order");
        for (const std::string *app : order)
            ev.real(app->c_str(), top(*app).speedup);
        gate(report, "scaling_order",
             *order[0] == "specjbb" &&
                 equakeAndVolrend(*order.end()[-1], *order.end()[-2]),
             ev);
    }
    {
        StatsNode &ev = claims.group("water_spatial_over_nsquared");
        ev.real("water_spatial", top("water_spatial").speedup);
        ev.real("water_nsquared", top("water_nsquared").speedup);
        gate(report, "water_spatial_over_nsquared",
             top("water_spatial").speedup > top("water_nsquared").speedup,
             ev);
    }
    {
        // Paper: 1-CPU overhead "around 1 percent on average".
        double sum = 0;
        for (const std::string &app : apps) {
            const Point &uni = r.at({.app = app, .procs = 1});
            sum += uni.pct(uni.run.res.breakdown.commit);
        }
        const double mean = sum / static_cast<double>(apps.size());
        StatsNode &ev = claims.group("uni_commit_overhead");
        ev.real("mean_pct", mean);
        gate(report, "uni_commit_overhead", mean <= 1.0, ev);
    }
    std::uint64_t overFive = 0;
    {
        // Paper: commit + violation "less than 5% of execution time";
        // of their own 64-CPU run, for most apps (a strict majority).
        StatsNode &ev = claims.group("commit_overhead_most_apps");
        for (const std::string &app : apps) {
            const Point &pt = top(app);
            const Breakdown &bd = pt.run.res.breakdown;
            const double own = pt.pct(bd.commit) + pt.pct(bd.violation);
            StatsNode &a = ev.group(app.c_str());
            a.real("own_pct", own);
            a.real("of_1cpu_pct", pt.bar(bd.commit) + pt.bar(bd.violation));
            overFive += own >= 5.0;
        }
        gate(report, "commit_overhead_most_apps",
             2 * (apps.size() - overFive) > apps.size(), ev);
    }
    {
        // Paper: equake and volrend degrade most; SPECjbb and swim (and
        // SVM here) "suffer almost no" degradation: within 2 %.
        const auto order = rankApps(apps, hop8);
        StatsNode &ev = claims.group("latency_sensitivity");
        for (const std::string *app : order)
            ev.real(app->c_str(), hop8(*app));
        gate(report, "latency_sensitivity",
             equakeAndVolrend(*order[0], *order[1]) &&
                 hop8("specjbb") <= 102.0 && hop8("swim") <= 102.0 &&
                 hop8("svm_classify") <= 102.0,
             ev);
    }
    {
        // Paper: serialized commits bound the bus design. From 32 to 64
        // CPUs its speedup flattens (gains <= 5 %) while Scalable TCC
        // keeps rising (gains > 5 %), ending >= 1.3x the bus.
        StatsNode &ev = claims.group("bus_flattens");
        bool ok = true;
        for (std::size_t a = 0; a < 2; ++a) { // volrend, equake
            const double busGain = r.busSpeedup(a, kMaxProcs) /
                                   r.busSpeedup(a, kMidProcs);
            const double scal64 =
                r.at({.app = kBusApps[a], .procs = kMaxProcs}).speedup;
            const double scalGain =
                scal64 /
                r.at({.app = kBusApps[a], .procs = kMidProcs}).speedup;
            const double scalOverBus = scal64 / r.busSpeedup(a, kMaxProcs);
            StatsNode &g = ev.group(kBusApps[a].c_str());
            g.real("bus_gain", busGain);
            g.real("scal_gain", scalGain);
            g.real("scal_over_bus", scalOverBus);
            ok = ok && busGain <= 1.05 && scalGain > 1.05 &&
                 scalOverBus >= 1.3;
        }
        gate(report, "bus_flattens", ok, ev);
    }
    {
        // Paper: per-word SR/SM bits avoid false-sharing violations.
        StatsNode &ev = claims.group("line_violations");
        bool ok = true;
        for (const char *app : kGranularityApps) {
            const Point &line = r.at({.app = app, .procs = kMidProcs,
                                      .granularity = Granularity::Line});
            const std::uint64_t word = r.points[line.ref].run.res.violations;
            ev.real(app, ratio(line.run.res.violations, word));
            ok = ok && line.run.res.violations >= word;
        }
        gate(report, "line_violations", ok, ev);
    }
    {
        // Paper: first-touch placement keeps commits local.
        StatsNode &ev = claims.group("interleave_slower");
        bool ok = true;
        for (const char *app : kHomeApps) {
            const Point &il = r.at({.app = app, .procs = kMidProcs,
                                    .homes = HomePolicy::Interleave});
            const Tick ft = r.points[il.ref].run.res.cycles;
            ev.real(app, ratio(il.run.res.cycles, ft));
            ok = ok && il.run.res.cycles > ft;
        }
        gate(report, "interleave_slower", ok, ev);
    }
    {
        // Paper: a 1 MB directory cache, because a missing entry costs
        // a memory round trip: cycles rise at every smaller size.
        StatsNode &ev = claims.group("dir_cache_cycles");
        bool ok = true;
        for (const char *app : kDirCacheApps) {
            const Tick perfect =
                r.at({.app = app, .procs = kMidProcs}).run.res.cycles;
            Tick prev = perfect;
            for (std::uint32_t size : kDirCacheSizes) {
                const Tick c = r.at({.app = app, .procs = kMidProcs,
                                     .dirCache = size})
                                   .run.res.cycles;
                ok = ok && c > prev;
                prev = c;
            }
            ev.real(app, ratio(prev, perfect));
        }
        gate(report, "dir_cache_cycles", ok, ev);
    }
    {
        // Paper: "most applications touch only a couple of directories
        // per commit"; radix is the exception.
        double maxOther = 0;
        for (const std::string &app : apps)
            if (app != "radix")
                maxOther = std::max(maxOther, table3(app).dirsPerCommit90);
        const double radix = table3("radix").dirsPerCommit90;
        StatsNode &ev = claims.group("dirs_per_commit");
        ev.real("radix", radix);
        ev.real("max_other", maxOther);
        gate(report, "dirs_per_commit", maxOther <= 2.0 && radix > 2.0,
             ev);
    }
    const auto opsOrder = rankApps(apps, [&](const std::string &a) {
        return table3(a).opsPerWordWritten90;
    });
    {
        // Paper: volrend's low ops per word written "limits
        // scalability".
        StatsNode &ev = claims.group("volrend_lowest_ops_per_word");
        ev.name("lowest", opsOrder.back()->c_str());
        ev.real("value", table3(*opsOrder.back()).opsPerWordWritten90);
        gate(report, "volrend_lowest_ops_per_word",
             *opsOrder.back() == "volrend", ev);
    }
    {
        // Paper: 2.5-160 MB/s per node at 2 GHz.
        double lo = 1e18, hi = 0;
        for (const std::string &app : apps) {
            lo = std::min(lo, top(app).mbPerSecPerNode());
            hi = std::max(hi, top(app).mbPerSecPerNode());
        }
        StatsNode &ev = claims.group("bandwidth_per_node");
        ev.real("min_mb_s", lo);
        ev.real("max_mb_s", hi);
        gate(report, "bandwidth_per_node", lo >= 2.5 && hi <= 160.0, ev);
    }

    // Claims the measurements contradict: recorded, never gated.
    StatsNode &dev = report.root().group("deviations");
    {
        // Paper: SPECjbb has "the highest" ops per word written.
        StatsNode &d = deviation(dev, "specjbb_highest_ops_per_word",
                                 *opsOrder[0] == "specjbb");
        d.real("specjbb", table3("specjbb").opsPerWordWritten90);
        d.name("highest", opsOrder[0]->c_str());
        d.real("highest_value", table3(*opsOrder[0]).opsPerWordWritten90);
    }
    {
        // Paper: for radix "all directories are touched".
        const double radix = table3("radix").dirsPerCommit90;
        StatsNode &d =
            deviation(dev, "radix_all_directories", radix >= kMaxProcs);
        d.real("radix", radix);
        d.num("directories", kMaxProcs);
    }
    {
        // Paper: sizes from "two-hundred to forty-five thousand"
        // instructions; holds if each end is within 2x.
        const auto order = rankApps(apps, [&](const std::string &a) {
            return table3(a).txnSize90;
        });
        const double lo = table3(*order.back()).txnSize90;
        const double hi = table3(*order[0]).txnSize90;
        StatsNode &d = deviation(dev, "txn_size_span",
                                 lo <= 2 * 200.0 && hi >= 45000 / 2.0 &&
                                     hi <= 2 * 45000.0);
        d.name("smallest", order.back()->c_str());
        d.real("smallest_p90", lo);
        d.name("largest", order[0]->c_str());
        d.real("largest_p90", hi);
    }
    {
        // Paper: equake and volrend degrade "by up to 50%" at 8
        // cycles/hop; holds if the worst degrades by at least 40 %.
        StatsNode &d = deviation(
            dev, "latency_degradation_50pct",
            std::max(hop8("equake"), hop8("volrend")) >= 140.0);
        d.real("equake", hop8("equake"));
        d.real("volrend", hop8("volrend"));
    }
    {
        // EXPERIMENTS.md used to say "for every application"; the
        // paper's claim is gated above for most apps.
        deviation(dev, "commit_overhead_every_app", overFive == 0)
            .num("apps_at_or_over_5pct", overFive);
    }
    {
        // Paper: 0.01-0.6 bytes per instruction in total.
        std::uint64_t over = 0;
        double hi = 0;
        for (const std::string &app : apps) {
            over += top(app).run.traffic.total() > 0.6;
            hi = std::max(hi, top(app).run.traffic.total());
        }
        StatsNode &d = deviation(dev, "traffic_under_0_6_bytes_per_instr",
                                 over == 0);
        d.num("apps_over", over);
        d.real("max", hi);
    }
}

void
addPoints(StatsNode &root, const Results &r)
{
    StatsNode &list = root.list("points");
    for (const Point &pt : r.points) {
        const Cell &c = pt.cell;
        const RunResult &res = pt.run.res;
        StatsNode &it = list.item();
        it.name("app", c.app.c_str());
        it.num("procs", c.procs);
        it.num("hop_latency", c.hop);
        it.name("granularity",
                c.granularity == Granularity::Word ? "word" : "line");
        it.name("homes", c.homes == HomePolicy::FirstTouch ? "first_touch"
                                                           : "interleave");
        it.num("aging", c.aging);
        it.num("dir_cache_entries", c.dirCache);
        it.flag("write_through", c.writeThrough);
        it.name("overrides", c.overrides.c_str());
        it.flag("completed", res.completed);
        it.num("cycles", res.cycles);
        it.num("commits", res.committedTxns);
        it.num("violations", res.violations);
        it.name("fingerprint", pt.fingerprintHex.c_str());
        it.num("ref", pt.ref);
        it.real("speedup", pt.speedup);
        it.real("norm_time", pt.normTime);
        // Percent of the run's own time, then of its reference's.
        for (const bool own : {true, false}) {
            StatsNode &g = it.group(own ? "breakdown" : "bar");
            const auto put = [&](const char *key, std::uint64_t part) {
                g.real(key, own ? pt.pct(part) : pt.bar(part));
            };
            put("useful", res.breakdown.useful);
            put("miss", res.breakdown.miss);
            put("idle", res.breakdown.idle);
            put("commit", res.breakdown.commit);
            put("violation", res.breakdown.violation);
        }
        const AppCharacterization &t3 = pt.run.characterization;
        StatsNode &row = it.group("table3");
        row.real("txn_size", t3.txnSize90);
        row.real("write_set_kb", t3.writeSetKB90);
        row.real("read_set_kb", t3.readSetKB90);
        row.real("ops_per_word", t3.opsPerWordWritten90);
        row.real("dirs_per_commit", t3.dirsPerCommit90);
        row.real("dir_working_set", t3.dirWorkingSet90);
        row.real("dir_occupancy", t3.dirOccupancy90);
        const TrafficRow &tr = pt.run.traffic;
        StatsNode &traffic = it.group("traffic");
        traffic.real("overhead", tr.overhead);
        traffic.real("miss", tr.miss);
        traffic.real("write_back", tr.writeBack);
        traffic.real("shared", tr.shared);
        traffic.real("total", tr.total());
        traffic.real("mb_per_s_node", pt.mbPerSecPerNode());
        it.num("dir_cache_misses", pt.run.dirCacheMisses);
    }
    StatsNode &bus = root.list("bus_points");
    for (std::size_t a = 0; a < std::size(kBusApps); ++a) {
        for (std::uint32_t p : kBusProcs) {
            const std::size_t scal = r.index({.app = kBusApps[a], .procs = p});
            const double scalSpeedup = r.points[scal].speedup;
            StatsNode &it = bus.item();
            it.name("app", kBusApps[a].c_str());
            it.num("procs", p);
            it.flag("completed", r.busRun(a, p).completed);
            it.num("cycles", r.busRun(a, p).cycles);
            it.num("point", scal);
            it.real("bus_speedup", r.busSpeedup(a, p));
            it.real("scal_speedup", scalSpeedup);
            it.real("scal_over_bus", scalSpeedup / r.busSpeedup(a, p));
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args =
        parseBenchArgs(argc, argv, "BENCH_paper.json",
                       /*takes_jobs=*/true, /*takes_smoke=*/false);
    BenchReport report(args);
    const std::vector<std::string> apps = benchApps();
    const Results r = runGrid(apps, args.jobs);

    judgeClaims(report, r, apps);
    addPoints(report.root(), r);
    StatsNode &cfg = report.config();
    cfg.num("system_runs", r.points.size());
    cfg.num("bus_runs", r.bus.size());
    cfg.num("seed", RunOptions{}.seed);
    const int rc = report.finish();
    renderStatsText(report.root(), std::cout);
    return rc;
}
