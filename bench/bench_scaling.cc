/**
 * @file
 * Paper-scale commit-path benchmark with a machine-readable result
 * (BENCH_scaling.json): the same constant-work barnes run swept across
 * processor counts {64, 256, 1024} and commit fan-out strategies
 * {flat, tree-k4, tree-k8}.
 *
 * The paper evaluates up to 64 processors; this sweep asks what the
 * commit path costs beyond that. Flat fan-out serializes every Skip /
 * Probe / Inv copy through the sender's NIC, so a commit at N nodes
 * pays O(N) serialized injections. The combining tree (noc/network.hh,
 * DESIGN.md section 12) relays copies through the first destinations,
 * cutting the critical path to O(k log_k N).
 *
 * Five gates, all hard failures:
 *  - every point must complete, quiesce, and pass the online
 *    protocol-invariant checker;
 *  - every point's latency statistics cover all of its commits;
 *  - at each processor count, tree runs must commit exactly the same
 *    transaction count and produce a bit-identical final-memory
 *    fingerprint as the flat run (timing changes, outcomes do not);
 *  - at the largest processor count, the tree's per-commit
 *    NIC-serialized multicast cost must be at most 1/4 of flat's
 *    (in practice it is ~1/40 at 1024 nodes);
 *  - at the largest processor count, the run's arena high-water mark
 *    must stay at most 1 MiB per node (host memory follows the state
 *    a run touches; one Table-2 L2 alone is 1 MiB of line records).
 *
 * Per point the JSON records commit-latency percentiles and the
 * per-commit directories-touched / multicast-cost distributions (all
 * merged from the processors' per-commit statistics, so every commit
 * counts: commit_latency_n == commits is gated), merged directory
 * commit-occupancy, the network's multicast counters, and the
 * System arena's high-water mark (arena_peak_bytes).
 *
 * Usage: bench_scaling [--smoke] [--out PATH]
 *   --smoke   procs {16, 64} x {flat, tree-k4}, tiny workload
 *   --out     JSON output path (default BENCH_scaling.json)
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"

namespace {

using namespace tccbench;

struct Topo {
    const char *name;
    MulticastConfig mc;
};

/** Everything one (procs, topology) point reports and gates on. */
struct Point {
    std::uint32_t procs = 0;
    const char *topo = "";
    Outcome out;
    /** out.fingerprint as hex (the JSON value; outlives the tree). */
    std::string fingerprintHex;
    /** Per-commit distributions merged across processors: commit
     *  latency (cycles), directories touched, and NIC-serialized
     *  multicast injections. */
    Distribution lat, dirs, nic;
    /** Directory single-server occupancy per served commit, merged
     *  across all directories. */
    Distribution occ;
    std::uint64_t netMulticasts = 0;
    std::uint64_t netMulticastNic = 0;
    /** High-water mark of the System's arena over the run. */
    std::size_t arenaPeakBytes = 0;
};

/** Arena bytes per node the largest point may hold. */
constexpr double kMaxArenaBytesPerNode = 1 << 20;

Point
runPoint(std::uint32_t procs, const Topo &topo, bool smoke)
{
    SystemConfig cfg;
    cfg.numProcs = procs;
    cfg.homePolicy = HomePolicy::Interleave;
    cfg.network.multicast = topo.mc;
    cfg.check.invariants = true;

    System sys(cfg);
    // Pin every plain store to a single writer (each proc's own shared
    // slice; hot-word RMWs stay commutative increments). The final
    // memory image is then a pure function of the committed
    // transaction set - independent of commit interleaving - which is
    // what makes the flat-vs-tree fingerprint gate sound: the tree may
    // reorder commits (timing feeds back into TID acquisition), but a
    // lost, duplicated, or corrupted delivery changes the image.
    WorkloadParams wl;
    wl.set("write_spread_dirs", "1");
    if (smoke)
        wl.set("phases", "1").set("max_txns_per_phase", "64");
    const WorkloadBundle bundle =
        makeWorkload("barnes", wl, /*seed=*/1, procs);
    bundle.attach(sys);

    Point pt;
    pt.procs = procs;
    pt.topo = topo.name;
    pt.out = runOutcome(sys);
    pt.fingerprintHex = hex(pt.out.fingerprint, 16);
    for (NodeId p = 0; p < sys.numProcs(); ++p) {
        const TccProcessor::Stats &s = sys.proc(p).stats();
        pt.lat.merge(s.commitLatency);
        pt.nic.merge(s.multicastNicPerCommit);
        pt.occ.merge(sys.directory(p).stats().commitOccupancy);
    }
    for (const TxLedgerEntry &e : sys.ledger())
        pt.dirs.sample(static_cast<double>(e.directoriesTouched));
    const auto &ns = sys.network().stats();
    pt.netMulticasts = ns.multicasts;
    pt.netMulticastNic = ns.multicastNicEvents;
    pt.arenaPeakBytes = sys.arenaStats().peakBytes;
    return pt;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args =
        parseBenchArgs(argc, argv, "BENCH_scaling.json", false);
    BenchReport report(args);
    const bool smoke = args.smoke;

    const std::vector<std::uint32_t> procsList =
        smoke ? std::vector<std::uint32_t>{16, 64}
              : std::vector<std::uint32_t>{64, 256, 1024};
    std::vector<Topo> topos = {
        {"flat", {}},
        {"tree-k4",
         {MulticastConfig::Topology::Tree, /*fanout=*/4,
          /*minDests=*/8}},
    };
    if (!smoke) {
        topos.push_back({"tree-k8",
                         {MulticastConfig::Topology::Tree,
                          /*fanout=*/8, /*minDests=*/8}});
    }

    std::printf("== commit-path scaling, 64 -> 1024 nodes "
                "(hw threads: %u) ==\n",
                std::thread::hardware_concurrency());

    std::vector<Point> points;
    for (std::uint32_t procs : procsList) {
        const std::size_t flat = points.size();
        for (const Topo &topo : topos) {
            points.push_back(runPoint(procs, topo, smoke));
            const Point &pt = points.back();
            const RunResult &res = pt.out.res;
            if (!report.check("completed",
                              res.completed && res.quiesced &&
                                  res.invariants.ok,
                              "procs=%u topo=%s %s", procs, topo.name,
                              !res.completed  ? "did not complete"
                              : !res.quiesced ? "did not quiesce"
                                              : res.invariants.error
                                                    .c_str()))
                return report.finish();
            report.check("latency_lossless",
                         pt.lat.count() == res.committedTxns,
                         "procs=%u topo=%s: %zu latency samples for "
                         "%llu commits",
                         procs, topo.name, pt.lat.count(),
                         (unsigned long long)res.committedTxns);
            checkLedger(report, "latency_lossless", pt.out,
                        "procs=" + std::to_string(procs) + " topo=" +
                            topo.name);
            std::printf(
                "procs=%-5u %-8s : %8.3f sec  %9llu cycles  "
                "commits=%-5llu  lat p50/p99 %7.0f/%7.0f  "
                "nic/commit p50 %6.0f  dirs/commit p50 %4.0f  "
                "arena %7.1f MiB\n",
                procs, topo.name, pt.out.wallSec,
                (unsigned long long)res.cycles,
                (unsigned long long)res.committedTxns,
                pt.lat.percentile(50), pt.lat.percentile(99),
                pt.nic.percentile(50), pt.dirs.percentile(50),
                pt.arenaPeakBytes / double(1 << 20));
            if (points.size() - 1 == flat)
                continue;
            // Gate: the tree reshapes timing, never protocol outcomes.
            const Outcome &base = points[flat].out;
            report.match(
                "outcomes_match",
                res.committedTxns == base.res.committedTxns &&
                    pt.out.fingerprint == base.fingerprint,
                "at procs=%u %s vs flat: commits %llu vs %llu, "
                "fingerprint %016llx vs %016llx",
                procs, topo.name, (unsigned long long)res.committedTxns,
                (unsigned long long)base.res.committedTxns,
                (unsigned long long)pt.out.fingerprint,
                (unsigned long long)base.fingerprint);
        }
    }
    const bool outcomesMatch = report.passed("outcomes_match");

    // Sublinearity gate at the largest processor count: the tree's
    // median per-commit NIC cost must beat flat by at least 4x (the
    // analytic ratio N / (k log_k N) is ~40x at 1024, k=4). The smoke
    // grid stops at 64 nodes where the analytic margin is thin, so the
    // gate arms on the full sweep only.
    double flatNicP50 = 0, treeNicP50 = 0, arenaPerNode = 0;
    for (const Point &pt : points) {
        if (pt.procs != procsList.back())
            continue;
        arenaPerNode = std::max(arenaPerNode,
                                double(pt.arenaPeakBytes) / pt.procs);
        if (std::strcmp(pt.topo, "flat") == 0)
            flatNicP50 = pt.nic.percentile(50);
        else if (std::strcmp(pt.topo, "tree-k4") == 0)
            treeNicP50 = pt.nic.percentile(50);
    }
    const bool sublinear =
        flatNicP50 > 0 && treeNicP50 > 0 &&
        treeNicP50 * 4.0 <= flatNicP50;
    std::printf("outcome identity   : %s\n",
                outcomesMatch ? "tree == flat (commits, memory image)"
                              : "MISMATCH");
    std::printf("nic sublinearity   : p50 %.0f (flat) vs %.0f "
                "(tree-k4) at %u procs -> %s\n",
                flatNicP50, treeNicP50, procsList.back(),
                sublinear ? "OK"
                : smoke   ? "not armed (smoke grid stops at 64)"
                          : "FAIL");
    // Memory gate: per-node host state follows what the run touches
    // (L2 sets on first fill, directory entries on first message), so
    // the largest point stays far below one L2's 1 MiB per node.
    std::printf("arena per node     : %.0f KiB at %u procs (max %.0f)\n",
                arenaPerNode / 1024, procsList.back(),
                kMaxArenaBytesPerNode / 1024);
    report.check("arena_per_node", arenaPerNode <= kMaxArenaBytesPerNode,
                 "%.0f arena bytes per node at %u procs exceeds %.0f",
                 arenaPerNode, procsList.back(), kMaxArenaBytesPerNode);
    if (!smoke)
        report.check("nic_sublinear", sublinear,
                     "tree-k4 nic/commit p50 %.0f is not 4x below "
                     "flat's %.0f at %u procs",
                     treeNicP50, flatNicP50, procsList.back());

    StatsNode &r = report.root();
    r.flag("outcomes_match", outcomesMatch);
    r.flag("nic_sublinear", sublinear);
    r.real("flat_nic_p50_largest", flatNicP50);
    r.real("tree_k4_nic_p50_largest", treeNicP50);
    r.real("arena_bytes_per_node_largest", arenaPerNode);
    r.num("points_total", points.size());
    StatsNode &list = r.list("points");
    for (const Point &pt : points) {
        const RunResult &res = pt.out.res;
        StatsNode &it = list.item();
        it.num("procs", pt.procs);
        it.name("topology", pt.topo);
        it.real("wall_sec", pt.out.wallSec);
        it.num("cycles", res.cycles);
        it.num("commits", res.committedTxns);
        it.num("violations", res.violations);
        it.num("commit_latency_n", pt.lat.count());
        it.name("fingerprint", pt.fingerprintHex.c_str());
        it.real("commit_latency_p50", pt.lat.percentile(50));
        it.real("commit_latency_p90", pt.lat.percentile(90));
        it.real("commit_latency_p99", pt.lat.percentile(99));
        it.real("dirs_per_commit_mean", pt.dirs.mean());
        it.real("dirs_per_commit_p50", pt.dirs.percentile(50));
        it.real("dirs_per_commit_p99", pt.dirs.percentile(99));
        it.real("nic_per_commit_mean", pt.nic.mean());
        it.real("nic_per_commit_p50", pt.nic.percentile(50));
        it.real("nic_per_commit_p99", pt.nic.percentile(99));
        it.real("dir_occupancy_mean", pt.occ.mean());
        it.real("dir_occupancy_p99", pt.occ.percentile(99));
        it.num("net_multicasts", pt.netMulticasts);
        it.num("net_multicast_nic_events", pt.netMulticastNic);
        it.num("arena_peak_bytes", pt.arenaPeakBytes);
    }
    StatsNode &cfg = report.config();
    cfg.name("app", "barnes");
    cfg.num("write_spread_dirs", 1);
    cfg.num("topologies", topos.size());
    cfg.num("procs_swept", procsList.size());
    return report.finish();
}
