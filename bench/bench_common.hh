/**
 * @file
 * Shared driver for the benchmark harness. Each binary writes one
 * BENCH_*.json; bench_paper regenerates the paper's tables and figures
 * (see DESIGN.md's per-experiment index). This header is the plumbing
 * they share: running one configuration, comparing two runs' outcomes,
 * parsing the command line, and writing the JSON document with its
 * gate verdicts.
 */

#ifndef TCC_BENCH_COMMON_HH
#define TCC_BENCH_COMMON_HH

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/report.hh"
#include "core/sweep.hh"
#include "core/system.hh"
#include "obs/stats_tree.hh"
#include "workload/registry.hh"

// Configure-time git revision (set by bench/CMakeLists.txt) so each
// BENCH_*.json records what code produced it.
#ifndef TCC_GIT_REV
#define TCC_GIT_REV "unknown"
#endif

namespace tccbench {

using namespace tcc;

/**
 * A run's simulated outcome: its RunResult plus the final-memory
 * fingerprint. Every identity gate compares two of these through
 * outcomeDiff().
 */
struct Outcome {
    RunResult res;
    /** System::memory().fingerprint() after the run. */
    std::uint64_t fingerprint = 0;
    /** Host wall-clock of System::run() (never compared). */
    double wallSec = 0;
    /** System::ledger().size() after the run (checkLedger()). */
    std::uint64_t ledgerRecords = 0;
};

/** Wall-clock seconds from @p a to @p b. */
inline double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** @p v as lower-case hex, zero-padded to @p width digits. */
inline std::string
hex(std::uint64_t v, int width = 0)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%0*llx", width,
                  (unsigned long long)v);
    return buf;
}

/** Run @p sys to completion and capture its Outcome. */
inline Outcome
runOutcome(System &sys)
{
    Outcome out;
    const auto t0 = std::chrono::steady_clock::now();
    out.res = sys.run();
    out.wallSec = seconds(t0, std::chrono::steady_clock::now());
    out.fingerprint = sys.memory().fingerprint();
    out.ledgerRecords = sys.ledger().size();
    return out;
}

/**
 * The first field in which @p a and @p b differ, or null when the two
 * runs are bit-identical.
 */
inline const char *
outcomeDiff(const Outcome &a, const Outcome &b)
{
#define TCC_CMP(field)                                                 \
    if (a.field != b.field)                                            \
        return #field;
    TCC_CMP(fingerprint);
    TCC_CMP(res.cycles);
    TCC_CMP(res.completed);
    TCC_CMP(res.events);
    TCC_CMP(res.quiesced);
    TCC_CMP(res.committedTxns);
    TCC_CMP(res.violations);
    TCC_CMP(res.overflows);
    TCC_CMP(res.committedInstructions);
    TCC_CMP(res.breakdown.useful);
    TCC_CMP(res.breakdown.miss);
    TCC_CMP(res.breakdown.commit);
    TCC_CMP(res.breakdown.idle);
    TCC_CMP(res.breakdown.violation);
    TCC_CMP(res.pdes.domains);
    TCC_CMP(res.pdes.lookahead);
    TCC_CMP(res.pdes.phases);
    TCC_CMP(res.pdes.mailboxMessages);
    TCC_CMP(res.pdes.idleDomainSkips);
    TCC_CMP(res.pdes.windows);
    TCC_CMP(res.pdes.emptyBroadcastsSkipped);
    TCC_CMP(res.procs.size());
    TCC_CMP(res.dirs.size());
    for (std::size_t p = 0; p < a.res.procs.size(); ++p) {
        TCC_CMP(res.procs[p].txnsCommitted);
        TCC_CMP(res.procs[p].violations);
        TCC_CMP(res.procs[p].overflows);
        TCC_CMP(res.procs[p].soloCommits);
        TCC_CMP(res.procs[p].committedInstructions);
    }
    for (std::size_t d = 0; d < a.res.dirs.size(); ++d) {
        TCC_CMP(res.dirs[d].nstid);
        TCC_CMP(res.dirs[d].commitsServed);
        TCC_CMP(res.dirs[d].skipsReceived);
        TCC_CMP(res.dirs[d].abortsServed);
        TCC_CMP(res.dirs[d].invalidationsSent);
        TCC_CMP(res.dirs[d].writeBacksDropped);
    }
#undef TCC_CMP
    return nullptr;
}

/** Everything a figure needs from one finished run. */
struct RunOutcome : Outcome {
    std::string app;
    std::uint32_t procs = 0;
    AppCharacterization characterization;
    TrafficRow traffic;
    std::uint64_t dirCacheMisses = 0;
};

/** Tweaks applied on top of the default Table 2 configuration. */
struct RunOptions {
    std::uint32_t procs = 8;
    std::uint64_t seed = 1;
    Tick hopLatency = 3;
    Granularity granularity = Granularity::Word;
    HomePolicy homePolicy = HomePolicy::FirstTouch;
    std::uint32_t agingThreshold = 3;
    /** Interconnect (model + parameters); hopLatency above overrides
     *  network.mesh.hopLatency for the mesh-based models. */
    NetworkConfig network;
    /** Checkers to arm (chaos_sweep runs with both on). */
    CheckConfig check;
    /** Directory cache entries (0 = perfectly sized). */
    std::uint32_t dirCacheEntries = 0;
    /** Write-through commit ablation. */
    bool writeThroughCommit = false;
    /** Workload knob overrides (registry key=value pairs, e.g.
     *  {"txns_per_phase","64"} for smoke clamps). */
    WorkloadParams wl;
};

/** Run registry workload @p name once under @p opt. */
inline RunOutcome
runWorkload(const std::string &name, const RunOptions &opt)
{
    SystemConfig cfg;
    cfg.numProcs = opt.procs;
    cfg.network = opt.network;
    cfg.network.mesh.hopLatency = opt.hopLatency;
    cfg.cache.granularity = opt.granularity;
    cfg.homePolicy = opt.homePolicy;
    cfg.processor.agingThreshold = opt.agingThreshold;
    cfg.check = opt.check;
    cfg.directory.dirCacheEntries = opt.dirCacheEntries;
    cfg.writeThroughCommit = opt.writeThroughCommit;

    System sys(cfg);
    const WorkloadBundle bundle =
        makeWorkload(name, opt.wl, opt.seed, opt.procs);
    bundle.attach(sys);

    RunOutcome out;
    static_cast<Outcome &>(out) = runOutcome(sys);
    out.app = name;
    out.procs = opt.procs;
    out.characterization = characterize(sys, name);
    out.traffic = trafficPerInstr(sys, name);
    for (NodeId p = 0; p < sys.numProcs(); ++p)
        out.dirCacheMisses += sys.directory(p).stats().dirCacheMisses;
    return out;
}

/** The paper's application ordering (Table-3 workload names from the
 *  registry). */
inline std::vector<std::string>
benchApps()
{
    std::vector<std::string> names;
    for (const auto &info : workloadInfos())
        if (info.kind == "table3")
            names.push_back(info.name);
    return names;
}

/**
 * Command-line options: --smoke (a tiny grid: CI wiring check, not a
 * benchmark), --out PATH (default BENCH_<name>.json) and --jobs=<n>
 * (concurrent simulations; default TCC_JOBS env, else hardware threads).
 */
struct BenchArgs {
    unsigned jobs = 0; ///< 0 = SweepRunner::defaultJobs()
    bool smoke = false;
    std::string out;
};

/**
 * Parse @p argv into a BenchArgs, writing to @p json_out by default;
 * exits 2 with a usage line on bad input. A driver that sweeps in
 * parallel passes @p takes_jobs; one whose claims hold only on its
 * full grid passes !@p takes_smoke.
 */
inline BenchArgs
parseBenchArgs(int argc, char **argv, const char *json_out,
               bool takes_jobs, bool takes_smoke = true)
{
    BenchArgs args;
    args.out = json_out;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (takes_smoke && std::strcmp(a, "--smoke") == 0) {
            args.smoke = true;
        } else if (std::strcmp(a, "--out") == 0 && i + 1 < argc) {
            args.out = argv[++i];
        } else if (takes_jobs && std::strncmp(a, "--jobs=", 7) == 0) {
            char *end = nullptr;
            const unsigned long v = std::strtoul(a + 7, &end, 10);
            if (end == a + 7 || *end != '\0' || v == 0) {
                std::fprintf(stderr, "bad --jobs value: '%s'\n",
                             a + 7);
                std::exit(2);
            }
            args.jobs = static_cast<unsigned>(v);
        } else {
            std::fprintf(stderr, "usage: %s %s[--out PATH]%s\n", argv[0],
                         takes_smoke ? "[--smoke] " : "",
                         takes_jobs ? " [--jobs=<n>]" : "");
            std::exit(2);
        }
    }
    return args;
}

/**
 * The JSON document of one bench driver, and its gate verdicts.
 *
 * The driver adds its results to root(), reports every armed gate
 * through check() or match(), optionally fills config(), and returns
 * finish(). The written document is the driver's results plus
 *   "hardware_concurrency", "git_rev", "config": {"smoke", ...} and
 *   "gates": {<name>: true|false, ...}
 * and finish()'s exit code is 0 when every gate passed, else 1.
 * Gates that do not arm on this run (a full-grid-only threshold, a
 * multicore-only speedup) are not recorded.
 */
class BenchReport
{
  public:
    explicit BenchReport(const BenchArgs &args)
        : path(args.out), smoke(args.smoke)
    {
    }

    StatsNode &root() { return doc; }

    /** Gate @p gate passes iff @p ok (ANDed over repeated calls); a
     *  failure prints "FAIL: <fmt ...>" to stderr. Returns @p ok. */
    bool
    check(const char *gate, bool ok, const char *fmt, ...)
        __attribute__((format(printf, 4, 5)))
    {
        va_list ap;
        va_start(ap, fmt);
        record(gate, ok, "FAIL: ", fmt, ap);
        va_end(ap);
        return ok;
    }

    /** An identity gate: like check(), printing "MISMATCH <fmt ...>". */
    bool
    match(const char *gate, bool same, const char *fmt, ...)
        __attribute__((format(printf, 4, 5)))
    {
        va_list ap;
        va_start(ap, fmt);
        record(gate, same, "MISMATCH ", fmt, ap);
        va_end(ap);
        return same;
    }

    /** Verdict of @p gate so far (true when not yet checked). */
    bool
    passed(const char *gate) const
    {
        for (const auto &[name, ok] : gates)
            if (std::strcmp(name, gate) == 0)
                return ok;
        return true;
    }

    /** Add the run-identity header to the document and return its
     *  config group (already holding "smoke"). Call once, after the
     *  last result. */
    StatsNode &
    config()
    {
        configured = true;
        doc.num("hardware_concurrency",
                std::thread::hardware_concurrency());
        doc.name("git_rev", TCC_GIT_REV);
        StatsNode &cfg = doc.group("config");
        cfg.flag("smoke", smoke);
        return cfg;
    }

    /** Write the document; returns the driver's exit code. */
    int
    finish()
    {
        if (!configured)
            config();
        StatsNode &g = doc.group("gates");
        bool all = true;
        for (const auto &[name, ok] : gates) {
            g.flag(name, ok);
            all = all && ok;
        }
        std::ofstream f(path);
        if (!f) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         path.c_str());
            return 1;
        }
        renderStatsJson(doc, f);
        f << '\n';
        std::printf("wrote %s\n", path.c_str());
        return all ? 0 : 1;
    }

  private:
    void
    record(const char *gate, bool ok, const char *prefix,
           const char *fmt, va_list ap)
    {
        if (!ok) {
            std::fputs(prefix, stderr);
            std::vfprintf(stderr, fmt, ap);
            std::fputc('\n', stderr);
        }
        for (auto &[name, verdict] : gates) {
            if (std::strcmp(name, gate) == 0) {
                verdict = verdict && ok;
                return;
            }
        }
        gates.emplace_back(gate, ok);
    }

    std::string path;
    bool smoke;
    bool configured = false;
    StatsNode doc;
    std::vector<std::pair<const char *, bool>> gates;
};

/**
 * Gate @p gate on @p out's tx ledger holding one record per commit.
 * The processors write it in every run, traced or not, so a shortfall
 * is a lost record. @p point names the run in the failure line.
 * Returns whether it held.
 */
inline bool
checkLedger(BenchReport &report, const char *gate, const Outcome &out,
            const std::string &point)
{
    return report.check(gate, out.ledgerRecords == out.res.committedTxns,
                        "%s: %llu ledger records for %llu commits",
                        point.c_str(),
                        (unsigned long long)out.ledgerRecords,
                        (unsigned long long)out.res.committedTxns);
}

} // namespace tccbench

#endif // TCC_BENCH_COMMON_HH
