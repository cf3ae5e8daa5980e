/**
 * @file
 * tccsim: command-line driver for the Scalable TCC simulator. Runs one
 * of the paper's application profiles on a configurable machine and
 * prints every report the library produces - the tool you reach for
 * when exploring a configuration without writing code.
 *
 * Usage:
 *   tccsim [options]              (--flag=V and --flag V both work)
 *     --app NAME        workload name from the registry: Table-3 apps
 *                       and ds_* data-structure workloads (default
 *                       barnes; "list" prints the available names)
 *     --wl K=V[,K=V...] workload knob overrides (repeatable), e.g.
 *                       --wl theta=0.99,mix=write_heavy
 *     --procs N         processors/nodes (default 16)
 *     --network M       mesh | ideal | chaos:<preset>  (default mesh;
 *                       "chaos:list" prints the preset names)
 *     --chaos PRESET    shorthand for --network=chaos:<preset>
 *     --multicast M     commit fan-out strategy: flat | tree | tree:kN
 *                       (tree stages Skip/probe fan-out through a
 *                       k-ary combining tree; default flat, tree
 *                       defaults to k4, mesh network only)
 *     --hop N           mesh cycles per hop (default 3)
 *     --line-gran       line-granularity conflict detection
 *     --interleave      page-interleaved homes (default first-touch)
 *     --aging N         violations before TID aging (0 = off)
 *     --domains D       PDES: partition the run into D domains (>= 2
 *                       engages the PDES engine; needs --interleave).
 *                       Part of the model: results depend on D.
 *     --seed N          workload + chaos seed (default 1)
 *     --check LIST      comma list of checkers: serial, invariants
 *                       (bare --check arms the serial checker)
 *     --trace           record the protocol trace and print it to
 *                       stderr after the run, one event per line
 *                       (the newest 65,536 events; 262,144 with
 *                       --trace-out)
 *     --trace-out FILE  record the structured protocol trace and write
 *                       it as Chrome/Perfetto trace JSON to FILE (open
 *                       in ui.perfetto.dev or chrome://tracing).
 *                       Either flag also lists the tx ledger's
 *                       per-commit records in --stats / --stats-json
 *                       (the ledger keeps every commit in every run;
 *                       its violation-cause summary is always there)
 *     --stats FILE      write a full gem5-style stats dump to FILE
 *     --stats-json FILE write the stats tree as JSON to FILE (includes
 *                       the resolved configuration)
 *     --metrics-epoch N arm the epoch sampler: snapshot commits,
 *                       violations, cycles, NSTID lag, directory and
 *                       network counters every N cycles (series land
 *                       in --stats-json and --metrics-out)
 *     --metrics-out FILE write the epoch time series as CSV to FILE
 *                       (arms the sampler with a 1000-cycle epoch if
 *                       --metrics-epoch was not given)
 *     --contention K    hot words the conflict profiler reports
 *                       (default 32; 0 disarms it). The profiler
 *                       counts every conflicting word; the K hottest
 *                       and the abort blame graph land in --stats /
 *                       --stats-json, and the 5 lines with the most
 *                       aborts are printed
 *     --contention-dot FILE
 *                       write the abort blame graph as GraphViz DOT to
 *                       FILE
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "core/stats_dump.hh"
#include "core/report.hh"
#include "core/system.hh"
#include "obs/chrome_trace.hh"
#include "obs/contention.hh"
#include "obs/metrics.hh"
#include "workload/registry.hh"

using namespace tcc;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--app NAME] [--wl K=V,...] [--procs N] "
                 "[--network mesh|ideal|chaos:<preset>] "
                 "[--chaos PRESET] [--multicast flat|tree:kN] "
                 "[--hop N] [--line-gran] "
                 "[--interleave] [--aging N] "
                 "[--domains D] [--seed N] "
                 "[--check serial,invariants] [--trace] "
                 "[--trace-out FILE] [--stats FILE] "
                 "[--stats-json FILE] [--metrics-epoch N] "
                 "[--metrics-out FILE] [--contention K] "
                 "[--contention-dot FILE]\n",
                 argv0);
    std::exit(1);
}

/** Apply one --network value; exits on an unknown model/preset. */
void
parseNetwork(const std::string &val, NetworkConfig &net,
             const char *argv0)
{
    if (val == "mesh") {
        net.model = NetworkConfig::Model::Mesh;
    } else if (val == "ideal") {
        net.model = NetworkConfig::Model::Ideal;
    } else if (val.rfind("chaos:", 0) == 0) {
        const std::string preset = val.substr(6);
        if (preset == "list") {
            for (const auto &name : chaosPresetNames())
                std::puts(name.c_str());
            std::exit(0);
        }
        net.model = NetworkConfig::Model::Chaos;
        net.chaos = chaosPreset(preset);
    } else if (val == "chaos") {
        net.model = NetworkConfig::Model::Chaos;
        net.chaos = chaosPreset("heavy");
    } else {
        std::fprintf(stderr, "%s: unknown network '%s'\n", argv0,
                     val.c_str());
        std::exit(1);
    }
}

/** Apply one --multicast value (flat | tree | tree:kN). */
void
parseMulticast(const std::string &val, MulticastConfig &mc,
               const char *argv0)
{
    if (val == "flat") {
        mc.topology = MulticastConfig::Topology::Flat;
    } else if (val == "tree") {
        mc.topology = MulticastConfig::Topology::Tree;
    } else if (val.rfind("tree:k", 0) == 0) {
        mc.topology = MulticastConfig::Topology::Tree;
        mc.fanout = static_cast<std::uint32_t>(
            std::atoi(val.c_str() + 6));
    } else {
        std::fprintf(stderr, "%s: unknown multicast '%s'\n", argv0,
                     val.c_str());
        std::exit(1);
    }
}

/** Apply one --check list ("serial,invariants"); exits on junk. */
void
parseCheck(const std::string &val, CheckConfig &check,
           const char *argv0)
{
    std::size_t pos = 0;
    while (pos <= val.size()) {
        const std::size_t comma = val.find(',', pos);
        const std::string item =
            val.substr(pos, comma == std::string::npos ? std::string::npos
                                                       : comma - pos);
        if (item == "serial") {
            check.serial = true;
        } else if (item == "invariants") {
            check.invariants = true;
        } else if (!item.empty()) {
            std::fprintf(stderr, "%s: unknown checker '%s'\n", argv0,
                         item.c_str());
            std::exit(1);
        }
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string app_name = "barnes";
    WorkloadParams wl;
    std::string stats_path;
    std::string stats_json_path;
    std::string trace_out_path;
    std::string metrics_out_path;
    std::string contention_dot_path;
    bool trace_text = false;
    SystemConfig cfg;
    cfg.numProcs = 16;
    cfg.trace.contentionTopK = ContentionProfiler::kDefaultTopK;
    std::uint64_t seed = 1;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        // --flag=VALUE and --flag VALUE are both accepted.
        std::string inline_val;
        bool has_inline = false;
        if (const std::size_t eq = arg.find('=');
            eq != std::string::npos) {
            inline_val = arg.substr(eq + 1);
            arg.resize(eq);
            has_inline = true;
        }
        auto next = [&]() -> std::string {
            if (has_inline)
                return inline_val;
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--app") {
            app_name = next();
        } else if (arg == "--wl") {
            for (auto &kv : WorkloadParams::parse(next()).overrides)
                wl.overrides.push_back(std::move(kv));
        } else if (arg == "--procs") {
            cfg.numProcs =
                static_cast<std::uint32_t>(std::atoi(next().c_str()));
        } else if (arg == "--network") {
            parseNetwork(next(), cfg.network, argv[0]);
        } else if (arg == "--chaos") {
            parseNetwork("chaos:" + next(), cfg.network, argv[0]);
        } else if (arg == "--multicast") {
            parseMulticast(next(), cfg.network.multicast, argv[0]);
        } else if (arg == "--hop") {
            cfg.network.mesh.hopLatency =
                static_cast<Tick>(std::atoi(next().c_str()));
        } else if (arg == "--line-gran") {
            cfg.cache.granularity = Granularity::Line;
        } else if (arg == "--interleave") {
            cfg.homePolicy = HomePolicy::Interleave;
        } else if (arg == "--aging") {
            cfg.processor.agingThreshold =
                static_cast<std::uint32_t>(std::atoi(next().c_str()));
        } else if (arg == "--domains") {
            cfg.pdes.domains =
                static_cast<std::uint32_t>(std::atoi(next().c_str()));
        } else if (arg == "--seed") {
            seed = static_cast<std::uint64_t>(
                std::atoll(next().c_str()));
        } else if (arg == "--check") {
            // --check=LIST and --check LIST pick the set; a bare
            // --check (last, or before another flag) arms the serial
            // checker. tccsim takes no positional arguments, so a
            // following word that is not a flag is the list.
            if (has_inline)
                parseCheck(inline_val, cfg.check, argv[0]);
            else if (i + 1 < argc &&
                     std::string(argv[i + 1]).rfind("--", 0) != 0)
                parseCheck(argv[++i], cfg.check, argv[0]);
            else
                cfg.check.serial = true;
        } else if (arg == "--trace") {
            trace_text = true;
        } else if (arg == "--trace-out") {
            trace_out_path = next();
        } else if (arg == "--stats") {
            stats_path = next();
        } else if (arg == "--stats-json") {
            stats_json_path = next();
        } else if (arg == "--metrics-epoch") {
            cfg.trace.metricsEpoch =
                static_cast<Tick>(std::atoll(next().c_str()));
        } else if (arg == "--metrics-out") {
            metrics_out_path = next();
        } else if (arg == "--contention") {
            cfg.trace.contentionTopK =
                static_cast<std::size_t>(std::atoi(next().c_str()));
        } else if (arg == "--contention-dot") {
            contention_dot_path = next();
        } else {
            usage(argv[0]);
        }
    }
    // Requesting an output file arms the matching layer with a sane
    // default if the knob itself was not given.
    if (!metrics_out_path.empty() && cfg.trace.metricsEpoch == 0)
        cfg.trace.metricsEpoch = 1000;
    // The profiler is armed by default; only --contention 0 leaves the
    // blame graph nothing to draw.
    if (!contention_dot_path.empty() && cfg.trace.contentionTopK == 0) {
        std::fprintf(stderr, "%s: --contention-dot needs the conflict "
                             "profiler (--contention K with K > 0)\n",
                     argv[0]);
        return 1;
    }
    // One seed drives both the workload and the fault injection, so a
    // chaos run is reproduced by its (preset, seed) pair alone.
    cfg.network.chaos.seed = seed;

    if (!trace_out_path.empty()) {
        // A full application run overflows the default ring fast; give
        // the exporter more history to slice.
        cfg.trace.capacity = std::size_t{1} << 18;
    } else if (trace_text) {
        cfg.trace.capacity = TraceRecorder::kDefaultCapacity;
    }

    if (app_name == "list") {
        for (const auto &info : workloadInfos())
            std::printf("%-16s %-10s %s\n", info.name.c_str(),
                        info.kind.c_str(), info.description.c_str());
        return 0;
    }

    std::string net_desc;
    switch (cfg.network.model) {
      case NetworkConfig::Model::Mesh:
        net_desc = "mesh";
        break;
      case NetworkConfig::Model::Ideal:
        net_desc = "ideal network";
        break;
      case NetworkConfig::Model::Chaos:
        net_desc = std::string("chaos over ") +
                   (cfg.network.chaos.overIdeal ? "ideal" : "mesh") +
                   ", seed " + std::to_string(cfg.network.chaos.seed);
        break;
    }
    if (cfg.network.multicast.topology ==
        MulticastConfig::Topology::Tree) {
        net_desc += ", tree-k" +
                    std::to_string(cfg.network.multicast.fanout) +
                    " multicast";
    }
    std::printf("tccsim: %s on %u processors (hop=%llu, %s, %s, %s)\n",
                app_name.c_str(), cfg.numProcs,
                (unsigned long long)cfg.network.mesh.hopLatency,
                cfg.cache.granularity == Granularity::Word
                    ? "word-granularity"
                    : "line-granularity",
                cfg.homePolicy == HomePolicy::FirstTouch
                    ? "first-touch"
                    : "interleaved",
                net_desc.c_str());

    System sys(cfg);
    const WorkloadBundle bundle =
        makeWorkload(app_name, wl, seed, cfg.numProcs);
    bundle.attach(sys);
    std::printf("workload: %zu regions, %llu expected txns%s\n",
                bundle.footprint.regions.size(),
                (unsigned long long)bundle.footprint.expectedTxns,
                bundle.layout() ? " (data-structure engine)" : "");
    const RunResult res = sys.run();
    if (trace_text) {
        sys.traceRecorder().forEach([](const TraceEvent &e) {
            std::fprintf(stderr, "%s\n", formatTraceEvent(e).c_str());
        });
    }
    if (res.invariants.checked && !res.invariants.ok) {
        std::printf("INVARIANT VIOLATION\n%s\n",
                    res.invariants.error.c_str());
        return 1;
    }
    if (!res.completed) {
        std::puts("DID NOT COMPLETE (livelock or lost message?)");
        for (NodeId p = 0; p < cfg.numProcs; ++p)
            if (!sys.proc(p).done())
                std::fputs(sys.proc(p).debugDump().c_str(), stdout);
        return 1;
    }

    std::printf("\ncompleted in %llu cycles (%llu events)\n",
                (unsigned long long)res.cycles,
                (unsigned long long)res.events);
    if (res.pdes.domains != 0) {
        std::printf("pdes: %u domains, "
                    "lookahead %llu, %llu windows / %llu phases, "
                    "%llu mailbox messages\n",
                    res.pdes.domains,
                    (unsigned long long)res.pdes.lookahead,
                    (unsigned long long)res.pdes.windows,
                    (unsigned long long)res.pdes.phases,
                    (unsigned long long)res.pdes.mailboxMessages);
        std::printf("pdes: window width mean %.1f p50 %.0f p99 %.0f, "
                    "%llu idle-domain skips, "
                    "%llu empty broadcasts skipped\n",
                    res.pdes.windowWidth.mean(),
                    res.pdes.windowWidth.percentile(50),
                    res.pdes.windowWidth.percentile(99),
                    (unsigned long long)res.pdes.idleDomainSkips,
                    (unsigned long long)res.pdes.emptyBroadcastsSkipped);
    }

    std::puts("\n-- execution time breakdown --");
    std::puts(breakdownHeader().c_str());
    std::puts(breakdownRow(app_name, res.breakdown).c_str());

    std::puts("\n-- transaction characteristics (Table 3 style) --");
    std::puts(table3Header().c_str());
    std::puts(table3Row(characterize(sys, app_name)).c_str());

    std::puts("\n-- network traffic (Figure 9 style) --");
    std::puts(trafficHeader().c_str());
    std::puts(trafficRowText(trafficPerInstr(sys, app_name)).c_str());

    std::printf("\ncommits=%llu violations=%llu overflows=%llu "
                "quiesced=%s\n",
                (unsigned long long)res.committedTxns,
                (unsigned long long)res.violations,
                (unsigned long long)res.overflows,
                res.quiesced ? "yes" : "NO");
    if (bundle.layout() != nullptr) {
        const double goodput =
            res.cycles == 0
                ? 0.0
                : static_cast<double>(bundle.committedOps()) /
                      static_cast<double>(res.cycles);
        std::printf("goodput=%.4f committed ops/cycle "
                    "(%llu logical ops)\n",
                    goodput,
                    (unsigned long long)bundle.committedOps());
        const auto tallies = bundle.phaseTallies();
        for (std::size_t i = 0; i < tallies.size(); ++i) {
            const double rate =
                tallies[i].commits + tallies[i].aborts == 0
                    ? 0.0
                    : static_cast<double>(tallies[i].aborts) /
                          static_cast<double>(tallies[i].commits +
                                              tallies[i].aborts);
            std::printf("phase %zu: commits=%llu aborts=%llu "
                        "abort_rate=%.3f\n",
                        i, (unsigned long long)tallies[i].commits,
                        (unsigned long long)tallies[i].aborts, rate);
        }
    }

    if (const auto *chaos =
            dynamic_cast<const ChaosNetwork *>(&sys.network())) {
        const ChaosNetwork::ChaosStats &cs = chaos->chaosStats();
        std::printf("\nchaos: %llu messages, %llu duplicated, "
                    "%llu held for reorder, max extra delay %llu\n",
                    (unsigned long long)cs.messages,
                    (unsigned long long)cs.duplicates,
                    (unsigned long long)cs.reordersHeld,
                    (unsigned long long)cs.maxExtraDelay);
    }

    const ContentionProfiler *contention = sys.contentionProfiler();
    const auto hotspots = contention != nullptr
                              ? contention->topAborts(5)
                              : std::vector<ContentionProfiler::HotWord>{};
    if (!hotspots.empty()) {
        std::puts("\n-- conflict hotspots (TAPE style) --");
        for (const auto &h : hotspots)
            std::printf("  line %llx: %llu violations\n",
                        (unsigned long long)h.addr,
                        (unsigned long long)h.s.aborts);
    }

    if (!stats_path.empty()) {
        std::ofstream f(stats_path);
        if (!f) {
            std::fprintf(stderr, "cannot open %s\n",
                         stats_path.c_str());
            return 1;
        }
        dumpStats(sys, f);
        std::printf("\nfull stats written to %s\n",
                    stats_path.c_str());
    }

    if (!stats_json_path.empty()) {
        std::ofstream f(stats_json_path);
        if (!f) {
            std::fprintf(stderr, "cannot open %s\n",
                         stats_json_path.c_str());
            return 1;
        }
        dumpStatsJson(sys, f);
        std::printf("\nstats JSON written to %s\n",
                    stats_json_path.c_str());
    }

    if (!trace_out_path.empty()) {
        std::ofstream f(trace_out_path);
        if (!f) {
            std::fprintf(stderr, "cannot open %s\n",
                         trace_out_path.c_str());
            return 1;
        }
        exportChromeTrace(sys.traceRecorder(), cfg.numProcs, f);
        std::printf("\ntrace written to %s (%llu events captured, "
                    "%llu dropped) - open in ui.perfetto.dev\n",
                    trace_out_path.c_str(),
                    (unsigned long long)sys.traceRecorder().captured(),
                    (unsigned long long)sys.traceRecorder().dropped());
    }

    if (!metrics_out_path.empty()) {
        const MetricsSampler *m = sys.metricsSampler();
        std::ofstream f(metrics_out_path);
        if (!f || m == nullptr) {
            std::fprintf(stderr, "cannot open %s\n",
                         metrics_out_path.c_str());
            return 1;
        }
        writeMetricsCsv(*m, f);
        std::printf("\nmetrics CSV written to %s (%llu epochs of %llu "
                    "cycles)\n",
                    metrics_out_path.c_str(),
                    (unsigned long long)m->closed(),
                    (unsigned long long)m->epochLength());
    }

    if (!contention_dot_path.empty()) {
        std::ofstream f(contention_dot_path);
        if (!f) {
            std::fprintf(stderr, "cannot open %s\n",
                         contention_dot_path.c_str());
            return 1;
        }
        contention->writeDot(f);
        std::printf("\nblame graph written to %s (%llu conflicts "
                    "recorded) - render with dot -Tsvg\n",
                    contention_dot_path.c_str(),
                    (unsigned long long)contention->conflictsRecorded());
    }

    // The ring silently overwrites its oldest records when full; make
    // the loss loud so a cut trace is never mistaken for a complete
    // one. The ledger does not come from the ring and is whole.
    if (sys.traceRecorder().dropped() != 0) {
        std::fprintf(stderr,
                     "warning: protocol trace ring dropped %llu of "
                     "%llu events (oldest overwritten): the text and "
                     "Perfetto history is cut, the tx ledger keeps "
                     "every commit\n",
                     (unsigned long long)sys.traceRecorder().dropped(),
                     (unsigned long long)sys.traceRecorder().captured());
    }

    if (res.serial.checked) {
        std::printf("\nserializability: %s\n",
                    res.serial.ok ? "PASS" : res.serial.error.c_str());
    }
    if (res.invariants.checked) {
        std::printf("protocol invariants: %s (%llu checks)\n",
                    res.invariants.ok ? "PASS"
                                      : res.invariants.error.c_str(),
                    (unsigned long long)res.invariants.checks);
    }
    return res.checksPassed() ? 0 : 1;
}
