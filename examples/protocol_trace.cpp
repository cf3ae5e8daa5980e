/**
 * @file
 * Protocol walk-through example: re-creates the paper's Figure 2
 * scenario (two processors, one successful commit, one violation) with
 * protocol tracing armed, and prints every recorded message and state
 * change after the run. Useful for understanding - or teaching - the
 * two-phase parallel commit.
 *
 * Run:  ./build/examples/protocol_trace 2> trace.log
 *
 * Options:
 *   --trace-out FILE   also write the structured trace as
 *                      Chrome/Perfetto trace JSON
 *   --stats-json FILE  write the full stats tree (including the
 *                      tx_ledger) as JSON
 *   --quiet            do not print the trace to stderr (recording
 *                      for the two files above still happens)
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "core/stats_dump.hh"
#include "core/system.hh"
#include "obs/chrome_trace.hh"
#include "obs/tx_ledger.hh"
#include "workload/scripted_source.hh"

using namespace tcc;

int
main(int argc, char **argv)
{
    std::string trace_out_path;
    std::string stats_json_path;
    bool quiet = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--trace-out" && i + 1 < argc) {
            trace_out_path = argv[++i];
        } else if (arg == "--stats-json" && i + 1 < argc) {
            stats_json_path = argv[++i];
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--trace-out FILE] "
                         "[--stats-json FILE] [--quiet]\n",
                         argv[0]);
            return 1;
        }
    }

    SystemConfig cfg;
    cfg.numProcs = 2;
    cfg.trace.capacity = TraceRecorder::kDefaultCapacity;
    cfg.check.serial = true;
    cfg.homePolicy = HomePolicy::Interleave; // deterministic homes
    System sys(cfg);

    // Address X is homed at directory 0 (page 0 of the region).
    const Addr x = 0x100000;

    // P0: writes X and commits first (lower TID).
    ScriptedSource p0;
    p0.add({TxOp::compute(100), TxOp::store(x, 42)});

    // P1: reads X early, computes for a long time - long enough for
    // P0's commit to invalidate it - then uses the value. It violates,
    // re-executes, and commits with P0's value.
    ScriptedSource p1;
    p1.add({TxOp::load(x), TxOp::compute(4000),
            TxOp::storeAdd(x + 4096, 0)});

    sys.setSource(0, &p0);
    sys.setSource(1, &p1);

    if (!quiet) {
        std::puts("running the Figure 2 scenario "
                  "(see stderr for the message trace)...");
    }
    const RunResult res = sys.run();
    if (!quiet) {
        sys.traceRecorder().forEach([](const TraceEvent &e) {
            std::fprintf(stderr, "%s\n", formatTraceEvent(e).c_str());
        });
    }

    std::printf("\ncompleted in %llu cycles\n",
                (unsigned long long)res.cycles);
    std::printf("P1 violations: %llu (expected 1: it had read X before "
                "P0 committed)\n",
                (unsigned long long)sys.proc(1).stats().violations);
    std::printf("X = %llu, copy = %llu\n",
                (unsigned long long)sys.memory().read(x),
                (unsigned long long)sys.memory().read(x + 4096));

    // The ledger holds each committed transaction's lifecycle, as the
    // processors recorded it.
    std::printf("trace: %llu events captured\n",
                (unsigned long long)sys.traceRecorder().captured());
    for (const auto &e : sys.ledger()) {
        std::printf("  tx %llu @ proc %u: exec=%llu commit=%llu "
                    "retries=%u",
                    (unsigned long long)e.tid, e.node,
                    (unsigned long long)e.execCycles(),
                    (unsigned long long)e.commitCycles(), e.retries);
        if (e.hasViolation()) {
            std::printf(" (violated at %llx by tid %llu)",
                        (unsigned long long)e.violationAddr,
                        (unsigned long long)e.violationWriter);
        }
        std::printf("\n");
    }

    if (!trace_out_path.empty()) {
        std::ofstream f(trace_out_path);
        if (!f) {
            std::fprintf(stderr, "cannot open %s\n",
                         trace_out_path.c_str());
            return 1;
        }
        exportChromeTrace(sys.traceRecorder(), cfg.numProcs, f);
        std::printf("trace JSON written to %s\n",
                    trace_out_path.c_str());
    }
    if (!stats_json_path.empty()) {
        std::ofstream f(stats_json_path);
        if (!f) {
            std::fprintf(stderr, "cannot open %s\n",
                         stats_json_path.c_str());
            return 1;
        }
        dumpStatsJson(sys, f);
        std::printf("stats JSON written to %s\n",
                    stats_json_path.c_str());
    }

    std::printf("serializability: %s\n",
                res.serial.ok ? "PASS" : res.serial.error.c_str());
    return res.serial.ok ? 0 : 1;
}
