/**
 * @file
 * The one stats schema (obs/stats_tree.hh): text, JSON and CSV render
 * a single tree by fixed rules, and the tree a System reports matches
 * the checked-in schema in tests/golden/stats_schema.txt, so a field
 * that appears, moves or vanishes shows up as a reviewed diff.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "core/stats_dump.hh"
#include "core/system.hh"
#include "obs/metrics.hh"
#include "obs/stats_tree.hh"
#include "workload/registry.hh"

namespace tcc {
namespace {

/** One node of every kind, with a nested List and a two-column table. */
StatsNode
sampleTree()
{
    StatsNode root;
    StatsNode &sys = root.group("system");
    sys.num("procs", 2);
    sys.real("ratio", 0.125);
    sys.flag("quiesced", true);
    sys.name("sync", "adaptive");
    Distribution d;
    d.sample(1);
    d.sample(3);
    sys.dist("lat", d);
    sys.dist("empty", Distribution{});
    StatsNode &procs = root.list("procs");
    for (std::uint64_t p = 0; p < 2; ++p) {
        StatsNode &it = procs.item();
        it.num("node", p);
        it.list("causes");
    }
    StatsNode &series = root.group("series");
    StatsNode &epoch = series.vector("epoch");
    epoch.push(0);
    epoch.push(1);
    StatsNode &commits = series.vector("commits");
    commits.push(5);
    commits.push(7);
    return root;
}

TEST(StatsTree, RenderersShareOneWalk)
{
    const StatsNode root = sampleTree();

    std::ostringstream text;
    renderStatsText(root, text);
    EXPECT_EQ(text.str(), "system.procs 2\n"
                          "system.ratio 0.125\n"
                          "system.quiesced 1\n"
                          "system.sync adaptive\n"
                          "system.lat.count 2\n"
                          "system.lat.mean 2\n"
                          "system.lat.min 1\n"
                          "system.lat.p50 3\n"
                          "system.lat.p90 3\n"
                          "system.lat.p99 3\n"
                          "system.lat.max 3\n"
                          "system.lat.stddev 1\n"
                          "system.empty.count 0\n"
                          "procs.count 2\n"
                          "procs.0.node 0\n"
                          "procs.0.causes.count 0\n"
                          "procs.1.node 1\n"
                          "procs.1.causes.count 0\n"
                          "series.epoch 0 1\n"
                          "series.commits 5 7\n");

    std::ostringstream json;
    renderStatsJson(root, json);
    EXPECT_EQ(json.str(),
              "{\"system\":{\"procs\":2,\"ratio\":0.125,\"quiesced\":true,"
              "\"sync\":\"adaptive\",\"lat\":{\"count\":2,\"mean\":2,"
              "\"min\":1,\"p50\":3,\"p90\":3,\"p99\":3,\"max\":3,"
              "\"stddev\":1},\"empty\":{\"count\":0}},"
              "\"procs\":[{\"node\":0,\"causes\":[]},"
              "{\"node\":1,\"causes\":[]}],"
              "\"series\":{\"epoch\":[0,1],\"commits\":[5,7]}}");

    std::ostringstream csv;
    renderStatsCsv(*root.find("series"), csv);
    EXPECT_EQ(csv.str(), "epoch,commits\n0,5\n1,7\n");
}

TEST(StatsTree, SignedLeavesAndRealVectors)
{
    // The bench drivers' kinds: a signed key (-1 = no key) and a
    // column of per-pass wall times.
    StatsNode root;
    root.inum("key", -1);
    StatsNode &times = root.vector("runs_sec");
    times.pushReal(0.5);
    times.pushReal(1.25);

    std::ostringstream text;
    renderStatsText(root, text);
    EXPECT_EQ(text.str(), "key -1\nruns_sec 0.5 1.25\n");
    std::ostringstream json;
    renderStatsJson(root, json);
    EXPECT_EQ(json.str(), "{\"key\":-1,\"runs_sec\":[0.5,1.25]}");
}

/**
 * The text dump's paths with list indices folded to '#', in first-seen
 * order: the schema of the tree without its values.
 */
std::string
schemaOf(const std::string &text)
{
    std::istringstream in(text);
    std::set<std::string> seen;
    std::string out, line;
    while (std::getline(in, line)) {
        if (line.rfind("----------", 0) == 0)
            continue;
        std::istringstream fields(line);
        std::string path, part, folded;
        fields >> path;
        std::istringstream parts(path);
        while (std::getline(parts, part, '.')) {
            const bool index =
                part.find_first_not_of("0123456789") == std::string::npos;
            folded += (folded.empty() ? "" : ".") + (index ? "#" : part);
        }
        if (seen.insert(folded).second)
            out += folded + "\n";
    }
    return out;
}

TEST(StatsTree, SchemaMatchesGolden)
{
    // Arm every optional section: PDES, the epoch sampler, the
    // contention profiler and the transaction ledger's entries (they
    // render when the run is traced).
    SystemConfig cfg;
    cfg.numProcs = 8;
    cfg.trace.capacity = TraceRecorder::kDefaultCapacity;
    cfg.homePolicy = HomePolicy::Interleave;
    cfg.pdes.domains = 2;
    cfg.trace.metricsEpoch = 1000;
    cfg.trace.contentionTopK = 8;
    System sys(cfg);
    const WorkloadBundle wl = makeWorkload(
        "ds_map",
        WorkloadParams::parse(
            "theta=0.99,mix=write_heavy,max_txns_per_phase=32"),
        1, cfg.numProcs);
    wl.attach(sys);
    const RunResult res = sys.run();
    ASSERT_TRUE(res.completed);
    ASSERT_GT(res.violations, 0u) << "the ledger needs a violation";

    std::ostringstream text;
    dumpStats(sys, text);

    std::ifstream f(TCC_GOLDEN_DIR "/stats_schema.txt");
    ASSERT_TRUE(f) << "missing " TCC_GOLDEN_DIR "/stats_schema.txt";
    std::stringstream golden;
    golden << f.rdbuf();
    EXPECT_EQ(golden.str(), schemaOf(text.str()))
        << "the stats schema changed; if intended, update "
           "tests/golden/stats_schema.txt to the new schema above";
}

TEST(StatsTree, MetricsCsvIsTheJsonSeries)
{
    SystemConfig cfg;
    cfg.numProcs = 4;
    cfg.homePolicy = HomePolicy::Interleave;
    cfg.trace.metricsEpoch = 500;
    System sys(cfg);
    const WorkloadBundle wl = makeWorkload("ds_map", {}, 1, cfg.numProcs);
    wl.attach(sys);
    ASSERT_TRUE(sys.run().completed);
    const MetricsSampler *m = sys.metricsSampler();
    ASSERT_NE(m, nullptr);

    // One column definition: the CSV header is the JSON series' keys,
    // and each CSV row holds that epoch's entry of every array.
    const StatsNode tree = buildStatsTree(sys);
    const StatsNode &series = *tree.find("metrics")->find("series");
    std::ostringstream csv;
    writeMetricsCsv(*m, csv);
    std::istringstream rows(csv.str());
    std::string header, row;
    std::getline(rows, header);
    std::string want;
    for (const StatsNode &col : series.children())
        want += (want.empty() ? "" : ",") + std::string(col.key());
    EXPECT_EQ(header, want);
    EXPECT_EQ(header.rfind("epoch,start_tick,", 0), 0u);
    EXPECT_NE(header.find(",nstid_lag"), std::string::npos);

    std::size_t r = 0;
    while (std::getline(rows, row)) {
        std::string cells;
        for (const StatsNode &col : series.children())
            cells += (cells.empty() ? "" : ",") +
                     std::to_string(col.children()[r].uintValue());
        EXPECT_EQ(row, cells) << "row " << r;
        ++r;
    }
    EXPECT_EQ(r, m->rows());
    EXPECT_GT(r, 0u);
}

} // namespace
} // namespace tcc
