/**
 * @file
 * Tests for the workload registry: name catalog, parameter parsing
 * and overrides, bundle round-trips, a golden Table-3 run, and
 * attaching a data-structure workload to the bus baseline.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "busbaseline/bus_tcc.hh"
#include "core/system.hh"
#include "workload/registry.hh"
#include "workload/synthetic_app.hh"

namespace tcc {
namespace {

TEST(Registry, CatalogHasAllWorkloads)
{
    const auto names = workloadNames();
    // Eleven Table-3 apps plus the five data-structure workloads.
    EXPECT_EQ(names.size(), 16u);
    for (const char *name :
         {"barnes", "cluster_ga", "equake", "radix", "specjbb",
          "svm_classify", "swim", "tomcatv", "volrend",
          "water_nsquared", "water_spatial", "ds_map", "ds_set",
          "ds_queue", "ds_bank", "ds_flash"}) {
        EXPECT_TRUE(isWorkload(name)) << name;
        EXPECT_NE(std::find(names.begin(), names.end(), name),
                  names.end())
            << name;
    }
    EXPECT_FALSE(isWorkload("no_such_workload"));
    EXPECT_FALSE(isWorkload(""));
}

TEST(Registry, CatalogMatchesAppProfiles)
{
    // Every Table-3 profile is reachable by name through the registry,
    // under the "table3" kind, in the table's order.
    std::vector<std::string> table3;
    for (const auto &info : workloadInfos())
        if (info.kind == "table3")
            table3.push_back(info.name);
    ASSERT_EQ(table3.size(), appProfiles().size());
    for (std::size_t i = 0; i < table3.size(); ++i)
        EXPECT_EQ(table3[i], appProfiles()[i].name);
}

TEST(Registry, ParamsParse)
{
    const WorkloadParams p =
        WorkloadParams::parse("theta=0.99,mix=write_heavy");
    ASSERT_EQ(p.overrides.size(), 2u);
    EXPECT_EQ(p.overrides[0].first, "theta");
    EXPECT_EQ(p.overrides[0].second, "0.99");
    EXPECT_EQ(p.overrides[1].first, "mix");
    EXPECT_EQ(p.overrides[1].second, "write_heavy");
    EXPECT_TRUE(WorkloadParams::parse("").overrides.empty());
}

TEST(RegistryDeathTest, UnknownNameAndKeyAreFatal)
{
    EXPECT_DEATH(makeWorkload("no_such_workload", {}, 1, 4),
                 "unknown workload");
    WorkloadParams bad;
    bad.set("definitely_not_a_knob", "1");
    EXPECT_DEATH(makeWorkload("ds_map", bad, 1, 4),
                 "unknown override key");
}

TEST(Registry, BundleRoundTripAllNames)
{
    WorkloadParams clamp;
    clamp.set("max_txns_per_phase", "16");
    for (const auto &name : workloadNames()) {
        const WorkloadBundle b = makeWorkload(name, clamp, 1, 4);
        EXPECT_EQ(b.name, name);
        EXPECT_EQ(b.sources.size(), 4u) << name;
        EXPECT_FALSE(b.footprint.regions.empty()) << name;
        EXPECT_GT(b.footprint.expectedTxns, 0u) << name;
        EXPECT_GT(b.footprint.dataWords, 0u) << name;
    }
}

TEST(Registry, OverridesReachTheWorkload)
{
    WorkloadParams wl;
    wl.set("keys", "64").set("txns_per_phase", "32");
    const WorkloadBundle b = makeWorkload("ds_map", wl, 1, 4);
    ASSERT_NE(b.layout(), nullptr);
    EXPECT_EQ(b.layout()->numKeys(), 64u);
    EXPECT_EQ(b.footprint.expectedTxns, 32u);
    // Synthetic apps have no key layout.
    EXPECT_EQ(makeWorkload("radix", {}, 1, 4).layout(), nullptr);
}

TEST(Registry, MatchesGoldenRadixRun)
{
    // A registry-built Table-3 run reproduces the run of the retired
    // appProfile() + setupApp() construction path bit for bit: same
    // regions in the same bind order, same per-processor sources. The
    // golden values were captured from that path.
    constexpr std::uint32_t procs = 8;
    SystemConfig cfg;
    cfg.numProcs = procs;
    System sys(cfg);
    const WorkloadBundle b = makeWorkload(
        "radix", WorkloadParams::parse("phases=1,txns_per_phase=64"),
        /*seed=*/1, procs);
    b.attach(sys);
    const RunResult r = sys.run();

    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.cycles, 594968u);
    EXPECT_EQ(r.committedTxns, 64u);
    EXPECT_EQ(r.violations, 17u);
    EXPECT_EQ(sys.memory().fingerprint(), 0xfc7611869fb23d9full);
}

TEST(Registry, DataStructOnBusBaseline)
{
    // The bundle attaches to the bus baseline unchanged (no page
    // homing) and the bank invariant holds there too.
    BusConfig cfg;
    cfg.numProcs = 4;
    BusTcc bus(cfg);
    WorkloadParams wl;
    wl.set("max_txns_per_phase", "64");
    const WorkloadBundle b = makeWorkload("ds_bank", wl, 3, 4);
    b.attach(bus);

    std::uint64_t expected = 0;
    for (const auto &[addr, value] : b.initialWords)
        if (b.keyOf(addr) >= 0)
            expected += value;

    const RunResult res = bus.run();
    EXPECT_TRUE(res.completed);
    EXPECT_TRUE(res.quiesced);
    EXPECT_GT(res.committedTxns, 0u);
    EXPECT_GT(b.committedOps(), 0u);

    std::uint64_t actual = 0;
    for (const auto &[addr, value] : b.initialWords)
        if (b.keyOf(addr) >= 0)
            actual += bus.memory().read(addr);
    EXPECT_EQ(actual, expected);
}

TEST(Registry, SameInputsSameBundle)
{
    WorkloadParams wl;
    wl.set("max_txns_per_phase", "16");
    const WorkloadBundle a = makeWorkload("ds_set", wl, 5, 4);
    const WorkloadBundle b = makeWorkload("ds_set", wl, 5, 4);
    ASSERT_EQ(a.initialWords.size(), b.initialWords.size());
    for (std::size_t i = 0; i < a.initialWords.size(); ++i)
        EXPECT_EQ(a.initialWords[i], b.initialWords[i]);
    ASSERT_EQ(a.sources.size(), b.sources.size());
    for (std::size_t p = 0; p < a.sources.size(); ++p) {
        auto ta = a.sources[p]->nextTransaction();
        auto tb = b.sources[p]->nextTransaction();
        ASSERT_EQ(ta.has_value(), tb.has_value());
        if (!ta)
            continue;
        ASSERT_EQ(ta->ops.size(), tb->ops.size());
        for (std::size_t k = 0; k < ta->ops.size(); ++k)
            EXPECT_EQ(ta->ops[k].addr, tb->ops[k].addr);
    }
}

} // namespace
} // namespace tcc
