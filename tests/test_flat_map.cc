/**
 * @file
 * FlatMap correctness: a randomized property test against the
 * std::unordered_map reference for every
 * operation the simulator uses, plus golden end-to-end runs proving
 * the container swap left the protocol's observable behavior
 * bit-identical to the seed implementation.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flat_map.hh"
#include "core/system.hh"
#include "sim/random.hh"
#include "workload/scripted_source.hh"
#include "workload/registry.hh"

namespace tcc {
namespace {

// ---------------------------------------------------------------------
// Property tests vs the standard containers.
// ---------------------------------------------------------------------

class FlatMapProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FlatMapProperty, MatchesUnorderedMap)
{
    Rng rng(GetParam());
    FlatMap<std::uint64_t, std::uint64_t> fm;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;

    // Key space small enough that erases and overwrites actually hit,
    // large enough to force several rehashes.
    const std::uint64_t keySpace = 512;
    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t key = rng.below(keySpace) * 4;
        const double roll = rng.uniform();
        if (roll < 0.45) {
            const std::uint64_t val = rng.next();
            fm[key] = val;
            ref[key] = val;
        } else if (roll < 0.6) {
            const std::uint64_t val = rng.next();
            auto [it, inserted] = fm.emplace(key, val);
            auto [rit, rinserted] = ref.emplace(key, val);
            ASSERT_EQ(inserted, rinserted) << "key " << key;
            ASSERT_EQ(it->second, rit->second);
        } else if (roll < 0.75) {
            ASSERT_EQ(fm.erase(key), ref.erase(key)) << "key " << key;
        } else if (roll < 0.9) {
            auto it = fm.find(key);
            auto rit = ref.find(key);
            ASSERT_EQ(it != fm.end(), rit != ref.end())
                << "key " << key;
            if (it != fm.end()) {
                ASSERT_EQ(it->second, rit->second);
            }
            ASSERT_EQ(fm.contains(key), ref.count(key) == 1);
        } else if (roll < 0.97) {
            // += through operator[], the directory/write-buffer idiom.
            fm[key] += 3;
            ref[key] += 3;
        } else {
            fm.clear();
            ref.clear();
        }
        ASSERT_EQ(fm.size(), ref.size());
    }

    // Full-content comparison in both directions.
    std::unordered_map<std::uint64_t, std::uint64_t> seen;
    for (const auto &[k, v] : fm)
        ASSERT_TRUE(seen.emplace(k, v).second)
            << "duplicate key in iteration: " << k;
    ASSERT_EQ(seen.size(), ref.size());
    for (const auto &[k, v] : ref) {
        auto it = seen.find(k);
        ASSERT_NE(it, seen.end()) << "missing key " << k;
        ASSERT_EQ(it->second, v) << "wrong value for key " << k;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatMapProperty,
                         ::testing::Values(1, 2, 3, 42));

TEST(FlatMap, EraseDuringIteration)
{
    FlatMap<std::uint64_t, int> fm;
    for (std::uint64_t k = 0; k < 100; ++k)
        fm[k] = static_cast<int>(k);
    // Erase every even key through the iterator-returning erase.
    for (auto it = fm.begin(); it != fm.end();) {
        if (it->first % 2 == 0)
            it = fm.erase(it);
        else
            ++it;
    }
    EXPECT_EQ(fm.size(), 50u);
    for (std::uint64_t k = 0; k < 100; ++k)
        EXPECT_EQ(fm.contains(k), k % 2 == 1) << "key " << k;
}

TEST(FlatMap, ReserveAndGrowth)
{
    FlatMap<std::uint64_t, std::uint64_t> fm;
    fm.reserve(1000);
    for (std::uint64_t k = 0; k < 1000; ++k)
        fm[k * 64] = k;
    EXPECT_EQ(fm.size(), 1000u);
    for (std::uint64_t k = 0; k < 1000; ++k) {
        auto it = fm.find(k * 64);
        ASSERT_NE(it, fm.end());
        EXPECT_EQ(it->second, k);
    }
}

// ---------------------------------------------------------------------
// Golden runs: the container swap must not move a single simulated
// cycle, message, or byte relative to the seed (std::unordered_map)
// implementation. The constants below were captured from the seed
// build immediately before the swap.
// ---------------------------------------------------------------------

struct GoldenFingerprint {
    std::uint64_t cycles, events, commits, violations;
    std::uint64_t messages, bytes, hops, dirEntries, footprint;
};

GoldenFingerprint
fingerprint(System &sys, const RunResult &res)
{
    GoldenFingerprint fp{};
    fp.cycles = res.cycles;
    fp.events = res.events;
    for (NodeId n = 0; n < sys.numProcs(); ++n) {
        fp.commits += sys.proc(n).stats().txnsCommitted;
        fp.violations += sys.proc(n).stats().violations;
        fp.dirEntries += sys.directory(n).numEntries();
    }
    const auto &ns = sys.network().stats();
    fp.messages = ns.messages;
    fp.bytes = ns.totalBytes;
    fp.hops = ns.totalHops;
    fp.footprint = sys.memory().footprint();
    return fp;
}

void
expectFingerprint(const GoldenFingerprint &got,
                  const GoldenFingerprint &want)
{
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.events, want.events);
    EXPECT_EQ(got.commits, want.commits);
    EXPECT_EQ(got.violations, want.violations);
    EXPECT_EQ(got.messages, want.messages);
    EXPECT_EQ(got.bytes, want.bytes);
    EXPECT_EQ(got.hops, want.hops);
    EXPECT_EQ(got.dirEntries, want.dirEntries);
    EXPECT_EQ(got.footprint, want.footprint);
}

TEST(FlatMapGolden, ScriptedConflictRunUnchanged)
{
    SystemConfig cfg;
    cfg.numProcs = 4;
    cfg.check.serial = true;
    cfg.check.invariants = true;
    System sys(cfg);
    std::vector<std::unique_ptr<ScriptedSource>> srcs;
    constexpr Addr kShared = 0x9000;
    for (std::uint32_t p = 0; p < cfg.numProcs; ++p) {
        auto src = std::make_unique<ScriptedSource>();
        const Addr priv = 0x100000 + static_cast<Addr>(p) * 0x10000;
        for (int t = 0; t < 6; ++t) {
            src->add({TxOp::compute(20 + 7 * p), TxOp::load(kShared),
                      TxOp::storeAdd(kShared, 1),
                      TxOp::store(priv + 8 * t, p * 100 + t)});
        }
        const Addr other =
            0x100000 +
            static_cast<Addr>((p + 1) % cfg.numProcs) * 0x10000;
        src->add({TxOp::compute(10), TxOp::load(other),
                  TxOp::load(other + 8),
                  TxOp::store(priv + 0x800, p)},
                 true);
        srcs.push_back(std::move(src));
    }
    for (NodeId p = 0; p < cfg.numProcs; ++p)
        sys.setSource(p, srcs[p].get());
    const RunResult res = sys.run();

    ASSERT_TRUE(res.completed);
    EXPECT_TRUE(res.serial.ok) << res.serial.error;
    EXPECT_TRUE(res.invariants.ok) << res.invariants.error;
    EXPECT_TRUE(res.quiesced);
    EXPECT_EQ(sys.memory().read(kShared), 24u);
    expectFingerprint(fingerprint(sys, res),
                      GoldenFingerprint{5047, 2005, 28, 25, 1011,
                                        13944, 750, 13, 29});
}

TEST(FlatMapGolden, SyntheticAppRunUnchanged)
{
    SystemConfig cfg;
    cfg.numProcs = 8;
    System sys(cfg);
    const WorkloadBundle bundle = makeWorkload(
        "water_spatial",
        WorkloadParams::parse("txns_per_phase=64,phases=2"), 7,
        cfg.numProcs);
    bundle.attach(sys);
    auto res = sys.run();

    ASSERT_TRUE(res.completed);
    expectFingerprint(fingerprint(sys, res),
                      GoldenFingerprint{185080, 50811, 128, 0, 10439,
                                        257016, 6670, 3277, 4265});
}

TEST(FlatMapGolden, SoloModeRunUnchanged)
{
    // Tiny caches force overflow virtualization; this run exercises
    // the canonical ascending-directory drain ordering in solo mode.
    SystemConfig cfg;
    cfg.numProcs = 4;
    cfg.check.serial = true;
    cfg.check.invariants = true;
    cfg.cache.l1Bytes = 128;
    cfg.cache.l1Assoc = 2;
    cfg.cache.l2Bytes = 1024;
    cfg.cache.l2Assoc = 4;
    System sys(cfg);
    std::vector<std::unique_ptr<ScriptedSource>> srcs;
    for (NodeId p = 0; p < 4; ++p) {
        auto src = std::make_unique<ScriptedSource>();
        for (int t = 0; t < 4; ++t) {
            std::vector<TxOp> ops;
            for (int k = 0; k < 20; ++k) {
                const Addr a =
                    0x90000000ull + 0x20 * ((t * 20 + k * 7) % 64) +
                    4 * p;
                ops.push_back(TxOp::load(a));
                ops.push_back(TxOp::storeAdd(a, 1));
            }
            src->add(std::move(ops));
        }
        srcs.push_back(std::move(src));
    }
    for (NodeId p = 0; p < 4; ++p)
        sys.setSource(p, srcs[p].get());
    const RunResult res = sys.run(2'000'000'000ull);

    ASSERT_TRUE(res.completed);
    EXPECT_TRUE(res.serial.ok) << res.serial.error;
    EXPECT_TRUE(res.invariants.ok) << res.invariants.error;
    expectFingerprint(fingerprint(sys, res),
                      GoldenFingerprint{17896, 4901, 16, 0, 2510,
                                        51056, 2618, 56, 224});
}

} // namespace
} // namespace tcc
