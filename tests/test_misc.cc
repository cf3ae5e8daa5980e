/**
 * @file
 * Unit tests for the remaining support modules: home mapping
 * (first-touch, interleave, explicit binding), the global store, the
 * serializability checker itself, message helpers, and the report
 * renderers.
 */

#include <gtest/gtest.h>

#include "check/serial_checker.hh"
#include "common/arena.hh"
#include "core/report.hh"
#include "mem/global_store.hh"
#include "mem/home_map.hh"
#include "noc/message.hh"

namespace tcc {
namespace {

// ---------------------------------------------------------------------
// HomeMap
// ---------------------------------------------------------------------

TEST(HomeMap, InterleaveIsPageModulo)
{
    HomeMap hm(4, HomePolicy::Interleave, 4096);
    EXPECT_EQ(hm.homeOf(0x0000, 9), 0u);
    EXPECT_EQ(hm.homeOf(0x1000, 9), 1u);
    EXPECT_EQ(hm.homeOf(0x4000, 9), 0u);
    EXPECT_EQ(hm.homeOf(0x1FFF, 9), 1u); // same page as 0x1000
}

TEST(HomeMap, FirstTouchBindsToToucher)
{
    HomeMap hm(4, HomePolicy::FirstTouch, 4096);
    EXPECT_EQ(hm.homeOf(0x5000, 2), 2u);
    // Later touches by other nodes see the original binding.
    EXPECT_EQ(hm.homeOf(0x5004, 3), 2u);
    EXPECT_EQ(hm.homeOf(0x5000), 2u);
}

TEST(HomeMap, ExplicitBindOverridesFirstTouch)
{
    HomeMap hm(4, HomePolicy::FirstTouch, 4096);
    hm.bind(0x8000, 3);
    EXPECT_EQ(hm.homeOf(0x8000, 0), 3u);
}

TEST(HomeMap, BindIsNoopUnderInterleave)
{
    HomeMap hm(4, HomePolicy::Interleave, 4096);
    hm.bind(0x1000, 3);
    EXPECT_EQ(hm.homeOf(0x1000, 0), 1u);
}

// ---------------------------------------------------------------------
// GlobalStore
// ---------------------------------------------------------------------

TEST(GlobalStore, DefaultsToZero)
{
    GlobalStore gs;
    EXPECT_EQ(gs.read(0x1234), 0u);
}

TEST(GlobalStore, WordAlignedReadWrite)
{
    GlobalStore gs;
    gs.write(0x1000, 99);
    EXPECT_EQ(gs.read(0x1000), 99u);
    EXPECT_EQ(gs.read(0x1002), 99u); // same word
    EXPECT_EQ(gs.read(0x1004), 0u);  // next word
    EXPECT_EQ(gs.footprint(), 1u);
}

TEST(GlobalStore, UntouchedWordOfAWrittenBlockReadsZero)
{
    GlobalStore gs;
    gs.write(0x2000, 5);
    EXPECT_EQ(gs.read(0x2004), 0u);
    EXPECT_EQ(gs.read(0x20FC), 0u); // last word of the same block
    EXPECT_EQ(gs.footprint(), 1u);
}

TEST(GlobalStore, WritingZeroCountsTowardTheFootprint)
{
    GlobalStore gs;
    const std::uint64_t empty = gs.fingerprint();
    gs.write(0x3000, 0);
    EXPECT_EQ(gs.read(0x3000), 0u);
    EXPECT_EQ(gs.footprint(), 1u);
    EXPECT_NE(gs.fingerprint(), empty);
    gs.write(0x3000, 0); // a rewrite is not a new word
    EXPECT_EQ(gs.footprint(), 1u);
}

TEST(GlobalStore, WordsStraddlingABlockBoundaryStayApart)
{
    // Words 63 and 64 (bytes 0xFC and 0x100) sit in adjacent blocks.
    GlobalStore gs;
    gs.write(63 * GlobalStore::kWordBytes, 63);
    gs.write(64 * GlobalStore::kWordBytes, 64);
    EXPECT_EQ(gs.read(0xFC), 63u);
    EXPECT_EQ(gs.read(0x100), 64u);
    EXPECT_EQ(gs.read(0xF8), 0u);
    EXPECT_EQ(gs.read(0x104), 0u);
    EXPECT_EQ(gs.footprint(), 2u);
}

TEST(GlobalStore, HighAddressesKeepTheirOwnBlocks)
{
    GlobalStore gs;
    gs.write(0x1'0000'0000, 1);
    gs.write(0xF'0000'0000, 15);
    gs.write(0x0, 7);
    EXPECT_EQ(gs.read(0x1'0000'0000), 1u);
    EXPECT_EQ(gs.read(0xF'0000'0000), 15u);
    EXPECT_EQ(gs.read(0x0), 7u);
    EXPECT_EQ(gs.read(0x2'0000'0000), 0u);
    EXPECT_EQ(gs.footprint(), 3u);
    std::size_t seen = 0;
    gs.forEach([&](Addr a, std::uint64_t v) {
        ++seen;
        EXPECT_EQ(gs.read(a), v);
    });
    EXPECT_EQ(seen, 3u);
}

TEST(GlobalStore, BlockSwitchesAndCopyFromKeepValues)
{
    GlobalStore gs;
    EXPECT_EQ(gs.read(0x5000), 0u); // no block here yet
    gs.write(0x5004, 9);            // ... which this write creates
    EXPECT_EQ(gs.read(0x5004), 9u);
    EXPECT_EQ(gs.read(0x9000), 0u); // switch to an absent block
    gs.write(0x5008, 10);           // back to the first one
    EXPECT_EQ(gs.read(0x5004), 9u);
    EXPECT_EQ(gs.read(0x5008), 10u);
    gs.write(0x9000, 11);
    EXPECT_EQ(gs.read(0x5004), 9u);
    EXPECT_EQ(gs.read(0x9000), 11u);

    // copyFrom zeroes the blocks already held and rewrites them.
    GlobalStore other;
    other.write(0x5004, 90);
    gs.copyFrom(other);
    EXPECT_EQ(gs.read(0x5004), 90u);
    EXPECT_EQ(gs.read(0x5008), 0u);
    EXPECT_EQ(gs.read(0x9000), 0u);
    EXPECT_EQ(gs.footprint(), 1u);
}

/** A fixed pseudo-random write sequence over two high 64 KiB regions,
 *  every eighth value zero. */
void
writeXorshiftSequence(GlobalStore &gs)
{
    std::uint64_t x = 0x2545f4914f6cdd1dull;
    for (int i = 0; i < 4096; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const Addr base = (x >> 60) < 4 ? Addr{0xF'0000'0000}
                                        : Addr{0x1'0000'0000};
        gs.write(base + ((x >> 8) & 0x3FFF) * 4,
                 (x & 7) == 0 ? 0 : x >> 20);
    }
}

TEST(GlobalStore, CopyFromAndApplyKeepTheFingerprint)
{
    GlobalStore gs;
    writeXorshiftSequence(gs);

    GlobalStore copy;
    copy.write(0x40, 1); // replaced by the copy
    copy.copyFrom(gs);
    EXPECT_EQ(copy.footprint(), gs.footprint());
    EXPECT_EQ(copy.fingerprint(), gs.fingerprint());

    GlobalStore replayed;
    gs.forEach([&](Addr a, std::uint64_t v) { replayed.apply(a, v); });
    EXPECT_EQ(replayed.footprint(), gs.footprint());
    EXPECT_EQ(replayed.fingerprint(), gs.fingerprint());
}

TEST(GlobalStore, FingerprintPin)
{
    // The digest is a function of the (address, value) image alone,
    // whatever the store's layout.
    Arena arena;
    GlobalStore gs(&arena);
    writeXorshiftSequence(gs);
    EXPECT_EQ(gs.footprint(), 3804u);
    EXPECT_EQ(gs.fingerprint(), 0x1b47652b342f2277ull);
}

// ---------------------------------------------------------------------
// SerialChecker
// ---------------------------------------------------------------------

TEST(SerialChecker, EmptyLogVerifies)
{
    SerialChecker c;
    EXPECT_TRUE(c.verify().ok);
}

TEST(SerialChecker, ConsistentChainPasses)
{
    SerialChecker c;
    c.record(0, 0, {}, {{0x100, 1}});
    c.record(1, 1, {{0x100, 1}}, {{0x100, 2}});
    c.record(2, 0, {{0x100, 2}}, {{0x200, 7}});
    auto r = c.verify();
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.txnsChecked, 3u);
}

TEST(SerialChecker, StaleReadDetected)
{
    SerialChecker c;
    c.record(0, 0, {}, {{0x100, 1}});
    c.record(1, 1, {{0x100, 0}}, {{0x100, 2}}); // read missed TID 0
    EXPECT_FALSE(c.verify().ok);
}

TEST(SerialChecker, DuplicateTidDetected)
{
    SerialChecker c;
    c.record(5, 0, {}, {{0x100, 1}});
    c.record(5, 1, {}, {{0x100, 2}});
    auto r = c.verify();
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("duplicate"), std::string::npos);
}

TEST(SerialChecker, OutOfOrderRecordingIsFine)
{
    // Commits are recorded in wall-clock order, which need not match
    // TID order; the checker must sort.
    SerialChecker c;
    c.record(1, 1, {{0x100, 1}}, {{0x100, 2}});
    c.record(0, 0, {}, {{0x100, 1}});
    EXPECT_TRUE(c.verify().ok);
}

TEST(SerialChecker, InitialStateRespected)
{
    SerialChecker c;
    c.setInitial(0x100, 50);
    c.record(0, 0, {{0x100, 50}}, {{0x100, 51}});
    EXPECT_TRUE(c.verify().ok);
    GlobalStore final_state;
    c.replayFinalState(final_state);
    EXPECT_EQ(final_state.read(0x100), 51u);
}

TEST(SerialChecker, GapsInTidsAreFine)
{
    // Aborted attempts consume TIDs; the committed sequence has gaps.
    SerialChecker c;
    c.record(0, 0, {}, {{0x100, 1}});
    c.record(7, 1, {{0x100, 1}}, {{0x100, 2}});
    EXPECT_TRUE(c.verify().ok);
}

// ---------------------------------------------------------------------
// Message helpers
// ---------------------------------------------------------------------

TEST(Message, SizesDependOnClass)
{
    EXPECT_EQ(msgBytes(MsgType::Skip, 32), 8u);
    EXPECT_EQ(msgBytes(MsgType::LoadReq, 32), 16u);
    EXPECT_EQ(msgBytes(MsgType::LoadReply, 32), 48u);
    EXPECT_EQ(msgBytes(MsgType::WriteBack, 64), 80u);
}

TEST(Message, TrafficClassMapping)
{
    EXPECT_EQ(trafficClassOf(MsgType::LoadReq), TrafficClass::Miss);
    EXPECT_EQ(trafficClassOf(MsgType::LoadReply), TrafficClass::Miss);
    EXPECT_EQ(trafficClassOf(MsgType::WriteBack),
              TrafficClass::WriteBack);
    EXPECT_EQ(trafficClassOf(MsgType::DataReq), TrafficClass::Shared);
    EXPECT_EQ(trafficClassOf(MsgType::FlushData),
              TrafficClass::Shared);
    EXPECT_EQ(trafficClassOf(MsgType::Skip), TrafficClass::Overhead);
    EXPECT_EQ(trafficClassOf(MsgType::Probe), TrafficClass::Overhead);
}

TEST(Message, NamesAreStable)
{
    EXPECT_STREQ(msgTypeName(MsgType::Commit), "Commit");
    EXPECT_STREQ(msgTypeName(MsgType::PartialCommit), "PartialCommit");
    Message m;
    m.type = MsgType::Mark;
    m.src = 1;
    m.dst = 2;
    m.addr = 0x40;
    m.tid = 7;
    EXPECT_NE(m.toString().find("Mark"), std::string::npos);
}

// ---------------------------------------------------------------------
// Report renderers
// ---------------------------------------------------------------------

TEST(Report, BreakdownFractionsSumToOne)
{
    Breakdown bd;
    bd.useful = 50;
    bd.miss = 30;
    bd.commit = 10;
    bd.idle = 5;
    bd.violation = 5;
    EXPECT_EQ(bd.total(), 100u);
    const double sum =
        bd.fraction(bd.useful) + bd.fraction(bd.miss) +
        bd.fraction(bd.commit) + bd.fraction(bd.idle) +
        bd.fraction(bd.violation);
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Report, EmptyBreakdownIsSafe)
{
    Breakdown bd;
    EXPECT_EQ(bd.total(), 0u);
    EXPECT_DOUBLE_EQ(bd.fraction(bd.useful), 0.0);
    // Renders without dividing by zero.
    auto row = breakdownRow("empty", bd);
    EXPECT_FALSE(row.empty());
}

TEST(Report, RowsContainAppName)
{
    AppCharacterization c;
    c.name = "myapp";
    c.txnSize90 = 1234;
    auto row = table3Row(c);
    EXPECT_NE(row.find("myapp"), std::string::npos);

    TrafficRow t;
    t.name = "myapp";
    t.miss = 0.5;
    EXPECT_NE(trafficRowText(t).find("myapp"), std::string::npos);
    EXPECT_DOUBLE_EQ(t.total(), 0.5);
}

} // namespace
} // namespace tcc
