/**
 * @file
 * Unit tests for the remaining support modules: home mapping
 * (first-touch, interleave, explicit binding), the global store, the
 * serializability checker itself, message helpers, and the report
 * renderers.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <random>
#include <set>

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

TEST(SerialChecker, ReleasedTidLetsTheReplayPass)
{
    // Records wait for every lower TID to settle; a release settles
    // one that will never commit.
    SerialChecker c;
    c.record(1, 0, {}, {{0x100, 1}});
    c.record(2, 1, {{0x100, 1}}, {});
    c.record(3, 0, {}, {});
    EXPECT_EQ(c.pendingHighWater(), 3u);
    c.release(0);
    c.record(4, 1, {}, {});
    EXPECT_EQ(c.pendingHighWater(), 3u); // 1-3 replayed on the release
    const auto r = c.verify();
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.txnsChecked, 4u);
}

TEST(SerialChecker, RecordAfterReleaseDetected)
{
    SerialChecker c;
    c.release(0);
    c.record(0, 2, {}, {{0x100, 1}});
    const auto r = c.verify();
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("released"), std::string::npos) << r.error;
}

/** One event of a commit stream: a record or a release. */
struct StreamEvent {
    bool release = false;
    Tid tid = 0;
    NodeId proc = 0;
    SerialChecker::Log reads;
    SerialChecker::Log writes;
};

/** The verdict by sorting: settle each TID by its first event (later
 *  records are a duplicate or a record after the release, later
 *  releases are ignored), then replay in TID order and stop at the
 *  first failure. */
SerialChecker::Result
sortAndReplay(const std::map<Addr, std::uint64_t> &initial,
              const std::vector<StreamEvent> &events)
{
    std::map<Tid, const StreamEvent *> first;
    std::set<Tid> duplicates;
    std::set<Tid> afterRelease;
    for (const StreamEvent &e : events) {
        const auto [it, fresh] = first.emplace(e.tid, &e);
        if (fresh || e.release)
            continue;
        (it->second->release ? afterRelease : duplicates).insert(e.tid);
    }
    std::map<Addr, std::uint64_t> model = initial;
    SerialChecker::Result res;
    char buf[160];
    const auto failed = [&] {
        res.ok = false;
        res.error = buf;
        return res;
    };
    for (const auto &[tid, e] : first) {
        if (afterRelease.count(tid)) {
            std::snprintf(buf, sizeof(buf),
                          "TID %llu committed after it was released",
                          (unsigned long long)tid);
            return failed();
        }
        if (e->release)
            continue;
        for (const auto &[addr, seen] : e->reads) {
            if (seen != model[addr]) {
                std::snprintf(buf, sizeof(buf),
                              "TID %llu (proc %u) read %llx=%llu but "
                              "serial replay expects %llu",
                              (unsigned long long)tid, e->proc,
                              (unsigned long long)addr,
                              (unsigned long long)seen,
                              (unsigned long long)model[addr]);
                return failed();
            }
        }
        for (const auto &[addr, value] : e->writes)
            model[addr] = value;
        if (duplicates.count(tid)) {
            std::snprintf(buf, sizeof(buf),
                          "duplicate TID %llu committed twice",
                          (unsigned long long)tid);
            return failed();
        }
        ++res.txnsChecked;
    }
    return res;
}

TEST(SerialChecker, StreamMatchesSortAndReplay)
{
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        SCOPED_TRACE(seed);
        std::mt19937_64 rng(seed);
        const auto pick = [&](std::uint64_t n) { return rng() % n; };
        const auto word = [&] { return Addr{0x100} + 4 * pick(12); };

        std::map<Addr, std::uint64_t> initial;
        for (int i = 0; i < 4; ++i)
            initial[word()] = pick(100);

        // A serial execution in TID order; most TIDs commit, some
        // abort (released) and a few are never settled (gaps).
        const Tid num_tids = 20 + pick(60);
        std::map<Addr, std::uint64_t> state = initial;
        std::vector<StreamEvent> events;
        std::vector<std::size_t> commits;
        for (Tid t = 0; t < num_tids; ++t) {
            StreamEvent e;
            e.tid = t;
            e.proc = static_cast<NodeId>(pick(8));
            const std::uint64_t kind = pick(100);
            if (kind < 3)
                continue; // gap
            if (kind < 28) {
                e.release = true;
            } else {
                for (std::uint64_t i = pick(4); i > 0; --i) {
                    const Addr a = word();
                    e.reads.emplace_back(a, state[a]);
                }
                for (std::uint64_t i = 1 + pick(2); i > 0; --i) {
                    const Addr a = word();
                    e.writes.emplace_back(a, pick(1000));
                    state[a] = e.writes.back().second;
                }
                commits.push_back(events.size());
            }
            events.push_back(std::move(e));
        }
        ASSERT_FALSE(commits.empty());

        // Plant one stale read.
        StreamEvent &victim = events[commits[pick(commits.size())]];
        if (victim.reads.empty())
            victim.reads.emplace_back(word(), 0);
        victim.reads[pick(victim.reads.size())].second += 1 + pick(5);

        // Arrival order: each event moves a bounded random distance.
        for (std::size_t i = 0; i + 1 < events.size(); ++i)
            std::swap(events[i], events[i + pick(std::min<std::size_t>(
                                         6, events.size() - i))]);

        // One duplicate record and, in half the logs, a record for a
        // released TID, each arriving after the TID's first event.
        const auto arriveLater = [&](StreamEvent e) {
            std::size_t at = 0;
            while (events[at].tid != e.tid)
                ++at;
            events.insert(events.begin() + at + 1 +
                              pick(events.size() - at),
                          std::move(e));
        };
        for (std::size_t at = pick(events.size());; at = pick(events.size())) {
            if (!events[at].release) {
                StreamEvent dup = events[at];
                dup.proc = 99;
                arriveLater(std::move(dup));
                break;
            }
        }
        if (pick(2)) {
            for (const StreamEvent &e : events) {
                if (e.release) {
                    StreamEvent late = e;
                    late.release = false;
                    late.writes.emplace_back(word(), 5);
                    arriveLater(std::move(late));
                    break;
                }
            }
        }

        const SerialChecker::Result expect = sortAndReplay(initial, events);
        SerialChecker c;
        for (const auto &[addr, value] : initial)
            c.setInitial(addr, value);
        for (const StreamEvent &e : events) {
            if (e.release)
                c.release(e.tid);
            else
                c.record(e.tid, e.proc, e.reads, e.writes);
        }
        for (int pass = 0; pass < 2; ++pass) { // verify() is repeatable
            const SerialChecker::Result got = c.verify();
            EXPECT_EQ(got.ok, expect.ok);
            EXPECT_EQ(got.error, expect.error);
            EXPECT_EQ(got.txnsChecked, expect.txnsChecked);
        }
    }
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
