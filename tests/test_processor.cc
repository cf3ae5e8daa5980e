/**
 * @file
 * Direct unit tests of the TccProcessor commit engine: how early
 * (TID-less) probe answers, NSTID replies and duplicates move a commit
 * through its per-directory table, when the Commit goes out, and the
 * probe round trips its ledger record reports.
 *
 * The processor runs one scripted transaction over an IdealNetwork; a
 * fixture captures everything it sends to each node, plays the TID
 * vendor and the directories by hand, and feeds their replies straight
 * into TccProcessor::receive.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/arena.hh"
#include "mem/global_store.hh"
#include "mem/home_map.hh"
#include "noc/network.hh"
#include "obs/tx_ledger.hh"
#include "proc/processor.hh"
#include "sim/event_queue.hh"
#include "workload/scripted_source.hh"

namespace tcc {
namespace {

class ProcessorTest : public ::testing::Test
{
  protected:
    static constexpr std::uint32_t kNodes = 4;
    static constexpr NodeId kProc = 3;
    static constexpr Tid kTid = 5;
    // Interleaved 4 KiB pages: page p is homed at directory p % 4.
    static constexpr Addr kRead = 0x4000;   // dir 0, share-only
    static constexpr Addr kWrite1a = 0x1000; // dir 1
    static constexpr Addr kWrite1b = 0x1040; // dir 1, second line
    static constexpr Addr kWrite2 = 0x2000;  // dir 2

    ProcessorTest()
        : net(eq, kNodes), homes(kNodes, HomePolicy::Interleave),
          proc(kProc, kNodes, eq, net, homes, store, CacheConfig{},
               ProcessorConfig{}, /*vendor_node=*/0, &arena)
    {
        for (NodeId n = 0; n < kNodes; ++n) {
            net.connect(n, [this, n](const Message &m) {
                inbox[n].push_back(m);
            });
        }
        src.add({TxOp::load(kRead), TxOp::store(kWrite1a, 1),
                 TxOp::store(kWrite1b, 2), TxOp::store(kWrite2, 3)});
        proc.setSource(&src);
        proc.setLedger(&ledger);
        proc.start();
        run();
    }

    /** Run the queue dry, answering every LoadReq with its line. */
    void
    run()
    {
        eq.run();
        for (bool served = true; served;) {
            served = false;
            for (NodeId n = 0; n < kNodes; ++n) {
                for (const Message &req : take(n, MsgType::LoadReq)) {
                    Message r;
                    r.type = MsgType::LoadReply;
                    r.src = n;
                    r.dst = kProc;
                    r.addr = req.addr;
                    r.seq = req.seq;
                    deliver(r);
                    served = true;
                }
            }
        }
    }

    /** Hand @p msg to the processor and run the queue dry. */
    void
    deliver(const Message &msg)
    {
        deliveredAt = eq.now();
        proc.receive(msg);
        eq.run();
    }

    /** Let @p cycles pass with nothing delivered. */
    void
    advance(Tick cycles)
    {
        eq.schedule(cycles, [] {});
        eq.run();
    }

    void
    grantTid()
    {
        ASSERT_EQ(take(0, MsgType::TidReq).size(), 1u);
        Message r;
        r.type = MsgType::TidReply;
        r.src = 0;
        r.dst = kProc;
        r.tid = kTid;
        deliver(r);
    }

    /** A ProbeReply from @p dir: @p tid is the probe's (kInvalidTid
     *  for an early probe), @p nstid what the directory serves. */
    void
    probeReply(NodeId dir, Tid tid, Tid nstid)
    {
        Message r;
        r.type = MsgType::ProbeReply;
        r.src = dir;
        r.dst = kProc;
        r.tid = tid;
        r.nstid = nstid;
        deliver(r);
    }

    /** Pop all messages of a given type delivered to @p node. */
    std::vector<Message>
    take(NodeId node, MsgType t)
    {
        std::vector<Message> out;
        auto &box = inbox[node];
        for (auto it = box.begin(); it != box.end();) {
            if (it->type == t) {
                out.push_back(*it);
                it = box.erase(it);
            } else {
                ++it;
            }
        }
        return out;
    }

    /** Take the probes sent to @p dir, checking they carry kTid. */
    std::vector<Message>
    tidProbes(NodeId dir)
    {
        auto probes = take(dir, MsgType::Probe);
        for (const Message &p : probes)
            EXPECT_EQ(p.tid, kTid);
        return probes;
    }

    bool
    inboxesEmpty() const
    {
        for (const auto &[n, box] : inbox)
            if (!box.empty())
                return false;
        return true;
    }

    /** After the TID: Skip to the two nodes outside writingVec. */
    void
    expectSkips()
    {
        for (NodeId n : {NodeId{0}, NodeId{3}}) {
            const auto skips = take(n, MsgType::Skip);
            ASSERT_EQ(skips.size(), 1u) << "node " << n;
            EXPECT_EQ(skips[0].tid, kTid);
        }
    }

    Arena arena;
    EventQueue eq;
    IdealNetwork net;
    HomeMap homes;
    GlobalStore store;
    ScriptedSource src;
    TccProcessor proc;
    TxLedger ledger;
    std::map<NodeId, std::vector<Message>> inbox;
    /** The tick of the last deliver(). */
    Tick deliveredAt = 0;
};

TEST_F(ProcessorTest, EarlyProbesGoToTheTouchedDirectories)
{
    // Execution done: a TID request and one TID-less probe per
    // directory, writing ones with wantWrite.
    for (NodeId d : {NodeId{0}, NodeId{1}, NodeId{2}}) {
        const auto probes = take(d, MsgType::Probe);
        ASSERT_EQ(probes.size(), 1u) << "dir " << d;
        EXPECT_EQ(probes[0].tid, kInvalidTid);
        EXPECT_EQ(probes[0].wantWrite, d != 0);
    }
    EXPECT_TRUE(take(3, MsgType::Probe).empty());
}

TEST_F(ProcessorTest, EarlyReplyFromOutsideTheVectorsIsIgnored)
{
    for (NodeId d = 0; d < 3; ++d)
        take(d, MsgType::Probe);
    // Directory 3 is in neither vector; a TID-less answer from it
    // (a rolled-back attempt's) must not count for anything, before
    // or after the TID arrives.
    probeReply(3, kInvalidTid, kTid);
    EXPECT_TRUE(inbox[3].empty());
    grantTid();
    expectSkips();
    probeReply(3, kInvalidTid, kTid + 1);
    EXPECT_TRUE(inbox[3].empty());
    // Nothing early-answered: every directory gets a real probe.
    for (NodeId d = 0; d < 3; ++d)
        EXPECT_EQ(tidProbes(d).size(), 1u) << "dir " << d;
    EXPECT_TRUE(inboxesEmpty());
    EXPECT_EQ(proc.stats().txnsCommitted, 0u);
}

TEST_F(ProcessorTest, EarlyNstidEqualToTidSendsMarksWithoutReprobe)
{
    for (NodeId d = 0; d < 3; ++d)
        take(d, MsgType::Probe);
    probeReply(1, kInvalidTid, kTid);
    probeReply(0, kInvalidTid, kTid);
    grantTid();
    expectSkips();
    const auto marks = take(1, MsgType::Mark);
    ASSERT_EQ(marks.size(), 2u);
    EXPECT_EQ(marks[0].addr, kWrite1a);
    EXPECT_EQ(marks[1].addr, kWrite1b);
    EXPECT_TRUE(tidProbes(1).empty());
    // The share-only directory already serves kTid: validated as is.
    EXPECT_TRUE(tidProbes(0).empty());
    // Directory 2 never answered early.
    EXPECT_EQ(tidProbes(2).size(), 1u);
    EXPECT_TRUE(inboxesEmpty());
}

TEST_F(ProcessorTest, NstidBehindTidReprobes)
{
    for (NodeId d = 0; d < 3; ++d)
        take(d, MsgType::Probe);
    probeReply(2, kInvalidTid, kTid - 1);
    probeReply(0, kInvalidTid, kTid - 1);
    grantTid();
    expectSkips();
    const auto w = tidProbes(2);
    ASSERT_EQ(w.size(), 1u);
    EXPECT_TRUE(w[0].wantWrite);
    const auto r = tidProbes(0);
    ASSERT_EQ(r.size(), 1u);
    EXPECT_FALSE(r[0].wantWrite);
    EXPECT_TRUE(take(2, MsgType::Mark).empty());
    // A late TID-less answer that is still behind probes again.
    probeReply(2, kInvalidTid, kTid - 1);
    EXPECT_EQ(tidProbes(2).size(), 1u);
    EXPECT_TRUE(take(2, MsgType::Mark).empty());
}

TEST_F(ProcessorTest, DuplicateReplyAfterMarksSendsNothing)
{
    grantTid();
    for (NodeId d = 0; d < 3; ++d)
        take(d, MsgType::Probe);
    expectSkips();
    probeReply(1, kTid, kTid);
    EXPECT_EQ(take(1, MsgType::Mark).size(), 2u);
    EXPECT_TRUE(inboxesEmpty());
    probeReply(1, kTid, kTid);
    probeReply(1, kInvalidTid, kTid);
    EXPECT_TRUE(inboxesEmpty());
    EXPECT_EQ(proc.stats().txnsCommitted, 0u);
}

TEST_F(ProcessorTest, CommitWaitsForTheLastWriteAndShareOnlyDirectory)
{
    grantTid();
    for (NodeId d = 0; d < 3; ++d)
        take(d, MsgType::Probe);
    expectSkips();
    probeReply(1, kTid, kTid);
    probeReply(0, kTid, kTid);
    EXPECT_EQ(take(1, MsgType::Mark).size(), 2u);
    EXPECT_TRUE(inboxesEmpty()) << "committed before directory 2";
    probeReply(2, kTid, kTid);
    EXPECT_EQ(take(2, MsgType::Mark).size(), 1u);
    const auto c1 = take(1, MsgType::Commit);
    const auto c2 = take(2, MsgType::Commit);
    ASSERT_EQ(c1.size(), 1u);
    ASSERT_EQ(c2.size(), 1u);
    EXPECT_EQ(c1[0].numMarks, 2u);
    EXPECT_EQ(c2[0].numMarks, 1u);
    EXPECT_EQ(proc.stats().txnsCommitted, 1u);
    EXPECT_EQ(store.read(kWrite2), 3u);
}

TEST_F(ProcessorTest, CommitWaitsForTheLastShareOnlyDirectory)
{
    grantTid();
    for (NodeId d = 0; d < 3; ++d)
        take(d, MsgType::Probe);
    expectSkips();
    probeReply(2, kTid, kTid);
    probeReply(1, kTid, kTid);
    EXPECT_EQ(take(1, MsgType::Mark).size(), 2u);
    EXPECT_EQ(take(2, MsgType::Mark).size(), 1u);
    EXPECT_TRUE(inboxesEmpty()) << "committed before directory 0";
    // A read probe reply behind the TID re-probes, then validates.
    probeReply(0, kInvalidTid, kTid - 1);
    EXPECT_EQ(tidProbes(0).size(), 1u);
    EXPECT_TRUE(inboxesEmpty());
    probeReply(0, kTid, kTid + 3);
    EXPECT_EQ(take(1, MsgType::Commit).size(), 1u);
    EXPECT_EQ(take(2, MsgType::Commit).size(), 1u);
    EXPECT_TRUE(take(0, MsgType::Commit).empty());
    EXPECT_EQ(proc.stats().txnsCommitted, 1u);
}

TEST_F(ProcessorTest, LedgerPairsEachProbeReplyWithItsProbe)
{
    // The early probes and the TID request left when the commit
    // started; the ideal network delivered them one cycle later.
    const Tick commit_start = eq.now() - 1;
    for (NodeId d = 0; d < 3; ++d)
        take(d, MsgType::Probe);

    // The TID arrives before any early answer: every directory gets a
    // TID probe while its early probe is still out.
    advance(10);
    grantTid();
    const Tick tid_probes = deliveredAt;
    expectSkips();
    for (NodeId d = 0; d < 3; ++d)
        EXPECT_EQ(tidProbes(d).size(), 1u) << "dir " << d;

    // Then the early answers: directory 1 already serves the TID
    // (marks go out), directory 2 is behind (a second TID probe).
    advance(5);
    probeReply(1, kInvalidTid, kTid);
    const Tick early1 = deliveredAt;
    probeReply(2, kInvalidTid, kTid - 1);
    const Tick early2 = deliveredAt;
    EXPECT_EQ(take(1, MsgType::Mark).size(), 2u);
    EXPECT_EQ(tidProbes(2).size(), 1u);

    // Last, every TID probe's answer; directory 0 validates the commit.
    advance(20);
    probeReply(1, kTid, kTid);
    const Tick tid1 = deliveredAt;
    probeReply(2, kTid, kTid);
    const Tick tid2a = deliveredAt;
    probeReply(2, kTid, kTid);
    const Tick tid2b = deliveredAt;
    probeReply(0, kTid, kTid);
    const Tick tid0 = deliveredAt;
    ASSERT_EQ(proc.stats().txnsCommitted, 1u);

    // Six replies, each against the probe it answers: directory 0's
    // early probe was never answered.
    const std::vector<Tick> rtts = {
        early1 - commit_start, early2 - commit_start,
        tid1 - tid_probes,     tid2a - tid_probes,
        tid2b - early2,        tid0 - tid_probes,
    };
    Tick total = 0, max = 0;
    for (Tick r : rtts) {
        total += r;
        max = std::max(max, r);
    }
    ASSERT_EQ(ledger.size(), 1u);
    const TxLedgerEntry &rec = ledger[0];
    EXPECT_EQ(rec.tid, kTid);
    EXPECT_EQ(rec.commitStartTick, commit_start);
    EXPECT_EQ(rec.probeCount, rtts.size());
    EXPECT_EQ(rec.probeRttTotal, total);
    EXPECT_EQ(rec.probeRttMax, max);
}

TEST(ProcessorHomes, MemoFollowsARebind)
{
    // First-touch homes with page 0x7000 placed at node 1. The
    // processor loads one line of the page, the page moves to node 2,
    // and a second line of the same page must be requested there.
    constexpr std::uint32_t kNodes = 4;
    constexpr NodeId kProc = 3;
    Arena arena;
    EventQueue eq;
    IdealNetwork net(eq, kNodes);
    HomeMap homes(kNodes, HomePolicy::FirstTouch);
    GlobalStore store;
    TccProcessor proc(kProc, kNodes, eq, net, homes, store, CacheConfig{},
                      ProcessorConfig{}, /*vendor_node=*/0, &arena);
    std::vector<Message> loads;
    for (NodeId n = 0; n < kNodes; ++n) {
        net.connect(n, [&loads](const Message &m) {
            if (m.type == MsgType::LoadReq)
                loads.push_back(m);
        });
    }
    homes.bind(0x7000, 1);
    ScriptedSource src;
    src.add({TxOp::load(0x7000), TxOp::load(0x7040)});
    proc.setSource(&src);
    proc.start();
    eq.run();
    ASSERT_EQ(loads.size(), 1u);
    EXPECT_EQ(loads[0].dst, 1u);

    homes.bind(0x7000, 2);
    Message r;
    r.type = MsgType::LoadReply;
    r.src = 1;
    r.dst = kProc;
    r.addr = loads[0].addr;
    r.seq = loads[0].seq;
    proc.receive(r);
    eq.run();
    ASSERT_EQ(loads.size(), 2u);
    EXPECT_EQ(loads[1].addr, 0x7040u);
    EXPECT_EQ(loads[1].dst, 2u);
}

} // namespace
} // namespace tcc
