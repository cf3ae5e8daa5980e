/**
 * @file
 * Direct unit tests of the Directory controller: NSTID / Skip Vector
 * sequencing (the paper's Figure 5 walk-through), probe deferral,
 * mark/commit/invalidate/ack flow, aborts, TID-tagged write-backs and
 * data flushes overtaken by or overtaking commits (Section 3.3 race
 * elimination), and load stalling on marked lines.
 *
 * The directory is driven by hand-crafted messages over an
 * IdealNetwork; a test fixture captures everything the directory sends
 * to each node.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/arena.hh"
#include "directory/directory.hh"
#include "noc/network.hh"
#include "sim/event_queue.hh"

namespace tcc {
namespace {

class DirectoryTest : public ::testing::Test
{
  protected:
    static constexpr std::uint32_t kNodes = 4;
    static constexpr NodeId kDir = 0;

    DirectoryTest()
        : net(eq, kNodes),
          dir(kDir, kNodes, eq, net, DirectoryConfig{}, 32, arena)
    {
        for (NodeId n = 0; n < kNodes; ++n) {
            net.connect(n, [this, n](const Message &m) {
                if (n == kDir) {
                    dir.receive(m);
                } else {
                    inbox[n].push_back(m);
                }
            });
        }
    }

    /** Send @p msg to the directory and run the queue dry. */
    void
    send(Message msg)
    {
        msg.dst = kDir;
        msg.bytes = 16;
        net.send(msg);
        eq.run();
    }

    Message
    mk(MsgType t, NodeId src, Tid tid = kInvalidTid, Addr addr = 0)
    {
        Message m;
        m.type = t;
        m.src = src;
        m.tid = tid;
        m.addr = addr;
        m.wordMask = ~0ull;
        return m;
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

    /**
     * Node 1 commits line 0x100 at TID 0 and node 2's load is
     * forwarded to it; node 1's write-back of that data (a speculative
     * overwrite) lands first and serves the load from memory, leaving
     * node 1's reply to the DataReq in flight.
     */
    void
    ownerWritesBackAfterDataReq()
    {
        send(mk(MsgType::LoadReq, 1, kInvalidTid, 0x100));
        take(1, MsgType::LoadReply);
        send(mk(MsgType::Mark, 1, 0, 0x100));
        auto c = mk(MsgType::Commit, 1, 0);
        c.numMarks = 1;
        send(c);
        send(mk(MsgType::LoadReq, 2, kInvalidTid, 0x100));
        const auto reqs = take(1, MsgType::DataReq);
        ASSERT_EQ(reqs.size(), 1u);
        EXPECT_EQ(reqs[0].tid, 0u) << "a DataReq names the owner's commit";
        send(mk(MsgType::WriteBack, 1, 0, 0x100));
        EXPECT_EQ(take(2, MsgType::LoadReply).size(), 1u);
    }

    /** Arena high-water mark: the directory's alone (the queue and
     *  network stay on the heap). */
    std::size_t peak() const { return arena.stats().peakBytes; }

    Arena arena;
    EventQueue eq;
    IdealNetwork net;
    Directory dir;
    std::map<NodeId, std::vector<Message>> inbox;
};

TEST_F(DirectoryTest, StartsServingTidZero)
{
    EXPECT_EQ(dir.nstid(), 0u);
}

TEST_F(DirectoryTest, SkipAdvancesNstid)
{
    send(mk(MsgType::Skip, 1, 0));
    EXPECT_EQ(dir.nstid(), 1u);
}

TEST_F(DirectoryTest, SkipVectorBuffersOutOfOrderSkips)
{
    // Figure 5: skips for TIDs 1, 2, 4 arrive while 0 is outstanding.
    send(mk(MsgType::Skip, 1, 1));
    send(mk(MsgType::Skip, 2, 2));
    send(mk(MsgType::Skip, 3, 4));
    EXPECT_EQ(dir.nstid(), 0u);
    // When 0 is finally skipped the vector shifts through 1 and 2 but
    // stops at the hole at 3.
    send(mk(MsgType::Skip, 1, 0));
    EXPECT_EQ(dir.nstid(), 3u);
    send(mk(MsgType::Skip, 2, 3));
    EXPECT_EQ(dir.nstid(), 5u);
}

TEST_F(DirectoryTest, EarlyProbeAnswersImmediately)
{
    send(mk(MsgType::Probe, 1)); // tid == kInvalidTid
    auto replies = take(1, MsgType::ProbeReply);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].nstid, 0u);
}

TEST_F(DirectoryTest, WriteProbeDeferredUntilServed)
{
    auto p = mk(MsgType::Probe, 1, 2);
    p.wantWrite = true;
    send(p);
    EXPECT_TRUE(take(1, MsgType::ProbeReply).empty());
    EXPECT_EQ(dir.stats().probesDeferred, 1u);

    send(mk(MsgType::Skip, 2, 0));
    send(mk(MsgType::Skip, 2, 1));
    auto replies = take(1, MsgType::ProbeReply);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].nstid, 2u);
    EXPECT_EQ(replies[0].tid, 2u);
}

TEST_F(DirectoryTest, ReadProbeReleasedWhenNstidPasses)
{
    auto p = mk(MsgType::Probe, 1, 1);
    p.wantWrite = false;
    send(p);
    EXPECT_TRUE(take(1, MsgType::ProbeReply).empty());
    send(mk(MsgType::Skip, 2, 0));
    auto replies = take(1, MsgType::ProbeReply);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_GE(replies[0].nstid, 1u);
}

TEST_F(DirectoryTest, CommitUpgradesMarkedLinesAndInvalidatesSharers)
{
    // Nodes 1 and 2 load line 0x100 -> both become sharers.
    send(mk(MsgType::LoadReq, 1, kInvalidTid, 0x100));
    send(mk(MsgType::LoadReq, 2, kInvalidTid, 0x100));
    EXPECT_EQ(take(1, MsgType::LoadReply).size(), 1u);
    EXPECT_EQ(take(2, MsgType::LoadReply).size(), 1u);

    // Node 1 commits TID 0 writing line 0x100.
    send(mk(MsgType::Mark, 1, 0, 0x100));
    auto c = mk(MsgType::Commit, 1, 0);
    c.numMarks = 1;
    send(c);

    // Node 2 must be invalidated; NSTID must NOT advance until the
    // ack arrives (race elimination).
    auto invs = take(2, MsgType::Inv);
    ASSERT_EQ(invs.size(), 1u);
    EXPECT_EQ(invs[0].addr, 0x100u);
    EXPECT_EQ(invs[0].tid, 0u);
    EXPECT_EQ(dir.nstid(), 0u);

    send(mk(MsgType::InvAck, 2, 0, 0x100));
    EXPECT_EQ(dir.nstid(), 1u);
    EXPECT_EQ(dir.stats().commitsServed, 1u);
    EXPECT_TRUE(dir.quiesced());
}

TEST_F(DirectoryTest, CommitterIsNotInvalidated)
{
    send(mk(MsgType::LoadReq, 1, kInvalidTid, 0x100));
    take(1, MsgType::LoadReply);
    send(mk(MsgType::Mark, 1, 0, 0x100));
    auto c = mk(MsgType::Commit, 1, 0);
    c.numMarks = 1;
    send(c);
    EXPECT_TRUE(take(1, MsgType::Inv).empty());
    EXPECT_EQ(dir.nstid(), 1u); // no sharers to ack
}

TEST_F(DirectoryTest, CommitWaitsForLateMarks)
{
    // Commit arrives claiming 2 marks but only 1 has landed.
    send(mk(MsgType::Mark, 1, 0, 0x100));
    auto c = mk(MsgType::Commit, 1, 0);
    c.numMarks = 2;
    send(c);
    EXPECT_EQ(dir.nstid(), 0u);
    EXPECT_EQ(dir.stats().commitsServed, 0u);
    send(mk(MsgType::Mark, 1, 0, 0x120));
    EXPECT_EQ(dir.nstid(), 1u);
    EXPECT_EQ(dir.stats().commitsServed, 1u);
}

TEST_F(DirectoryTest, LoadToMarkedLineStallsUntilCommit)
{
    send(mk(MsgType::Mark, 1, 0, 0x100));
    send(mk(MsgType::LoadReq, 2, kInvalidTid, 0x100));
    EXPECT_TRUE(take(2, MsgType::LoadReply).empty());
    EXPECT_EQ(dir.stats().loadsStalled, 1u);

    auto c = mk(MsgType::Commit, 1, 0);
    c.numMarks = 1;
    send(c);
    // After the commit the line is owned by node 1, so the stalled
    // load is served through a DataReq to the new owner.
    auto reqs = take(1, MsgType::DataReq);
    ASSERT_EQ(reqs.size(), 1u);
    auto f = mk(MsgType::FlushData, 1, kInvalidTid, 0x100);
    f.hadData = true;
    send(f);
    EXPECT_EQ(take(2, MsgType::LoadReply).size(), 1u);
}

TEST_F(DirectoryTest, AbortClearsMarksAndRetiresTid)
{
    send(mk(MsgType::Mark, 1, 0, 0x100));
    send(mk(MsgType::LoadReq, 2, kInvalidTid, 0x100));
    EXPECT_TRUE(take(2, MsgType::LoadReply).empty());

    send(mk(MsgType::Abort, 1, 0));
    EXPECT_EQ(dir.nstid(), 1u);
    EXPECT_EQ(dir.stats().abortsServed, 1u);
    // The stalled load is released and served from memory.
    EXPECT_EQ(take(2, MsgType::LoadReply).size(), 1u);
    EXPECT_TRUE(dir.quiesced());
}

TEST_F(DirectoryTest, AbortForFutureTidActsAsSkip)
{
    send(mk(MsgType::Abort, 1, 2));
    EXPECT_EQ(dir.nstid(), 0u);
    send(mk(MsgType::Skip, 1, 0));
    send(mk(MsgType::Skip, 1, 1));
    EXPECT_EQ(dir.nstid(), 3u); // 2 was pre-retired by the abort
}

TEST_F(DirectoryTest, StaleWriteBackIsDropped)
{
    // Node 1 commits line 0x100 at TID 0, then node 2 commits the same
    // line at TID 1. A write-back tagged TID 0 arriving afterwards is
    // stale and must be dropped (Section 3.3).
    send(mk(MsgType::LoadReq, 1, kInvalidTid, 0x100));
    take(1, MsgType::LoadReply);
    send(mk(MsgType::Mark, 1, 0, 0x100));
    auto c0 = mk(MsgType::Commit, 1, 0);
    c0.numMarks = 1;
    send(c0);

    send(mk(MsgType::LoadReq, 2, kInvalidTid, 0x100));
    take(1, MsgType::DataReq);
    auto f = mk(MsgType::FlushData, 1, kInvalidTid, 0x100);
    f.hadData = true;
    send(f);
    take(2, MsgType::LoadReply);

    send(mk(MsgType::Mark, 2, 1, 0x100));
    auto c1 = mk(MsgType::Commit, 2, 1);
    c1.numMarks = 1;
    send(c1);
    // Node 1 still shares the line; ack its invalidation.
    take(1, MsgType::Inv);
    send(mk(MsgType::InvAck, 1, 1, 0x100));
    EXPECT_EQ(dir.nstid(), 2u);

    auto wb_stale = mk(MsgType::WriteBack, 1, 0, 0x100);
    send(wb_stale);
    EXPECT_EQ(dir.stats().writeBacksDropped, 1u);

    auto wb_fresh = mk(MsgType::WriteBack, 2, 1, 0x100);
    send(wb_fresh);
    EXPECT_EQ(dir.stats().writeBacksAccepted, 1u);
}

TEST_F(DirectoryTest, KeepSharerAckStaysInSharersList)
{
    // Nodes 1 and 2 share line 0x100; node 1 commits word 0 only.
    send(mk(MsgType::LoadReq, 1, kInvalidTid, 0x100));
    send(mk(MsgType::LoadReq, 2, kInvalidTid, 0x100));
    take(1, MsgType::LoadReply);
    take(2, MsgType::LoadReply);

    auto m = mk(MsgType::Mark, 1, 0, 0x100);
    m.wordMask = 0x1;
    send(m);
    auto c = mk(MsgType::Commit, 1, 0);
    c.numMarks = 1;
    send(c);
    take(2, MsgType::Inv);
    // Node 2 acks but asks to remain a sharer (it still reads word 3).
    auto ack = mk(MsgType::InvAck, 2, 0, 0x100);
    ack.keepSharer = true;
    send(ack);
    EXPECT_EQ(dir.nstid(), 1u);

    // A second commit by node 1 must invalidate node 2 again.
    auto m2 = mk(MsgType::Mark, 1, 1, 0x100);
    m2.wordMask = 0x8;
    send(m2);
    auto c2 = mk(MsgType::Commit, 1, 1);
    c2.numMarks = 1;
    send(c2);
    EXPECT_EQ(take(2, MsgType::Inv).size(), 1u);
    send(mk(MsgType::InvAck, 2, 1, 0x100));
    EXPECT_EQ(dir.nstid(), 2u);
}

TEST_F(DirectoryTest, DataReqHadNoDataWaitsForWriteBack)
{
    // Node 1 owns line 0x100.
    send(mk(MsgType::LoadReq, 1, kInvalidTid, 0x100));
    take(1, MsgType::LoadReply);
    send(mk(MsgType::Mark, 1, 0, 0x100));
    auto c = mk(MsgType::Commit, 1, 0);
    c.numMarks = 1;
    send(c);

    // Node 2 loads; directory forwards to the owner, who already
    // evicted (write-back in flight).
    send(mk(MsgType::LoadReq, 2, kInvalidTid, 0x100));
    take(1, MsgType::DataReq);
    auto f = mk(MsgType::FlushData, 1, kInvalidTid, 0x100);
    f.hadData = false;
    send(f);
    EXPECT_TRUE(take(2, MsgType::LoadReply).empty());

    // The write-back lands: the stalled load is finally served.
    send(mk(MsgType::WriteBack, 1, 0, 0x100));
    EXPECT_EQ(take(2, MsgType::LoadReply).size(), 1u);
    EXPECT_TRUE(dir.quiesced());
}

TEST_F(DirectoryTest, StaleNoDataFlushDoesNotAwaitWriteBack)
{
    ownerWritesBackAfterDataReq();

    // Node 1 commits the line again at TID 1, then its no-data reply
    // to the TID-0 DataReq arrives: it speaks of superseded ownership
    // and must not make the directory wait for a write-back.
    send(mk(MsgType::Mark, 1, 1, 0x100));
    auto c1 = mk(MsgType::Commit, 1, 1);
    c1.numMarks = 1;
    send(c1);
    take(2, MsgType::Inv);
    send(mk(MsgType::InvAck, 2, 1, 0x100));
    auto stale = mk(MsgType::FlushData, 1, 0, 0x100);
    stale.hadData = false;
    send(stale);

    // A new load is forwarded to the TID-1 owner and served.
    send(mk(MsgType::LoadReq, 2, kInvalidTid, 0x100));
    const auto reqs = take(1, MsgType::DataReq);
    ASSERT_EQ(reqs.size(), 1u);
    EXPECT_EQ(reqs[0].tid, 1u);
    auto f = mk(MsgType::FlushData, 1, 1, 0x100);
    f.hadData = true;
    send(f);
    EXPECT_EQ(take(2, MsgType::LoadReply).size(), 1u);
    EXPECT_TRUE(dir.quiesced());
}

TEST_F(DirectoryTest, DataFlushAheadOfItsCommitIsDeferred)
{
    ownerWritesBackAfterDataReq();

    // Node 1 commits TID 1 and answers the DataReq with that data; the
    // flush overtakes the Mark and Commit.
    auto f = mk(MsgType::FlushData, 1, 1, 0x100);
    f.hadData = true;
    send(f);
    EXPECT_FALSE(dir.quiesced()) << "the flush waits for its commit";
    send(mk(MsgType::Mark, 1, 1, 0x100));
    auto c1 = mk(MsgType::Commit, 1, 1);
    c1.numMarks = 1;
    send(c1);
    take(2, MsgType::Inv);
    send(mk(MsgType::InvAck, 2, 1, 0x100));

    // Memory holds TID 1's data: the next load needs no owner.
    send(mk(MsgType::LoadReq, 3, kInvalidTid, 0x100));
    EXPECT_TRUE(take(1, MsgType::DataReq).empty());
    EXPECT_EQ(take(3, MsgType::LoadReply).size(), 1u);
    EXPECT_TRUE(dir.quiesced());
}

TEST_F(DirectoryTest, OwnerLoadOfPartialLineServedFromMemory)
{
    // Node 1 owns the line but lost some words to an unrelated
    // invalidation before committing; its own fill request must be
    // served from memory rather than deadlocking on a write-back.
    send(mk(MsgType::LoadReq, 1, kInvalidTid, 0x100));
    take(1, MsgType::LoadReply);
    send(mk(MsgType::Mark, 1, 0, 0x100));
    auto c = mk(MsgType::Commit, 1, 0);
    c.numMarks = 1;
    send(c);

    send(mk(MsgType::LoadReq, 1, kInvalidTid, 0x100));
    EXPECT_EQ(take(1, MsgType::LoadReply).size(), 1u);
    EXPECT_TRUE(dir.quiesced());
}

TEST_F(DirectoryTest, OccupancyAndWorkingSetAreSampled)
{
    send(mk(MsgType::LoadReq, 1, kInvalidTid, 0x100));
    take(1, MsgType::LoadReply);
    send(mk(MsgType::Mark, 1, 0, 0x100));
    auto c = mk(MsgType::Commit, 1, 0);
    c.numMarks = 1;
    send(c);
    EXPECT_EQ(dir.stats().commitOccupancy.count(), 1u);
    EXPECT_EQ(dir.stats().workingSet.count(), 1u);
    EXPECT_GT(dir.stats().commitOccupancy.mean(), 0.0);
}

TEST_F(DirectoryTest, NstidAdvancesDoNotCopyDeferredProbes)
{
    // K read probes wait for TIDs beyond every advance below, then N
    // skips each advance the NSTID by one. Every advance walks the K
    // parked probes; none may copy them into fresh arena memory (the
    // arena never frees, so a per-advance copy costs N * K messages).
    constexpr Tid kProbes = 64;
    constexpr Tid kAdvances = 256;
    for (Tid j = 0; j < kProbes; ++j)
        send(mk(MsgType::Probe, 1 + j % 3, kAdvances + 1 + j));
    EXPECT_EQ(dir.stats().probesDeferred, kProbes);
    const std::size_t parked = peak();

    for (Tid t = 0; t < kAdvances; ++t)
        send(mk(MsgType::Skip, 1, t));
    EXPECT_EQ(dir.nstid(), kAdvances);
    EXPECT_LT(peak() - parked, kProbes * sizeof(Message))
        << "arena grew by " << peak() - parked << " bytes over "
        << kAdvances << " advances";

    // Every probe is answered once its TID is reached.
    for (Tid t = kAdvances; t <= kAdvances + kProbes; ++t)
        send(mk(MsgType::Skip, 1, t));
    EXPECT_EQ(take(1, MsgType::ProbeReply).size() +
                  take(2, MsgType::ProbeReply).size() +
                  take(3, MsgType::ProbeReply).size(),
              kProbes);
    EXPECT_TRUE(dir.quiesced());
}

TEST_F(DirectoryTest, StalledLoadRedispatchReusesItsBuffer)
{
    // Each round stalls L loads behind a marked line and then aborts
    // the marking TID, so the advance re-dispatches them. The stall
    // buffer must be reused across rounds, not regrown in the arena.
    constexpr int kLoads = 32;
    constexpr Tid kRounds = 64;
    std::size_t first = 0;
    for (Tid t = 0; t < kRounds; ++t) {
        send(mk(MsgType::Mark, 1, t, 0x100));
        for (int l = 0; l < kLoads; ++l)
            send(mk(MsgType::LoadReq, 2 + l % 2, kInvalidTid, 0x100));
        send(mk(MsgType::Abort, 1, t));
        if (t == 1)
            first = peak();
    }
    EXPECT_EQ(dir.stats().loadsStalled, kRounds * kLoads);
    EXPECT_EQ(dir.nstid(), kRounds);
    EXPECT_TRUE(dir.quiesced());
    EXPECT_LT(peak() - first, kLoads * sizeof(Message))
        << "arena grew by " << peak() - first << " bytes over "
        << kRounds - 2 << " rounds";
}

TEST_F(DirectoryTest, TeardownWithPendingLoadsAndDeferredWriteBacks)
{
    // Leave a load waiting on an owner and two write-backs deferred
    // ahead of their commits; the fixture then destroys the directory.
    // Its entries sit in the arena but hold heap vectors, so a
    // sanitizer build checks that ~Entry runs once each.
    send(mk(MsgType::LoadReq, 1, kInvalidTid, 0x100));
    send(mk(MsgType::Mark, 1, 0, 0x100));
    auto c = mk(MsgType::Commit, 1, 0);
    c.numMarks = 1;
    send(c);
    send(mk(MsgType::LoadReq, 2, kInvalidTid, 0x100));
    send(mk(MsgType::WriteBack, 1, 3, 0x100));
    send(mk(MsgType::WriteBack, 3, 7, 0x200));
    EXPECT_EQ(dir.numEntries(), 2u);
    EXPECT_FALSE(dir.quiesced());
    EXPECT_EQ(take(1, MsgType::DataReq).size(), 1u);
}

TEST_F(DirectoryTest, SkipForRetiredTidPanics)
{
    send(mk(MsgType::Skip, 1, 0));
    EXPECT_DEATH(send(mk(MsgType::Skip, 1, 0)), "retired");
}

/** Arena bytes a directory of @p nodes nodes adds per line it tracks,
 *  over @p lines loads from distinct lines. */
double
entryBytes(std::uint32_t nodes, std::uint32_t lines)
{
    Arena arena;
    EventQueue eq;
    IdealNetwork net(eq, nodes);
    Directory dir(0, nodes, eq, net, DirectoryConfig{}, 32, arena);
    net.connect(0, [&](const Message &m) { dir.receive(m); });
    net.connect(1, [](const Message &) {});
    const std::size_t before = arena.stats().peakBytes;
    for (std::uint32_t i = 0; i < lines; ++i) {
        Message m;
        m.type = MsgType::LoadReq;
        m.src = 1;
        m.dst = 0;
        m.addr = Addr(i) * 32;
        m.bytes = 16;
        net.send(m);
    }
    eq.run();
    EXPECT_EQ(dir.numEntries(), lines);
    EXPECT_TRUE(dir.quiesced());
    return static_cast<double>(arena.stats().peakBytes - before) / lines;
}

TEST(DirectoryMemory, EntryBytesAtThousandNodes)
{
    // An entry is its protocol fields (24 B) followed by the full-map
    // sharers list (1024 bits = 128 B); the entry table adds 16-byte
    // slots plus a metadata byte at a load of at most 7/8, and keeps
    // its outgrown arrays in the arena. 7,000 lines sit just under
    // the 8,192-slot table's limit, so the table share is ~40 B.
    constexpr std::uint32_t kLines = 7000;
    const double at1024 = entryBytes(1024, kLines);
    const double at64 = entryBytes(64, kLines);
    EXPECT_DOUBLE_EQ(at1024 - at64, 120.0) << "1024 - 64 sharer bits";
    // 152 B of entry and sharers, plus the table's 16,368 slots of
    // 17 B (16 to 8,192, every size it passed through) over 7,000.
    EXPECT_NEAR(at1024, 152.0 + 278256.0 / kLines, 0.01);
}

} // namespace
} // namespace tcc
