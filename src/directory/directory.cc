#include "directory/directory.hh"

#include <algorithm>
#include <new>

#include "check/mutate.hh"
#include "common/log.hh"

namespace tcc {

Directory::Directory(NodeId node, std::uint32_t num_nodes,
                     EventQueue &eq, Network &net,
                     const DirectoryConfig &cfg,
                     std::uint32_t line_bytes, Arena &arena_)
    : nodeId(node), numNodes(num_nodes), eventq(eq), network(net),
      config(cfg), lineBytes(line_bytes), arena(&arena_),
      skipWindow(&arena_), entries(&arena_), pendingLoads(&arena_),
      deferredWriteBacks(&arena_),
      deferredProbes(ArenaAllocator<Message>(&arena_)),
      stalledLoads(ArenaAllocator<Message>(&arena_)),
      loadScratch(ArenaAllocator<Message>(&arena_)),
      mcastBuf(ArenaAllocator<NodeId>(&arena_)), lruIndex(&arena_)
{
    // The entry map starts empty and grows with the lines this
    // directory homes; a directory cache's LRU bounds the hot set, so
    // that map is sized once.
    if (config.dirCacheEntries != 0)
        entries.reserve(config.dirCacheEntries);
}

Directory::Entry &
Directory::entry(Addr lineAddr)
{
    Entry *&e = entries[lineAddr];
    if (!e) {
        const std::size_t words = NodeSpan::wordsFor(numNodes);
        e = ::new (arena->allocate(
            sizeof(Entry) + words * sizeof(std::uint64_t), alignof(Entry)))
            Entry{};
        sharersOf(*e).clearAll();
    }
    return *e;
}

bool
Directory::hasRemoteSharer(Entry &e) const
{
    // Word-level bitmap test: any sharer bit besides our own.
    return sharersOf(e).anyBesides(nodeId);
}

void
Directory::noteSharerChange(Entry &e, bool had_remote_before)
{
    const bool now = hasRemoteSharer(e);
    if (now && !had_remote_before)
        ++remoteSharerEntries;
    else if (!now && had_remote_before)
        --remoteSharerEntries;
}

std::uint32_t
Directory::sizeOf(MsgType t) const
{
    return msgBytes(t, lineBytes);
}

void
Directory::post(Message msg)
{
    msg.src = nodeId;
    msg.bytes = sizeOf(msg.type);
    network.send(std::move(msg));
}

void
Directory::postMulticast(Message msg, std::span<const NodeId> dsts)
{
    msg.src = nodeId;
    msg.bytes = sizeOf(msg.type);
    network.multicast(msg, dsts);
}

Tick
Directory::dirCachePenalty(Addr lineAddr)
{
    if (config.dirCacheEntries == 0)
        return 0;
    auto it = lruIndex.find(lineAddr);
    if (it != lruIndex.end()) {
        lruList.splice(lruList.begin(), lruList, it->second);
        return 0; // hit
    }
    // Miss: fetch the entry from the memory-backed directory.
    ++dirStats.dirCacheMisses;
    lruList.push_front(lineAddr);
    lruIndex[lineAddr] = lruList.begin();
    if (lruList.size() > config.dirCacheEntries) {
        lruIndex.erase(lruList.back());
        lruList.pop_back();
    }
    return config.memLatency;
}

void
Directory::receive(const Message &msg)
{
    // Single-server occupancy model: the controller handles one
    // message at a time, each costing one directory-cache access
    // (plus a memory round trip when the entry misses in the
    // directory cache).
    Tick cost = config.lookupLatency;
    switch (msg.type) {
      case MsgType::LoadReq:
      case MsgType::Mark:
      case MsgType::WriteBack:
      case MsgType::FlushData:
      case MsgType::InvAck:
        cost += dirCachePenalty(msg.addr);
        break;
      default:
        break; // TID-level messages touch no per-line entry
    }
    const Tick start = std::max(eventq.now(), busyUntil);
    busyUntil = start + cost;
    dirStats.busyCycles += cost;
    if (pending.active)
        pending.serviceCycles += cost;

    // The message rides inside the event for the occupancy delay.
    auto serve = [this, msg]() {
        switch (msg.type) {
          case MsgType::LoadReq: handleLoad(msg); break;
          case MsgType::Skip: handleSkip(msg); break;
          case MsgType::Probe: handleProbe(msg); break;
          case MsgType::Mark: handleMark(msg); break;
          case MsgType::Commit: handleCommit(msg); break;
          case MsgType::PartialCommit: handlePartialCommit(msg); break;
          case MsgType::Abort: handleAbort(msg); break;
          case MsgType::WriteBack: handleWriteBack(msg); break;
          case MsgType::FlushData: handleFlushData(msg); break;
          case MsgType::InvAck: handleInvAck(msg); break;
          default:
            panic("directory %u got unexpected %s", nodeId,
                  msgTypeName(msg.type));
        }
    };
    eventq.scheduleAt(busyUntil, std::move(serve));
}

void
Directory::handleLoad(const Message &msg)
{
    Entry &e = entry(msg.addr);
    if (e.marked) {
        // Loads to lines involved in an ongoing commit are stalled; the
        // commit is expected to succeed, and serving the old value
        // would immediately invalidate-and-violate the loader.
        ++dirStats.loadsStalled;
        stalledLoads.push_back(msg);
        return;
    }
    serveLoad(e, msg.src, msg.seq, msg.addr);
}

void
Directory::serveLoad(Entry &e, NodeId requester, std::uint32_t seq,
                     Addr lineAddr)
{
    if (e.owned && e.owner != requester) {
        // The only up-to-date copy is in the owner's cache.
        pendingLoads[lineAddr].push_back({requester, seq});
        requestOwnerData(e, lineAddr);
        return;
    }
    // Not owned - or the owner itself is filling words of a line it
    // owns only partially (some words were invalidated by an unrelated
    // commit before this line was committed): serve from memory; the
    // owner's per-word valid bits merge the fill with its newer words.
    replyFromMemory(e, requester, seq, lineAddr);
}

void
Directory::requestOwnerData(Entry &e, Addr lineAddr)
{
    if (e.dataReqOutstanding || e.awaitingWriteBack)
        return;
    e.dataReqOutstanding = true;
    Message req;
    req.type = MsgType::DataReq;
    req.dst = e.owner;
    req.addr = lineAddr;
    // The commit whose data the owner is asked for; a no-data reply
    // echoes it (see handleFlushData).
    req.tid = e.commitTid;
    post(req);
}

void
Directory::replyFromMemory(Entry &e, NodeId requester,
                           std::uint32_t seq, Addr lineAddr)
{
    const bool before = hasRemoteSharer(e);
    sharersOf(e).set(requester);
    noteSharerChange(e, before);
    ++dirStats.loadsServed;
    // Main-memory access latency before the data leaves the node. The
    // reply is built inside the event so the capture stays inline; it
    // echoes the request's sequence tag so the requester can filter
    // duplicated or stale replies on an adversarial network.
    eventq.schedule(config.memLatency,
                    [this, requester, seq, lineAddr]() {
        Message reply;
        reply.type = MsgType::LoadReply;
        reply.dst = requester;
        reply.addr = lineAddr;
        reply.seq = seq;
        reply.src = nodeId;
        reply.bytes = sizeOf(MsgType::LoadReply);
        network.send(reply);
    });
}

void
Directory::pumpPendingLoads(Entry &e, Addr lineAddr)
{
    if (e.marked)
        return;
    auto it = pendingLoads.find(lineAddr);
    if (it == pendingLoads.end())
        return;
    std::vector<PendingLoad> waiters = std::move(it->second);
    pendingLoads.erase(it);
    if (e.owned) {
        // The owner's own loads are partial-line fills served from
        // memory (see serveLoad); everyone else needs the owner's data.
        std::vector<PendingLoad> others;
        for (const auto &r : waiters) {
            if (r.node == e.owner)
                replyFromMemory(e, r.node, r.seq, lineAddr);
            else
                others.push_back(r);
        }
        if (!others.empty()) {
            pendingLoads[lineAddr] = std::move(others);
            requestOwnerData(e, lineAddr);
        }
        return;
    }
    for (const auto &r : waiters) {
        ++dirStats.loadsForwarded;
        replyFromMemory(e, r.node, r.seq, lineAddr);
    }
}

void
Directory::handleSkip(const Message &msg)
{
    if (mutate::is(mutate::Kind::DropSkip))
        return; // deliberately lose the skip (checker-efficacy test)
    ++dirStats.skipsReceived;
    traceEmit(tracer, TraceEventKind::DirSkip, nodeId, msg.tid, msg.src);
    recordSkip(msg.tid, InvariantChecker::Retire::Skip);
    advance();
}

void
Directory::recordSkip(Tid t, InvariantChecker::Retire how)
{
    if (invariants && !invariants->onRetire(nodeId, t, how))
        return; // invalid retirement: recorded as an invariant failure
    if (t < nowServing)
        panic("dir %u: skip for already-retired TID %llu (NSTID %llu)",
              nodeId, (unsigned long long)t,
              (unsigned long long)nowServing);
    const std::size_t idx = static_cast<std::size_t>(t - nowServing);
    if (skipWindow.test(idx))
        panic("dir %u: TID %llu retired twice", nodeId,
              (unsigned long long)t);
    skipWindow.set(idx);
}

void
Directory::advance()
{
    // Consume the Skip Vector's leading run of retired TIDs in one
    // word-level pass (count-trailing-ones, no per-TID loop).
    const std::size_t moved = skipWindow.popLeadingRun();
    const Tid previous = nowServing;
    nowServing += moved;
    if (moved == 0)
        return;
    if (mutate::is(mutate::Kind::SkipVectorOverConsume))
        ++nowServing; // swallow one extra, unretired TID
    if (mutate::is(mutate::Kind::NstidRewind) && previous > 0)
        nowServing = previous - 1; // step the NSTID backwards
    if (invariants)
        invariants->onNstidAdvance(nodeId, previous, nowServing);
    traceEmit(tracer, TraceEventKind::DirNstidAdvance, nodeId,
              kInvalidTid, nowServing, moved);

    // Release deferred probes whose condition now holds, compacting
    // the rest in place (replies go out in deferral order).
    std::size_t kept = 0;
    for (std::size_t i = 0; i < deferredProbes.size(); ++i) {
        const Message &p = deferredProbes[i];
        // A write probe is normally released when its TID is served
        // (nowServing == tid). nowServing > tid happens only when the
        // prober aborted (its Abort retired the TID); reply anyway -
        // the prober ignores replies for stale attempts.
        if (nowServing >= p.tid) {
            Message reply;
            reply.type = MsgType::ProbeReply;
            reply.dst = p.src;
            reply.tid = p.tid;
            reply.nstid = nowServing;
            reply.wantWrite = p.wantWrite;
            post(reply);
        } else {
            deferredProbes[kept++] = p;
        }
    }
    deferredProbes.resize(kept);

    // Re-dispatch loads that were stalled on marked lines. handleLoad
    // may stall a load again, so walk a swapped-out copy; both vectors
    // keep their capacity, so steady state allocates nothing.
    loadScratch.swap(stalledLoads);
    for (const Message &m : loadScratch)
        handleLoad(m);
    loadScratch.clear();
}

void
Directory::handleProbe(const Message &msg)
{
    auto reply_now = [&]() {
        Message reply;
        reply.type = MsgType::ProbeReply;
        reply.dst = msg.src;
        reply.tid = msg.tid;
        reply.nstid = nowServing;
        reply.wantWrite = msg.wantWrite;
        post(reply);
    };

    if (msg.tid == kInvalidTid) {
        // Early probe (no TID yet): answer immediately with the current
        // NSTID; the prober interprets it once its TID arrives.
        reply_now();
        return;
    }
    if (msg.wantWrite) {
        if (nowServing >= msg.tid) {
            // == : this transaction is now being served, marks may
            //      follow. > : the prober aborted this attempt (its
            //      Abort overtook the probe); it will ignore the reply.
            reply_now();
        } else {
            ++dirStats.probesDeferred;
            traceEmit(tracer, TraceEventKind::DirProbeDefer, nodeId, msg.tid,
                      msg.src, 1);
            deferredProbes.push_back(msg);
        }
        return;
    }
    if (nowServing >= msg.tid) {
        reply_now();
    } else {
        ++dirStats.probesDeferred;
        traceEmit(tracer, TraceEventKind::DirProbeDefer, nodeId, msg.tid,
                  msg.src, 0);
        deferredProbes.push_back(msg);
    }
}

void
Directory::handleMark(const Message &msg)
{
    if (msg.tid < nowServing) {
        // Stale mark from an attempt whose Abort overtook it on an
        // unordered network; the abort already retired the TID.
        return;
    }
    if (msg.tid != nowServing)
        panic("dir %u: mark from TID %llu while serving %llu", nodeId,
              (unsigned long long)msg.tid,
              (unsigned long long)nowServing);
    if (!pending.active) {
        pending = PendingCommit{};
        pending.active = true;
        pending.committer = msg.src;
        pending.tid = msg.tid;
        pending.busyStart = eventq.now();
    }
    ++dirStats.marksReceived;
    ++pending.marksReceived;
    pending.markedLines.push_back(msg.addr);

    Entry &e = entry(msg.addr);
    e.marked = true;
    e.markedWords |= msg.wordMask;
    // Write-allocate guarantees the committer is already a sharer, but
    // be defensive in case the line's sharer bit was cleared by an
    // earlier invalidation that raced with this commit.
    const bool before = hasRemoteSharer(e);
    sharersOf(e).set(msg.src);
    noteSharerChange(e, before);

    if (mutate::is(mutate::Kind::CommitBeforeMarks) &&
        !pending.commitSeen && !pending.invsSent) {
        finishCommit(); // apply commit data before the Commit arrives
        return;
    }
    maybeFinishCommit();
}

void
Directory::handleCommit(const Message &msg)
{
    if (msg.tid != nowServing)
        panic("dir %u: commit from TID %llu while serving %llu", nodeId,
              (unsigned long long)msg.tid,
              (unsigned long long)nowServing);
    if (!pending.active) {
        // Commit overtook every Mark (possible on a jittery network).
        pending = PendingCommit{};
        pending.active = true;
        pending.committer = msg.src;
        pending.tid = msg.tid;
        pending.busyStart = eventq.now();
    }
    pending.commitSeen = true;
    pending.expectedMarks = msg.numMarks;
    maybeFinishCommit();
}

void
Directory::handlePartialCommit(const Message &msg)
{
    // A solo-mode transaction drains a batch of its write-set: the
    // batch commits exactly like a normal commit (upgrade, invalidate,
    // wait for acks) but the TID is NOT retired - the transaction is
    // still running and will commit or drain more later.
    if (msg.tid != nowServing)
        panic("dir %u: partial commit from TID %llu while serving "
              "%llu",
              nodeId, (unsigned long long)msg.tid,
              (unsigned long long)nowServing);
    if (!pending.active) {
        pending = PendingCommit{};
        pending.active = true;
        pending.committer = msg.src;
        pending.tid = msg.tid;
        pending.busyStart = eventq.now();
    }
    pending.commitSeen = true;
    pending.partial = true;
    pending.expectedMarks = msg.numMarks;
    ++dirStats.partialCommitsServed;
    maybeFinishCommit();
}

void
Directory::maybeFinishCommit()
{
    if (!pending.active || !pending.commitSeen)
        return;
    if (pending.marksReceived < pending.expectedMarks)
        return; // marks still in flight
    if (pending.invsSent)
        return; // already processing acks
    finishCommit();
}

void
Directory::finishCommit()
{
    if (invariants)
        invariants->onCommitApply(nodeId, pending.tid,
                                  pending.marksReceived,
                                  pending.expectedMarks,
                                  pending.commitSeen, pending.partial);
    pending.invsSent = true;
    for (Addr a : pending.markedLines) {
        Entry &e = entry(a);
        const bool before = hasRemoteSharer(e);
        e.marked = false;
        // Write-back commit: the committer keeps the only up-to-date
        // copy. Write-through (ablation): memory was updated by the
        // data-carrying marks, so there is no owner.
        e.owned = !writeThrough;
        e.owner = writeThrough ? kInvalidNode : pending.committer;
        e.commitTid = pending.tid;
        // A new commit supersedes any stale data-forwarding state.
        e.awaitingWriteBack = false;
        e.dataReqOutstanding = false;

        // Invalidate every sharer except the committing processor; a
        // processor is cleared from the sharers list exactly when an
        // invalidation is sent to it.
        const WordMaskT inv_mask = e.markedWords;
        e.markedWords = 0;
        NodeSpan sharers = sharersOf(e);
        const std::uint32_t n_inv =
            sharers.count() - (sharers.test(pending.committer) ? 1 : 0);
        traceEmit(tracer, TraceEventKind::DirInvalidate, nodeId,
                  pending.tid, a, n_inv);
        // forEach visits in ascending node order, so the collected
        // destination list matches the old per-sharer emission order
        // exactly; the single payload then fans out as a multicast.
        mcastBuf.clear();
        sharers.forEach([&](NodeId n) {
            if (n == pending.committer)
                return;
            mcastBuf.push_back(n);
        });
        for (NodeId n : mcastBuf)
            sharers.clear(n);
        if (!mcastBuf.empty()) {
            Message inv;
            inv.type = MsgType::Inv;
            inv.addr = a;
            inv.tid = pending.tid;
            inv.wordMask = inv_mask;
            postMulticast(inv, mcastBuf);
            dirStats.invalidationsSent += mcastBuf.size();
            pending.pendingAcks +=
                static_cast<std::uint32_t>(mcastBuf.size());
        }
        noteSharerChange(e, before);
    }
    ++dirStats.commitsServed;
    sampleWorkingSet();
    if (pending.pendingAcks == 0)
        retireCurrent();
}

void
Directory::retireCurrent()
{
    const Tid t = pending.tid;
    const bool partial = pending.partial;
    const NodeId committer = pending.committer;
    dirStats.commitOccupancy.sample(
        static_cast<double>(pending.serviceCycles));
    std::vector<Addr> lines = std::move(pending.markedLines);
    pending = PendingCommit{};
    if (partial) {
        // Solo-mode batch: acknowledge, keep serving the same TID.
        Message ack;
        ack.type = MsgType::PartialAck;
        ack.dst = committer;
        ack.tid = t;
        post(ack);
    } else {
        recordSkip(t, InvariantChecker::Retire::Commit);
        advance();
    }
    for (Addr a : lines) {
        // Replay write-backs and data flushes that had overtaken this
        // commit.
        Entry &e = entry(a);
        if (auto it = deferredWriteBacks.find(a);
            it != deferredWriteBacks.end()) {
            std::vector<Message> wbs = std::move(it->second);
            deferredWriteBacks.erase(it);
            for (const Message &wb : wbs) {
                if (wb.type == MsgType::FlushData)
                    handleFlushData(wb);
                else
                    handleWriteBack(wb);
            }
        }
        pumpPendingLoads(e, a);
    }
}

void
Directory::handleAbort(const Message &msg)
{
    ++dirStats.abortsServed;
    std::vector<Addr> lines;
    if (pending.active && pending.tid == msg.tid) {
        if (pending.invsSent)
            panic("dir %u: abort after invalidations were sent",
                  nodeId);
        lines = std::move(pending.markedLines);
        for (Addr a : lines) {
            Entry &e = entry(a);
            e.marked = false;
            e.markedWords = 0;
        }
        pending = PendingCommit{};
    }
    // Whether or not anything was marked, the aborting transaction will
    // never commit here under this TID: treat it as skipped.
    recordSkip(msg.tid, InvariantChecker::Retire::Abort);
    advance();
    for (Addr a : lines)
        pumpPendingLoads(entry(a), a);
}

void
Directory::handleWriteBack(const Message &msg)
{
    Entry &e = entry(msg.addr);
    // Write-backs carry the TID whose commit produced the data.
    // Ordering against this line's commit record resolves the
    // unordered-network races of Section 3.3 in both directions:
    //  - tag < commitTid: overtaken by a newer commit -> stale, drop;
    //  - tag > commitTid (or no commit seen yet): the write-back
    //    overtook its own commit -> defer until that commit is
    //    processed, or ownership would be resurrected and lost.
    if (msg.tid != kInvalidTid) {
        if (e.commitTid != kInvalidTid && msg.tid < e.commitTid) {
            ++dirStats.writeBacksDropped;
            return;
        }
        if (e.commitTid == kInvalidTid || msg.tid > e.commitTid) {
            deferredWriteBacks[msg.addr].push_back(msg);
            return;
        }
    }
    ++dirStats.writeBacksAccepted;
    if (e.owned && e.owner == msg.src) {
        e.owned = false;
        e.owner = kInvalidNode;
    }
    e.awaitingWriteBack = false;
    pumpPendingLoads(e, msg.addr);
}

void
Directory::handleFlushData(const Message &msg)
{
    Entry &e = entry(msg.addr);
    if (msg.invResponse) {
        // Invalidation of a committed-dirty line: the flush carries the
        // data to memory and doubles as the invalidation ack.
        handleInvAck(msg);
        return;
    }
    // Response to a DataReq. Like write-backs, flushes carry TID tags
    // (Section 3.3): a data flush names the commit that produced its
    // data, a no-data reply the commit its DataReq asked about. On an
    // unordered network either can be overtaken by a newer commit to
    // the line, and a data flush can overtake its own commit.
    if (msg.tid != kInvalidTid && msg.hadData &&
        (e.commitTid == kInvalidTid || msg.tid > e.commitTid)) {
        deferredWriteBacks[msg.addr].push_back(msg);
        return;
    }
    e.dataReqOutstanding = false;
    // Only a reply about the line's current commit describes the
    // owner's copy; an older one was superseded by that commit.
    const bool current =
        msg.tid == kInvalidTid || msg.tid == e.commitTid;
    if (current && e.owned && e.owner == msg.src) {
        if (msg.hadData) {
            e.owned = false;
            e.owner = kInvalidNode;
            e.awaitingWriteBack = false;
        } else {
            // The owner already evicted; its WriteBack is in flight.
            e.awaitingWriteBack = true;
        }
    }
    pumpPendingLoads(e, msg.addr);
}

void
Directory::handleInvAck(const Message &msg)
{
    if (!pending.active || !pending.invsSent)
        panic("dir %u: stray inv ack from node %u", nodeId, msg.src);
    if (pending.pendingAcks == 0)
        panic("dir %u: inv ack underflow", nodeId);
    if (msg.keepSharer) {
        // The acking processor still speculatively reads (or writes)
        // other words of this line: keep sending it invalidations.
        Entry &e = entry(msg.addr);
        const bool before = hasRemoteSharer(e);
        sharersOf(e).set(msg.src);
        noteSharerChange(e, before);
    }
    if (--pending.pendingAcks == 0)
        retireCurrent();
}

void
Directory::sampleWorkingSet()
{
    dirStats.workingSet.sample(
        static_cast<double>(remoteSharerEntries));
}

bool
Directory::quiesced() const
{
    if (pending.active || !deferredProbes.empty() ||
        !stalledLoads.empty() || !pendingLoads.empty() ||
        !deferredWriteBacks.empty())
        return false;
    for (const auto &[addr, e] : entries)
        if (e->dataReqOutstanding || e->awaitingWriteBack)
            return false;
    return true;
}

std::string
Directory::debugDump() const
{
    std::string out;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "dir %u: nstid=%llu pending=%d defProbes=%zu "
                  "stalledLoads=%zu\n",
                  nodeId, (unsigned long long)nowServing,
                  pending.active ? 1 : 0, deferredProbes.size(),
                  stalledLoads.size());
    out += buf;
    for (const auto &[addr, entry_ptr] : entries) {
        const Entry &e = *entry_ptr;
        const auto waiting = pendingLoads.find(addr);
        const std::size_t n_waiting =
            waiting == pendingLoads.end() ? 0 : waiting->second.size();
        if (n_waiting == 0 && !e.dataReqOutstanding &&
            !e.awaitingWriteBack && !e.marked)
            continue;
        std::snprintf(buf, sizeof(buf),
                      "  line %llx: owned=%d owner=%u marked=%d "
                      "dataReq=%d awaitWB=%d pendingLoads=%zu\n",
                      (unsigned long long)addr, e.owned ? 1 : 0,
                      e.owner, e.marked ? 1 : 0,
                      e.dataReqOutstanding ? 1 : 0,
                      e.awaitingWriteBack ? 1 : 0, n_waiting);
        out += buf;
    }
    return out;
}

} // namespace tcc
