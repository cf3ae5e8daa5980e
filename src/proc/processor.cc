#include "proc/processor.hh"

#include <algorithm>

#include "check/mutate.hh"
#include "common/log.hh"
#include "obs/contention.hh"

namespace tcc {

TccProcessor::TccProcessor(NodeId node, std::uint32_t num_nodes,
                           EventQueue &eq, Network &net, HomeMap &homes,
                           GlobalStore &store,
                           const CacheConfig &cache_cfg,
                           const ProcessorConfig &cfg,
                           NodeId vendor_node, Arena *arena)
    : nodeId(node), numNodes(num_nodes), eventq(eq), network(net),
      homeMap(homes), globalStore(store), specCache(cache_cfg, arena),
      config(cfg), vendorNode(vendor_node), writeBuf(arena),
      sharingVec(num_nodes, arena), writingVec(num_nodes, arena),
      earlyAnswered(num_nodes, arena),
      earlyNstid(num_nodes, kInvalidTid, ArenaAllocator<Tid>(arena)),
      marksDone(num_nodes, arena), sValidated(num_nodes, arena),
      marksCount(num_nodes, 0, ArenaAllocator<std::uint32_t>(arena)),
      writeSetByDir(
          num_nodes,
          LineVec(ArenaAllocator<SpecCache::WriteSetLine>(arena)),
          ArenaAllocator<LineVec>(arena)),
      wsDirs(num_nodes, arena),
      mcastBuf(ArenaAllocator<NodeId>(arena))
{
    // Pre-size the write buffer once: clear() keeps the bucket array,
    // so steady-state attempts never rehash.
    writeBuf.reserve(256);
}

void
TccProcessor::post(Message msg)
{
    msg.src = nodeId;
    msg.bytes = msgBytes(msg.type, specCache.cfg().lineBytes);
    // Write-through commit ships the line data with each mark.
    if (msg.type == MsgType::Mark && writeThrough)
        msg.bytes += specCache.cfg().lineBytes;
    network.send(std::move(msg));
}

void
TccProcessor::postMulticast(Message msg, std::span<const NodeId> dsts)
{
    msg.src = nodeId;
    msg.bytes = msgBytes(msg.type, specCache.cfg().lineBytes);
    if (msg.type == MsgType::Mark && writeThrough)
        msg.bytes += specCache.cfg().lineBytes;
    const MulticastReceipt r = network.multicast(msg, dsts);
    attemptMcastNic += r.nicSerialized;
}

NodeId
TccProcessor::homeOf(Addr addr)
{
    return homeMap.homeOf(addr, nodeId);
}

void
TccProcessor::start()
{
    eventq.schedule(0, [this]() { startNextTransaction(); });
}

// ---------------------------------------------------------------------
// Transaction lifecycle
// ---------------------------------------------------------------------

void
TccProcessor::startNextTransaction()
{
    if (!source)
        panic("proc %u started without a transaction source", nodeId);
    auto txn = source->nextTransaction();
    if (!txn) {
        phase = Phase::Done;
        doneAt = eventq.now();
        if (doneHook)
            doneHook();
        return;
    }
    curOps = std::move(txn->ops);
    consecViolations = 0;
    overflowsThisTxn = 0;
    soloRequested = false;
    if (txn->barrierBefore) {
        if (!barrier)
            panic("proc %u hit a barrier without a barrier service",
                  nodeId);
        idleStart = eventq.now();
        const std::uint64_t my_gen = ++gen;
        barrier(nodeId, [this, my_gen]() {
            if (gen != my_gen)
                panic("proc %u: barrier resume after state change",
                      nodeId);
            procStats.idleCycles += eventq.now() - idleStart;
            beginAttempt();
        });
        return;
    }
    beginAttempt();
}

void
TccProcessor::beginAttempt()
{
    phase = Phase::Exec;
    // A violated value-dependent transaction (TxProgram) regenerates
    // its operation stream against the current committed state.
    if (consecViolations > 0 && source) {
        if (auto fresh = source->regenerateOps())
            curOps = std::move(*fresh);
    }
    traceEmit(tracer, TraceCat::Proc, TraceEventKind::TxBegin, nodeId,
              tid, consecViolations, curOps.size());
    opIdx = 0;
    lastLoaded = 0;
    writeBuf.clear();
    readLog.clear();
    sharingVec.clearAll();
    writingVec.clearAll();
    skipsSent = false;
    validated = false;
    wDirs.clear();
    sOnlyDirs.clear();
    earlyAnswered.clearAll();
    marksDone.clearAll();
    sValidated.clearAll();
    // marksCount entries are always written (sendMarksTo) before they
    // are read (completeCommit), so they need no per-attempt clear.
    // The write-set groups were only filled for dirs in wsDirs.
    wsDirs.forEach([&](NodeId d) { writeSetByDir[d].clear(); });
    wsDirs.clearAll();
    mshr = Mshr{};
    attemptStart = eventq.now();
    attemptUseful = 0;
    attemptMiss = 0;
    attemptInstr = 0;
    attemptMcastNic = 0;
    ++gen;

    // Aging: a repeatedly violated transaction requests its TID at the
    // start of re-execution and retains it, so it ages into the oldest
    // transaction in the system and cannot lose another conflict race.
    if (config.agingThreshold != 0 &&
        consecViolations >= config.agingThreshold &&
        tid == kInvalidTid && !tidReqOutstanding) {
        tidReqOutstanding = true;
        ++procStats.tidRequests;
        Message req;
        req.type = MsgType::TidReq;
        req.dst = vendorNode;
        post(req);
    }

    // Solo-mode fallback for overflowing transactions: acquire the
    // TID, then wait (in startSoloAcquisition) until every directory
    // serves it before executing.
    if (soloRequested && !solo) {
        if (tid == kInvalidTid) {
            if (!tidReqOutstanding) {
                tidReqOutstanding = true;
                ++procStats.tidRequests;
                Message req;
                req.type = MsgType::TidReq;
                req.dst = vendorNode;
                post(req);
            }
            return; // continue in onTidReply
        }
        startSoloAcquisition();
        return;
    }
    step();
}

void
TccProcessor::resumeAfter(Tick delay)
{
    const std::uint64_t my_gen = gen;
    eventq.schedule(delay, [this, my_gen]() {
        if (gen != my_gen)
            return; // attempt was rolled back meanwhile
        step();
    });
}

void
TccProcessor::step()
{
    if (phase != Phase::Exec)
        panic("proc %u stepping outside execution phase", nodeId);
    if (opIdx >= curOps.size()) {
        startCommit();
        return;
    }
    const TxOp &op = curOps[opIdx];
    switch (op.kind) {
      case TxOp::Kind::Compute:
        attemptUseful += op.cycles;
        attemptInstr += op.cycles;
        ++opIdx;
        resumeAfter(op.cycles);
        return;
      case TxOp::Kind::Load:
        execLoad(op);
        return;
      case TxOp::Kind::Store:
      case TxOp::Kind::StoreAdd:
        execStore(op);
        return;
    }
    panic("proc %u: bad op kind", nodeId);
}

void
TccProcessor::accountAccess(Tick latency)
{
    // One cycle of the access is the instruction itself; any extra
    // latency is a stall attributed to the cache-miss bucket.
    attemptUseful += 1;
    if (latency > 1)
        attemptMiss += latency - 1;
    ++attemptInstr;
}

void
TccProcessor::execLoad(const TxOp &op)
{
    auto out = specCache.load(op.addr);
    if (!out.hit) {
        startMiss(op.addr);
        return;
    }
    sharingVec.set(homeOf(op.addr));

    // Functional read: own speculative value first, else the current
    // committed state.
    const Addr word = GlobalStore::wordAlign(op.addr);
    auto it = writeBuf.find(word);
    if (it != writeBuf.end()) {
        lastLoaded = it->second;
    } else {
        lastLoaded = globalStore.read(word);
        readLog.emplace_back(word, lastLoaded);
        if (op.validateValue && lastLoaded != op.value) {
            // Value-based validation (TxProgram): the state this
            // operation stream was generated against has changed;
            // roll back and regenerate.
            ++procStats.valueValidationFailures;
            violate();
            return;
        }
    }

    accountAccess(out.latency);
    ++opIdx;
    resumeAfter(out.latency);
}

void
TccProcessor::execStore(const TxOp &op)
{
    auto out = specCache.store(op.addr);
    if (!out.hit) {
        // Write-allocate: fetch the line, then retry the store.
        startMiss(op.addr);
        return;
    }
    if (out.needsWriteBack) {
        // First speculative write to committed-dirty data: write the
        // old data back to its home first (write-back protocol). The
        // write-back is tagged with the TID whose commit produced the
        // data so the directory can order it against commits on an
        // unordered network (Section 3.3).
        if (out.writeBackTid == kInvalidTid)
            panic("proc %u: dirty data without a prior commit", nodeId);
        Message wb;
        wb.type = MsgType::WriteBack;
        wb.dst = homeOf(op.addr);
        wb.addr = specCache.lineAlign(op.addr);
        wb.tid = out.writeBackTid;
        post(wb);
    }
    writingVec.set(homeOf(op.addr));

    const Addr word = GlobalStore::wordAlign(op.addr);
    const std::uint64_t value = op.kind == TxOp::Kind::Store
                                    ? op.value
                                    : lastLoaded + op.value;
    writeBuf[word] = value;

    accountAccess(out.latency);
    ++opIdx;
    resumeAfter(out.latency);
}

void
TccProcessor::startMiss(Addr addr)
{
    const Addr line = specCache.lineAlign(addr);
    mshr.active = true;
    mshr.lineAddr = line;
    mshr.poisoned = false;
    mshr.gen = gen;
    mshr.seq = ++loadSeq;
    missStart = eventq.now();
    Message req;
    req.type = MsgType::LoadReq;
    req.dst = homeOf(addr);
    req.addr = line;
    req.seq = mshr.seq;
    post(req);
}

void
TccProcessor::onLoadReply(const Message &msg)
{
    const bool relevant = mshr.active && mshr.lineAddr == msg.addr &&
                          mshr.gen == gen && msg.seq == mshr.seq;
    if (!relevant) {
        // Reply for a rolled-back attempt or a stale/duplicated reply
        // (seq mismatch). It must be DROPPED, not filled: the
        // violation that rolled us back also removed us from the
        // directory's sharers list, so caching this data would let
        // later loads hit locally while no invalidations are routed to
        // us - a silently missed conflict. The retry's own LoadReq
        // re-registers us as a sharer, carrying a fresh seq.
        return;
    }
    if (mshr.poisoned) {
        // An invalidation overtook this fill (Section 3.3 race): drop
        // the data and retry the load, re-registering as a sharer. The
        // retry carries a fresh seq so a duplicate of THIS reply
        // cannot satisfy it before the directory re-registers us.
        mshr.poisoned = false;
        mshr.seq = ++loadSeq;
        Message req;
        req.type = MsgType::LoadReq;
        req.dst = homeOf(msg.addr);
        req.addr = msg.addr;
        req.seq = mshr.seq;
        post(req);
        return;
    }
    auto fill = specCache.fill(msg.addr);
    if (fill.overflow) {
        ++procStats.overflows;
        ++overflowsThisTxn;
        if (solo) {
            // Unviolable: drain the write-set to the directories, then
            // retry this access.
            mshr = Mshr{};
            startDrain();
            return;
        }
        // Roll back; after enough overflows the retry runs in solo
        // mode (overflow virtualization).
        if (config.soloOverflowThreshold != 0 &&
            overflowsThisTxn >= config.soloOverflowThreshold) {
            soloRequested = true;
        }
        mshr = Mshr{};
        violate();
        return;
    }
    if (fill.evictedDirty) {
        Message wb;
        wb.type = MsgType::WriteBack;
        wb.dst = homeOf(fill.evictedAddr);
        wb.addr = fill.evictedAddr;
        wb.tid = fill.evictedTid;
        post(wb);
    }
    mshr = Mshr{};
    attemptMiss += eventq.now() - missStart;
    step(); // retry the faulting op; it hits now
}

// ---------------------------------------------------------------------
// Commit engine
// ---------------------------------------------------------------------

void
TccProcessor::startCommit()
{
    phase = Phase::Commit;
    commitStart = eventq.now();

    // Group the write set by home directory and compute the dir sets.
    for (const auto &line : specCache.writeSet()) {
        const NodeId d = homeOf(line.lineAddr);
        writeSetByDir[d].push_back(line);
        wsDirs.set(d);
    }
    writingVec.forEach([&](NodeId d) { wDirs.push_back(d); });
    sharingVec.forEach([&](NodeId d) {
        if (!writingVec.test(d))
            sOnlyDirs.push_back(d);
    });
    traceEmit(tracer, TraceCat::Commit, TraceEventKind::CommitStart,
              nodeId, tid, wDirs.size(), sOnlyDirs.size());

    if (solo) {
        soloCommit();
        return;
    }

    if (tid == kInvalidTid) {
        if (!tidReqOutstanding) {
            tidReqOutstanding = true;
            ++procStats.tidRequests;
            Message req;
            req.type = MsgType::TidReq;
            req.dst = vendorNode;
            post(req);
        }
        // Overlap the TID round trip with early NSTID probes. Each
        // group carries one payload, so it fans out as a multicast
        // (flat mode emits the exact per-directory loop it replaced).
        for (NodeId d : wDirs) {
            traceEmit(tracer, TraceCat::Commit,
                      TraceEventKind::ProbeSend, nodeId, kInvalidTid, d,
                      1);
        }
        if (!wDirs.empty()) {
            Message p;
            p.type = MsgType::Probe;
            p.tid = kInvalidTid;
            p.wantWrite = true;
            postMulticast(p, wDirs);
        }
        for (NodeId d : sOnlyDirs) {
            traceEmit(tracer, TraceCat::Commit,
                      TraceEventKind::ProbeSend, nodeId, kInvalidTid, d,
                      0);
        }
        if (!sOnlyDirs.empty()) {
            Message p;
            p.type = MsgType::Probe;
            p.tid = kInvalidTid;
            p.wantWrite = false;
            postMulticast(p, sOnlyDirs);
        }
        return; // continue in onTidReply
    }
    proceedAfterTid();
}

void
TccProcessor::onTidReply(const Message &msg)
{
    tidReqOutstanding = false;
    tid = msg.tid;
    lastTidAcquired = msg.tid;
    traceEmit(tracer, TraceCat::Commit, TraceEventKind::TidAcquire,
              nodeId, msg.tid);
    if (contention)
        contention->recordTidOwner(msg.tid, nodeId);
    if (phase == Phase::Commit && !skipsSent) {
        proceedAfterTid();
        return;
    }
    if (phase == Phase::Exec && soloRequested && !solo && opIdx == 0)
        startSoloAcquisition();
    // Otherwise this was an aged early request: just hold the TID.
}

void
TccProcessor::proceedAfterTid()
{
    skipsSent = true;
    // Multicast Skip to every directory outside the write-set,
    // including sharing-only directories (they will not see a commit
    // from this TID). This is the broadcast-at-scale hot spot the
    // combining tree exists for: N - |wDirs| identical messages.
    mcastBuf.clear();
    for (NodeId d = 0; d < numNodes; ++d) {
        if (writingVec.test(d))
            continue;
        traceEmit(tracer, TraceCat::Commit, TraceEventKind::SkipSend,
                  nodeId, tid, d);
        mcastBuf.push_back(d);
    }
    if (!mcastBuf.empty()) {
        Message s;
        s.type = MsgType::Skip;
        s.tid = tid;
        postMulticast(s, mcastBuf);
    }
    for (NodeId d : wDirs) {
        if (earlyAnswered.test(d) && earlyNstid[d] == tid)
            sendMarksTo(d);
        else
            sendProbe(d, tid, true);
    }
    for (NodeId d : sOnlyDirs) {
        if (earlyAnswered.test(d) && earlyNstid[d] >= tid)
            sValidated.set(d);
        else
            sendProbe(d, tid, false);
    }
    checkValidationDone();
}

void
TccProcessor::onProbeReply(const Message &msg)
{
    traceEmit(tracer, TraceCat::Commit, TraceEventKind::ProbeReplyRecv,
              nodeId, msg.tid, msg.src, msg.nstid);
    if (phase == Phase::Exec && soloRequested && !solo &&
        msg.tid == tid && msg.tid != kInvalidTid) {
        // Solo acquisition: this directory now serves our TID.
        if (soloProbesPending == 0)
            panic("proc %u: stray solo probe reply", nodeId);
        if (--soloProbesPending == 0) {
            solo = true;
            specCache.setSrTracking(false);
            step();
        }
        return;
    }
    if (phase != Phase::Commit)
        return; // stale reply for a rolled-back attempt
    if (msg.tid == kInvalidTid) {
        // Early probe answer.
        if (tid != kInvalidTid && skipsSent) {
            interpretNstid(msg.src, msg.nstid);
        } else {
            earlyAnswered.set(msg.src);
            earlyNstid[msg.src] = msg.nstid;
        }
        return;
    }
    if (msg.tid != tid)
        return; // reply to an aborted attempt's probe
    interpretNstid(msg.src, msg.nstid);
}

void
TccProcessor::interpretNstid(NodeId dir, Tid observed)
{
    if (writingVec.test(dir)) {
        if (marksDone.test(dir))
            return;
        if (observed == tid) {
            sendMarksTo(dir);
        } else if (observed < tid) {
            // Early snapshot was behind: issue a real (deferred) probe.
            sendProbe(dir, tid, true);
        }
        // observed > tid would mean the directory passed our TID
        // without us committing - only possible for stale replies,
        // which were filtered above.
        return;
    }
    if (!sharingVec.test(dir)) {
        // Stale early (TID-less) probe reply from a rolled-back
        // attempt, for a directory this attempt never read: counting
        // it would corrupt the validation bookkeeping. (For dirs that
        // ARE in the current read set, a stale snapshot only ever
        // under-reports the NSTID, so acting on it stays safe.)
        return;
    }
    if (sValidated.test(dir))
        return;
    if (observed >= tid) {
        sValidated.set(dir);
        checkValidationDone();
    } else {
        sendProbe(dir, tid, false);
    }
}

void
TccProcessor::sendProbe(NodeId dir, Tid probe_tid, bool want_write)
{
    traceEmit(tracer, TraceCat::Commit, TraceEventKind::ProbeSend,
              nodeId, probe_tid, dir, want_write ? 1 : 0);
    Message p;
    p.type = MsgType::Probe;
    p.dst = dir;
    p.tid = probe_tid;
    p.wantWrite = want_write;
    post(p);
}

void
TccProcessor::sendMarksTo(NodeId dir)
{
    if (!wsDirs.test(dir))
        panic("proc %u: writing dir %u with empty write set", nodeId,
              dir);
    const auto &lines = writeSetByDir[dir];
    traceEmit(tracer, TraceCat::Commit, TraceEventKind::MarkSend,
              nodeId, tid, dir, lines.size());
    for (const auto &line : lines) {
        Message m;
        m.type = MsgType::Mark;
        m.dst = dir;
        m.addr = line.lineAddr;
        m.tid = tid;
        m.wordMask = line.smMask;
        post(m);
    }
    marksCount[dir] = static_cast<std::uint32_t>(lines.size());
    marksDone.set(dir);
    checkValidationDone();
}

void
TccProcessor::checkValidationDone()
{
    if (validated || phase != Phase::Commit || !skipsSent)
        return;
    // Popcount the bitmaps against the dir-list sizes.
    if (marksDone.count() != wDirs.size())
        return;
    if (sValidated.count() != sOnlyDirs.size())
        return;
    completeCommit();
}

void
TccProcessor::completeCommit()
{
    validated = true;
    TCC_TRACEF(TraceCat::Commit,
               "%llu: proc %u commits tid=%llu reads=%zu writes=%zu",
               (unsigned long long)eventq.now(), nodeId,
               (unsigned long long)tid, readLog.size(), writeBuf.size());
    // Emitted before TxCommit so ledger folds see the fan-out numbers
    // while the transaction record is still open.
    traceEmit(tracer, TraceCat::Commit, TraceEventKind::CommitFanout,
              nodeId, tid, wDirs.size() + sOnlyDirs.size(),
              attemptMcastNic);
    traceEmit(tracer, TraceCat::Commit, TraceEventKind::TxCommit,
              nodeId, tid, readLog.size(), writeBuf.size());

    // Publish the write buffer: this is the transaction's global
    // serialization point in the functional model.
    for (const auto &[addr, value] : writeBuf)
        globalStore.write(addr, value);
    if (commitHook)
        commitHook(tid, nodeId, readLog, writeLogForHook());

    for (NodeId d : wDirs) {
        Message c;
        c.type = MsgType::Commit;
        c.dst = d;
        c.tid = tid;
        c.numMarks = marksCount[d];
        post(c);
    }

    recordCommitStats(wDirs.size(), wDirs.size() + sOnlyDirs.size());
    specCache.commitSpec(tid, !writeThrough);
    finishTransaction();
}

void
TccProcessor::recordCommitStats(std::size_t write_dirs,
                                std::size_t dirs_touched)
{
    // Table 3 statistics (before clearing speculative state).
    const auto ws = specCache.writeSet();
    const double line_kb = specCache.cfg().lineBytes / 1024.0;
    procStats.txnWriteSetKB.sample(ws.size() * line_kb);
    procStats.txnReadSetKB.sample(specCache.readSetLines() * line_kb);
    procStats.txnInstructions.sample(
        static_cast<double>(attemptInstr));
    if (!writeBuf.empty()) {
        procStats.opsPerWordWritten.sample(
            static_cast<double>(attemptInstr) /
            static_cast<double>(writeBuf.size()));
    }
    procStats.dirsPerCommit.sample(
        static_cast<double>(write_dirs));
    procStats.dirsTouchedPerCommit.sample(
        static_cast<double>(dirs_touched));
    procStats.multicastNicPerCommit.sample(
        static_cast<double>(attemptMcastNic));

    const Tick commit_cycles = eventq.now() - commitStart;
    procStats.commitLatency.sample(static_cast<double>(commit_cycles));
    procStats.usefulCycles += attemptUseful;
    procStats.missCycles += attemptMiss;
    procStats.commitCycles += commit_cycles;
    procStats.committedInstructions += attemptInstr;
    ++procStats.txnsCommitted;
}

void
TccProcessor::finishTransaction()
{
    tid = kInvalidTid; // consumed
    phase = Phase::Idle;
    ++gen;
    if (source)
        source->transactionCommitted();
    eventq.schedule(1, [this]() { startNextTransaction(); });
}

// ---------------------------------------------------------------------
// Solo mode (overflow virtualization)
// ---------------------------------------------------------------------

void
TccProcessor::startSoloAcquisition()
{
    // Write-probe every directory; each reply is deferred until that
    // directory's NSTID equals our TID, i.e., until every older
    // transaction retired there. Once all replies arrive, nothing can
    // violate this transaction and nothing younger can commit anywhere.
    soloProbesPending = numNodes;
    mcastBuf.clear();
    for (NodeId d = 0; d < numNodes; ++d) {
        traceEmit(tracer, TraceCat::Commit, TraceEventKind::ProbeSend,
                  nodeId, tid, d, 1);
        mcastBuf.push_back(d);
    }
    Message p;
    p.type = MsgType::Probe;
    p.tid = tid;
    p.wantWrite = true;
    postMulticast(p, mcastBuf);
}

std::vector<std::pair<Addr, std::uint64_t>>
TccProcessor::writeLogForHook() const
{
    std::vector<std::pair<Addr, std::uint64_t>> writes;
    writes.reserve(writeBuf.size());
    for (const auto &[addr, value] : writeBuf)
        writes.emplace_back(addr, value);
    return writes;
}

void
TccProcessor::startDrain()
{
    ++procStats.drains;
    // Publish the values drained so far: the directories are about to
    // make them architecturally visible through invalidations and
    // data forwarding.
    for (const auto &[addr, value] : writeBuf)
        globalStore.write(addr, value);

    FlatMap<NodeId, std::vector<SpecCache::WriteSetLine>> by_dir;
    for (const auto &line : specCache.writeSet())
        by_dir[homeOf(line.lineAddr)].push_back(line);
    if (by_dir.empty())
        panic("proc %u: solo overflow with empty write set", nodeId);

    // Emit batches in ascending directory order: message order must be
    // a function of the write set, never of container iteration order.
    drainAcksPending = static_cast<std::uint32_t>(by_dir.size());
    traceEmit(tracer, TraceCat::Proc, TraceEventKind::SoloDrain, nodeId,
              tid, drainAcksPending);
    for (NodeId d = 0; d < numNodes; ++d) {
        auto it = by_dir.find(d);
        if (it == by_dir.end())
            continue;
        const auto &lines = it->second;
        for (const auto &line : lines) {
            Message m;
            m.type = MsgType::Mark;
            m.dst = d;
            m.addr = line.lineAddr;
            m.tid = tid;
            m.wordMask = line.smMask;
            post(m);
        }
        Message pc;
        pc.type = MsgType::PartialCommit;
        pc.dst = d;
        pc.tid = tid;
        pc.numMarks = static_cast<std::uint32_t>(lines.size());
        post(pc);
    }
    // Locally the drained lines become ordinary committed-dirty data
    // (evictable); execution resumes when every batch is acked.
    specCache.commitSpec(tid);
}

void
TccProcessor::onPartialAck(const Message &msg)
{
    if (!solo || msg.tid != tid)
        return; // stale
    if (drainAcksPending == 0)
        panic("proc %u: unexpected partial ack", nodeId);
    if (--drainAcksPending == 0)
        step(); // retry the access that overflowed
}

void
TccProcessor::soloCommit()
{
    validated = true;
    for (const auto &[addr, value] : writeBuf)
        globalStore.write(addr, value);
    if (commitHook)
        commitHook(tid, nodeId, readLog, writeLogForHook());

    // Remaining (undrained) write-set lines commit normally; every
    // other directory - including ones that only saw partial batches -
    // gets a Skip so the TID retires everywhere. Directories are
    // visited in ascending order for deterministic message emission.
    for (NodeId d = 0; d < numNodes; ++d) {
        if (!wsDirs.test(d))
            continue;
        const auto &lines = writeSetByDir[d];
        for (const auto &line : lines) {
            Message m;
            m.type = MsgType::Mark;
            m.dst = d;
            m.addr = line.lineAddr;
            m.tid = tid;
            m.wordMask = line.smMask;
            post(m);
        }
        Message c;
        c.type = MsgType::Commit;
        c.dst = d;
        c.tid = tid;
        c.numMarks = static_cast<std::uint32_t>(lines.size());
        post(c);
    }
    mcastBuf.clear();
    for (NodeId d = 0; d < numNodes; ++d) {
        if (!wsDirs.test(d))
            mcastBuf.push_back(d);
    }
    if (!mcastBuf.empty()) {
        Message skip;
        skip.type = MsgType::Skip;
        skip.tid = tid;
        postMulticast(skip, mcastBuf);
    }

    // CommitFanout must precede TxCommit so ledger folds see the
    // fan-out numbers while the transaction record is still open; the
    // emission is deferred past the Skip multicast above so the NIC
    // count is final. Same tick, so the projected golden-trace order
    // is unchanged.
    const std::size_t solo_dirs = wsDirs.count();
    traceEmit(tracer, TraceCat::Commit, TraceEventKind::CommitFanout,
              nodeId, tid, solo_dirs, attemptMcastNic);
    traceEmit(tracer, TraceCat::Commit, TraceEventKind::TxCommit,
              nodeId, tid, readLog.size(), writeBuf.size());
    recordCommitStats(solo_dirs, solo_dirs);
    ++procStats.soloCommits;
    specCache.commitSpec(tid);
    specCache.setSrTracking(true);
    solo = false;
    soloRequested = false;
    overflowsThisTxn = 0;
    finishTransaction();
}

// ---------------------------------------------------------------------
// Violations
// ---------------------------------------------------------------------

void
TccProcessor::violate()
{
    TCC_TRACEF(TraceCat::Proc,
               "%llu: proc %u VIOLATES tid=%lld phase=%d skipsSent=%d",
               (unsigned long long)eventq.now(), nodeId,
               tid == kInvalidTid ? -1LL : (long long)tid,
               static_cast<int>(phase), skipsSent ? 1 : 0);
    ++procStats.violations;
    ++consecViolations;
    traceEmit(tracer, TraceCat::Proc, TraceEventKind::TxViolation,
              nodeId, tid, consecViolations);
    procStats.violationCycles +=
        eventq.now() - attemptStart + config.violationRestartPenalty;

    specCache.abortSpec();
    if (source)
        source->transactionViolated();

    const Tid tid_before = tid;
    const bool announced = phase == Phase::Commit && skipsSent;
    if (announced) {
        // The TID was announced to the world; release it so every
        // directory can retire it, and take a fresh one on retry.
        for (NodeId d : wDirs) {
            Message a;
            a.type = MsgType::Abort;
            a.dst = d;
            a.tid = tid;
            post(a);
        }
        tid = kInvalidTid;
    }
    // If a TID request is still outstanding, the eventual reply is
    // retained as an early TID for the retry (see onTidReply).
    if (mutate::is(mutate::Kind::TidDropOnViolation) && !announced)
        tid = kInvalidTid;
    if (invariants)
        invariants->onViolation(nodeId, tid_before, announced, tid);

    mshr = Mshr{};
    phase = Phase::Exec;
    ++gen;
    eventq.schedule(config.violationRestartPenalty,
                    [this, my_gen = gen]() {
                        if (gen != my_gen)
                            return;
                        beginAttempt();
                    });
}

void
TccProcessor::onInv(const Message &msg)
{
    const bool was_dirty = specCache.isDirty(msg.addr);
    auto out = specCache.invalidate(msg.addr, msg.wordMask);
    if (mshr.active && mshr.lineAddr == msg.addr)
        mshr.poisoned = true;

    // Violation decision: our speculatively-read words were committed
    // by a transaction ordered *before* us.
    const bool active_attempt =
        phase == Phase::Exec || (phase == Phase::Commit && !validated);
    const bool violating =
        out.srOverlap && active_attempt &&
        (tid == kInvalidTid || msg.tid < tid);

    // A transaction that survives a non-overlapping invalidation but
    // still holds speculative state on the line (it read or wrote
    // other words) must stay in the sharers list, or it would silently
    // stop receiving invalidations for the words it did read. The ack
    // carries that request; the directory processes every ack before
    // advancing its NSTID, so there is no window.
    const bool keep_sharer =
        !violating && (specCache.srMask(msg.addr) != 0 ||
                       specCache.smMask(msg.addr) != 0);

    // Acknowledge: a committed-dirty line flushes its data with the
    // ack so memory is current before the committing directory
    // advances its NSTID.
    if (was_dirty) {
        Message f;
        f.type = MsgType::FlushData;
        f.dst = msg.src;
        f.addr = msg.addr;
        f.invResponse = true;
        f.hadData = true;
        f.keepSharer = keep_sharer;
        post(f);
    } else {
        Message a;
        a.type = MsgType::InvAck;
        a.dst = msg.src;
        a.addr = msg.addr;
        a.tid = msg.tid;
        a.keepSharer = keep_sharer;
        post(a);
    }

    TCC_TRACEF(TraceCat::Proc,
               "%llu: proc %u inv addr=%llx from tid=%lld sr=%d "
               "myTid=%lld phase=%d validated=%d keep=%d",
               (unsigned long long)eventq.now(), nodeId,
               (unsigned long long)msg.addr, (long long)msg.tid,
               out.srOverlap ? 1 : 0,
               tid == kInvalidTid ? -1LL : (long long)tid,
               static_cast<int>(phase), validated ? 1 : 0,
               keep_sharer ? 1 : 0);

    // Conflict attribution: every overlapping invalidation is a
    // conflict on this word; only a violating one is an abort, and the
    // wasted work charged to it is the same quantity violate() is
    // about to add to violationCycles.
    if (contention && (out.srOverlap || out.smOverlap)) {
        const std::uint64_t wasted =
            violating ? eventq.now() - attemptStart +
                            config.violationRestartPenalty
                      : 0;
        contention->recordConflict(nodeId, msg.tid, msg.addr,
                                   out.srOverlap, out.smOverlap,
                                   violating, wasted);
    }

    if (violating) {
        ++procStats.violationAddrs[msg.addr];
        // The cause record names the *writer's* TID in the tid field.
        traceEmit(tracer, TraceCat::Proc,
                  TraceEventKind::ViolationCause, nodeId, msg.tid,
                  msg.addr);
        violate();
    }
}

void
TccProcessor::onDataReq(const Message &msg)
{
    Message f;
    f.type = MsgType::FlushData;
    f.dst = msg.src;
    f.addr = msg.addr;
    f.invResponse = false;
    if (specCache.isDirty(msg.addr)) {
        specCache.flushLine(msg.addr);
        f.hadData = true;
    } else {
        // Already evicted; the WriteBack is in flight.
        f.hadData = false;
    }
    post(f);
}

std::string
TccProcessor::debugDump() const
{
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "proc %u: phase=%d opIdx=%zu/%zu tid=%lld tidReq=%d "
        "skipsSent=%d validated=%d wDirs=%zu marksDone=%u "
        "sOnly=%zu sValidated=%u mshr={act=%d addr=%llx poison=%d}\n",
        nodeId, static_cast<int>(phase), opIdx, curOps.size(),
        tid == kInvalidTid ? -1LL : (long long)tid,
        tidReqOutstanding ? 1 : 0, skipsSent ? 1 : 0,
        validated ? 1 : 0, wDirs.size(), marksDone.count(),
        sOnlyDirs.size(), sValidated.count(), mshr.active ? 1 : 0,
        (unsigned long long)mshr.lineAddr, mshr.poisoned ? 1 : 0);
    return buf;
}

// ---------------------------------------------------------------------
// Message dispatch
// ---------------------------------------------------------------------

void
TccProcessor::receive(const Message &msg)
{
    switch (msg.type) {
      case MsgType::LoadReply: onLoadReply(msg); break;
      case MsgType::TidReply: onTidReply(msg); break;
      case MsgType::ProbeReply: onProbeReply(msg); break;
      case MsgType::Inv: onInv(msg); break;
      case MsgType::DataReq: onDataReq(msg); break;
      case MsgType::PartialAck: onPartialAck(msg); break;
      default:
        panic("proc %u got unexpected %s", nodeId,
              msgTypeName(msg.type));
    }
}

} // namespace tcc
