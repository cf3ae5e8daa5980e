#include "proc/processor.hh"

#include <algorithm>
#include <utility>

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
      commitDirs(ArenaAllocator<CommitDir>(arena)),
      commitLines(ArenaAllocator<SpecCache::WriteSetLine>(arena)),
      mcastBuf(ArenaAllocator<NodeId>(arena))
{}

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
    // Accesses come in runs within a page; a re-bind() bumps the
    // map's epoch and so drops the memo.
    const Addr page = addr & ~Addr{homeMap.pageSize() - 1};
    if (page != homeMemoPage || homeMap.epoch() != homeMemoEpoch) {
        homeMemoNode = homeMap.homeOf(addr, nodeId);
        homeMemoPage = page;
        homeMemoEpoch = homeMap.epoch();
    }
    return homeMemoNode;
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
    traceEmit(tracer, TraceEventKind::TxBegin, nodeId, tid,
              consecViolations, curOps.size());
    opIdx = 0;
    lastLoaded = 0;
    writeBuf.clear();
    readLog.clear();
    sharingVec.clearAll();
    writingVec.clearAll();
    skipsSent = false;
    validated = false;
    commitDirs.clear();
    mshr = Mshr{};
    attemptStart = eventq.now();
    attemptUseful = 0;
    attemptMiss = 0;
    attemptInstr = 0;
    attemptMcastNic = 0;
    txRec.firstSkipTick = 0;
    txRec.firstMarkTick = 0;
    ++gen;

    // Aging: a repeatedly violated transaction requests its TID at the
    // start of re-execution and retains it, so it ages into the oldest
    // transaction in the system and cannot lose another conflict race.
    if (config.agingThreshold != 0 &&
        consecViolations >= config.agingThreshold && tid == kInvalidTid)
        requestTid();

    // Solo-mode fallback for overflowing transactions: acquire the
    // TID, then wait (in startSoloAcquisition) until every directory
    // serves it before executing.
    if (soloRequested && !solo) {
        if (tid == kInvalidTid) {
            requestTid();
            return; // continue in onTidReply
        }
        startSoloAcquisition();
        return;
    }
    step();
}

void
TccProcessor::requestTid()
{
    if (tidReqOutstanding)
        return;
    tidReqOutstanding = true;
    ++procStats.tidRequests;
    Message req;
    req.type = MsgType::TidReq;
    req.dst = vendorNode;
    post(req);
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

    buildCommitTable();
    traceEmit(tracer, TraceEventKind::CommitStart, nodeId, tid,
              writingVec.count(), commitDirs.size() - writingVec.count());

    if (solo) {
        soloCommit();
        return;
    }

    if (tid == kInvalidTid) {
        requestTid();
        // Overlap the TID round trip with early NSTID probes: one
        // multicast to the writing directories, one to the others.
        for (const bool write : {true, false}) {
            mcastBuf.clear();
            for (CommitDir &e : commitDirs) {
                if (e.write != write)
                    continue;
                traceEmit(tracer, TraceEventKind::ProbeSend, nodeId,
                          kInvalidTid, e.node, write ? 1 : 0);
                e.earlyProbeOut = true;
                mcastBuf.push_back(e.node);
            }
            if (!mcastBuf.empty()) {
                Message p;
                p.type = MsgType::Probe;
                p.tid = kInvalidTid;
                p.wantWrite = write;
                postMulticast(p, mcastBuf);
            }
        }
        return; // continue in onTidReply
    }
    proceedAfterTid();
}

void
TccProcessor::buildCommitTable()
{
    commitDirs.clear();
    writingVec.forEach([&](NodeId d) {
        commitDirs.push_back(CommitDir{.node = d, .write = true});
    });
    sharingVec.forEach([&](NodeId d) {
        if (!writingVec.test(d))
            commitDirs.push_back(CommitDir{.node = d});
    });
    std::sort(commitDirs.begin(), commitDirs.end());
    dirsPending = static_cast<std::uint32_t>(commitDirs.size());

    // Group the write set by home, keeping each home's lines in
    // write-set order: count per directory, then place.
    specCache.writeSet(writeSetBuf);
    const auto home_entry = [&](Addr line) -> CommitDir & {
        CommitDir *e = findDir(homeOf(line));
        if (!e || !e->write)
            panic("proc %u: write-set line %llx homed outside the "
                  "Writing vector", nodeId, (unsigned long long)line);
        return *e;
    };
    for (const auto &line : writeSetBuf)
        ++home_entry(line.lineAddr).linesEnd;
    std::uint32_t at = 0;
    for (CommitDir &e : commitDirs) {
        e.linesBegin = at;
        at += std::exchange(e.linesEnd, at);
    }
    commitLines.resize(writeSetBuf.size());
    for (const auto &line : writeSetBuf)
        commitLines[home_entry(line.lineAddr).linesEnd++] = line;
}

TccProcessor::CommitDir *
TccProcessor::findDir(NodeId dir)
{
    const auto it = std::lower_bound(commitDirs.begin(), commitDirs.end(),
                                     CommitDir{.node = dir});
    return it != commitDirs.end() && it->node == dir ? &*it : nullptr;
}

void
TccProcessor::onTidReply(const Message &msg)
{
    tidReqOutstanding = false;
    tid = msg.tid;
    lastTidAcquired = msg.tid;
    traceEmit(tracer, TraceEventKind::TidAcquire, nodeId, msg.tid);
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
    // combining tree exists for: N - |writingVec| identical messages.
    mcastBuf.clear();
    for (NodeId d = 0; d < numNodes; ++d) {
        if (writingVec.test(d))
            continue;
        traceEmit(tracer, TraceEventKind::SkipSend, nodeId, tid, d);
        mcastBuf.push_back(d);
    }
    if (!mcastBuf.empty()) {
        txRec.firstSkipTick = eventq.now();
        Message s;
        s.type = MsgType::Skip;
        s.tid = tid;
        postMulticast(s, mcastBuf);
    }
    // Early answers are read like late ones; the other directories
    // get a probe carrying the TID, writing directories first.
    for (const bool write : {true, false}) {
        for (CommitDir &e : commitDirs) {
            if (e.write != write)
                continue;
            if (e.earlyNstid != kInvalidTid)
                interpretNstid(e, e.earlyNstid);
            else
                sendProbe(e);
        }
    }
    checkValidationDone();
}

void
TccProcessor::onProbeReply(const Message &msg)
{
    traceEmit(tracer, TraceEventKind::ProbeReplyRecv, nodeId, msg.tid,
              msg.src, msg.nstid);
    if (phase == Phase::Exec && soloRequested && !solo &&
        msg.tid == tid && msg.tid != kInvalidTid) {
        // Solo acquisition: this directory now serves our TID.
        if (soloProbesPending == 0)
            panic("proc %u: stray solo probe reply", nodeId);
        noteProbeRtt(soloProbeSentAt);
        if (--soloProbesPending == 0) {
            solo = true;
            specCache.setSrTracking(false);
            step();
        }
        return;
    }
    if (phase != Phase::Commit)
        return; // stale reply for a rolled-back attempt
    // A directory outside the table, or a TID other than ours: a
    // rolled-back attempt's reply. (Inside the table a stale snapshot
    // only ever under-reports the NSTID, so acting on it is safe.)
    CommitDir *e = findDir(msg.src);
    if (!e)
        return;
    noteProbeReply(*e, msg);
    if (msg.tid == kInvalidTid && !skipsSent)
        e->earlyNstid = msg.nstid; // read once the TID arrives
    else if (msg.tid == kInvalidTid || msg.tid == tid)
        interpretNstid(*e, msg.nstid);
}

void
TccProcessor::interpretNstid(CommitDir &dir, Tid observed)
{
    if (dir.done)
        return;
    if (dir.write) {
        if (observed == tid) {
            sendMarksTo(dir);
        } else if (observed < tid) {
            // Early snapshot was behind: issue a real (deferred) probe.
            sendProbe(dir);
        }
        // observed > tid would mean the directory passed our TID
        // without us committing - only possible for stale replies,
        // which were filtered above.
        return;
    }
    if (observed >= tid) {
        dir.done = true;
        --dirsPending;
        checkValidationDone();
    } else {
        sendProbe(dir);
    }
}

void
TccProcessor::sendProbe(CommitDir &dir)
{
    traceEmit(tracer, TraceEventKind::ProbeSend, nodeId, tid, dir.node,
              dir.write ? 1 : 0);
    // A late early answer behind the TID probes again, so two can be
    // out; a duplicated answer can probe a third time, which takes the
    // newer slot.
    const std::uint8_t slot = std::min<std::uint8_t>(dir.tidProbesOut, 1);
    dir.tidProbeAt[slot] = eventq.now();
    dir.tidProbesOut = slot + 1;
    Message p;
    p.type = MsgType::Probe;
    p.dst = dir.node;
    p.tid = tid;
    p.wantWrite = dir.write;
    post(p);
}

void
TccProcessor::noteProbeRtt(Tick sent)
{
    const Tick rtt = eventq.now() - sent;
    ++txRec.probeCount;
    txRec.probeRttTotal += rtt;
    txRec.probeRttMax = std::max(txRec.probeRttMax, rtt);
}

void
TccProcessor::noteProbeReply(CommitDir &dir, const Message &msg)
{
    if (msg.tid == kInvalidTid) {
        if (std::exchange(dir.earlyProbeOut, false))
            noteProbeRtt(commitStart);
    } else if (msg.tid == tid && dir.tidProbesOut != 0) {
        noteProbeRtt(dir.tidProbeAt[0]);
        dir.tidProbeAt[0] = dir.tidProbeAt[1];
        --dir.tidProbesOut;
    }
}

void
TccProcessor::sendMarksTo(CommitDir &dir)
{
    if (dir.lines() == 0)
        panic("proc %u: writing dir %u with empty write set", nodeId,
              dir.node);
    traceEmit(tracer, TraceEventKind::MarkSend, nodeId, tid, dir.node,
              dir.lines());
    if (txRec.firstMarkTick == 0)
        txRec.firstMarkTick = eventq.now();
    postMarks(dir);
    dir.done = true;
    --dirsPending;
    checkValidationDone();
}

void
TccProcessor::postMarks(const CommitDir &dir)
{
    for (std::uint32_t i = dir.linesBegin; i < dir.linesEnd; ++i) {
        Message m;
        m.type = MsgType::Mark;
        m.dst = dir.node;
        m.addr = commitLines[i].lineAddr;
        m.tid = tid;
        m.wordMask = commitLines[i].smMask;
        post(m);
    }
}

void
TccProcessor::checkValidationDone()
{
    if (validated || phase != Phase::Commit || !skipsSent)
        return;
    if (dirsPending == 0)
        completeCommit();
}

void
TccProcessor::completeCommit()
{
    validated = true;
    traceEmit(tracer, TraceEventKind::TxCommit, nodeId, tid,
              readLog.size(), writeBuf.size());

    // Publish the write buffer: this is the transaction's global
    // serialization point in the functional model.
    for (const auto &[addr, value] : writeBuf)
        globalStore.write(addr, value);
    runCommitHook();

    for (const CommitDir &e : commitDirs) {
        if (!e.write)
            continue;
        Message c;
        c.type = MsgType::Commit;
        c.dst = e.node;
        c.tid = tid;
        c.numMarks = e.lines();
        post(c);
    }

    recordCommitStats(writingVec.count(), commitDirs.size());
    specCache.commitSpec(tid, !writeThrough);
    finishTransaction();
}

void
TccProcessor::recordCommitStats(std::size_t write_dirs,
                                std::size_t dirs_touched)
{
    procStats.dirsPerCommit.sample(
        static_cast<double>(write_dirs));
    procStats.multicastNicPerCommit.sample(
        static_cast<double>(attemptMcastNic));

    const Tick commit_cycles = eventq.now() - commitStart;
    procStats.commitLatency.sample(static_cast<double>(commit_cycles));
    procStats.usefulCycles += attemptUseful;
    procStats.missCycles += attemptMiss;
    procStats.commitCycles += commit_cycles;
    procStats.committedInstructions += attemptInstr;
    ++procStats.txnsCommitted;

    // The ledger record, sizes read before speculative state clears.
    if (ledger) {
        TxLedgerEntry &r = ledger->emplace_back(std::move(txRec));
        const SpecCache::SetSizes sizes = specCache.setSizes();
        r.tid = tid;
        r.node = nodeId;
        r.retries = consecViolations;
        r.beginTick = attemptStart;
        r.commitStartTick = commitStart;
        r.commitEndTick = eventq.now();
        r.instructions = attemptInstr;
        r.directoriesTouched = static_cast<std::uint32_t>(dirs_touched);
        r.multicastEvents = static_cast<std::uint32_t>(attemptMcastNic);
        r.writeLines = sizes.writeLines;
        r.readLines = sizes.readLines;
        r.wordsWritten = static_cast<std::uint32_t>(writeBuf.size());
    }
    txRec = TxLedgerEntry{};
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
    soloProbeSentAt = eventq.now();
    mcastBuf.clear();
    for (NodeId d = 0; d < numNodes; ++d) {
        traceEmit(tracer, TraceEventKind::ProbeSend, nodeId, tid, d, 1);
        mcastBuf.push_back(d);
    }
    Message p;
    p.type = MsgType::Probe;
    p.tid = tid;
    p.wantWrite = true;
    postMulticast(p, mcastBuf);
}

void
TccProcessor::runCommitHook()
{
    if (!commitHook)
        return;
    writeLog.clear();
    for (const auto &[addr, value] : writeBuf)
        writeLog.emplace_back(addr, value);
    commitHook(tid, nodeId, readLog, writeLog);
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

    // One Mark batch and PartialCommit per home of the write set, in
    // ascending directory order.
    buildCommitTable();
    drainAcksPending = 0;
    for (const CommitDir &e : commitDirs)
        drainAcksPending += e.lines() != 0;
    if (drainAcksPending == 0)
        panic("proc %u: solo overflow with empty write set", nodeId);
    traceEmit(tracer, TraceEventKind::SoloDrain, nodeId, tid,
              drainAcksPending);
    for (const CommitDir &e : commitDirs) {
        if (e.lines() == 0)
            continue;
        postMarks(e);
        Message pc;
        pc.type = MsgType::PartialCommit;
        pc.dst = e.node;
        pc.tid = tid;
        pc.numMarks = e.lines();
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
    const std::size_t reads = readLog.size(); // the hook may take the log
    for (const auto &[addr, value] : writeBuf)
        globalStore.write(addr, value);
    runCommitHook();

    // Remaining (undrained) write-set lines commit normally; every
    // other directory - including ones that only saw partial batches -
    // gets a Skip so the TID retires everywhere. Directories are
    // visited in ascending order for deterministic message emission.
    std::size_t solo_dirs = 0;
    for (const CommitDir &e : commitDirs) {
        if (e.lines() == 0)
            continue;
        ++solo_dirs;
        postMarks(e);
        Message c;
        c.type = MsgType::Commit;
        c.dst = e.node;
        c.tid = tid;
        c.numMarks = e.lines();
        post(c);
    }
    mcastBuf.clear();
    for (NodeId d = 0; d < numNodes; ++d) {
        if (const CommitDir *e = findDir(d); !e || e->lines() == 0)
            mcastBuf.push_back(d);
    }
    if (!mcastBuf.empty()) {
        Message skip;
        skip.type = MsgType::Skip;
        skip.tid = tid;
        postMulticast(skip, mcastBuf);
    }

    traceEmit(tracer, TraceEventKind::TxCommit, nodeId, tid, reads,
              writeBuf.size());
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
    ++procStats.violations;
    ++consecViolations;
    traceEmit(tracer, TraceEventKind::TxViolation, nodeId, tid,
              consecViolations);
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
        for (const CommitDir &e : commitDirs) {
            if (!e.write)
                continue;
            Message a;
            a.type = MsgType::Abort;
            a.dst = e.node;
            a.tid = tid;
            post(a);
        }
        if (releaseHook)
            releaseHook(tid);
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
        // The cause record names the *writer's* TID in the tid field.
        traceEmit(tracer, TraceEventKind::ViolationCause, nodeId, msg.tid,
                  msg.addr);
        txRec.violationAddr = msg.addr;
        txRec.violationWriter = msg.tid;
        auto &causes = txRec.causes;
        const auto it = std::lower_bound(
            causes.begin(), causes.end(), msg.addr,
            [](const auto &c, Addr a) { return c.first < a; });
        if (it != causes.end() && it->first == msg.addr)
            ++it->second;
        else
            causes.emplace(it, msg.addr, 1);
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
        // Tagged like a write-back: the commit that produced the data.
        f.tid = specCache.lineCommitTid(msg.addr);
        specCache.flushLine(msg.addr);
        f.hadData = true;
    } else {
        // The data already left in a WriteBack (an eviction or a
        // speculative overwrite). Echo the commit the directory asked
        // about.
        f.tid = msg.tid;
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
        "skipsSent=%d validated=%d dirs=%zu wDirs=%u pending=%u "
        "mshr={act=%d addr=%llx poison=%d}\n",
        nodeId, static_cast<int>(phase), opIdx, curOps.size(),
        tid == kInvalidTid ? -1LL : (long long)tid,
        tidReqOutstanding ? 1 : 0, skipsSent ? 1 : 0,
        validated ? 1 : 0, commitDirs.size(), writingVec.count(),
        dirsPending,
        mshr.active ? 1 : 0, (unsigned long long)mshr.lineAddr,
        mshr.poisoned ? 1 : 0);
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
