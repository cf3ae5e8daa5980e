#include "busbaseline/bus_tcc.hh"

#include <algorithm>

#include "common/log.hh"

namespace tcc {

BusTcc::BusTcc(const BusConfig &cfg) : config(cfg)
{
    if (cfg.numProcs == 0)
        fatal("bus TCC needs at least one processor");
    for (NodeId n = 0; n < cfg.numProcs; ++n) {
        procs.push_back(std::make_unique<Proc>(cfg.cache));
        procs.back()->id = n;
    }
}

void
BusTcc::setSource(NodeId proc, TransactionSource *src)
{
    procs.at(proc)->source = src;
}

void
BusTcc::initializeWord(Addr addr, std::uint64_t value)
{
    store.write(addr, value);
    if (config.enableChecker)
        serialChecker.setInitial(GlobalStore::wordAlign(addr), value);
}

Tick
BusTcc::busTransfer(std::uint64_t bytes)
{
    const Tick xfer = config.busArbitration +
                      std::max<Tick>(1, bytes /
                                            config.busBytesPerCycle);
    const Tick start = std::max(eventq.now(), busFree);
    busFree = start + xfer;
    busBusy += xfer;
    return (start - eventq.now()) + xfer;
}

void
BusTcc::startNext(Proc &p)
{
    if (!p.source)
        panic("bus proc %u has no source", p.id);
    auto txn = p.source->nextTransaction();
    if (!txn) {
        p.done = true;
        p.doneAt = eventq.now();
        ++doneProcs;
        checkBarrier();
        return;
    }
    p.curOps = std::move(txn->ops);
    if (txn->barrierBefore) {
        p.waitingBarrier = true;
        p.idleStart = eventq.now();
        barrierWaiters.emplace_back(p.id, [this, &p]() {
            p.waitingBarrier = false;
            p.stats.idleCycles += eventq.now() - p.idleStart;
            beginAttempt(p);
        });
        checkBarrier();
        return;
    }
    beginAttempt(p);
}

void
BusTcc::checkBarrier()
{
    const std::uint32_t active = config.numProcs - doneProcs;
    if (active == 0 || barrierWaiters.size() < active)
        return;
    auto waiters = std::move(barrierWaiters);
    barrierWaiters.clear();
    for (auto &[node, fn] : waiters)
        eventq.schedule(1, [f = std::move(fn)]() { f(); });
}

void
BusTcc::beginAttempt(Proc &p)
{
    p.opIdx = 0;
    p.lastLoaded = 0;
    p.writeBuf.clear();
    p.readLog.clear();
    p.attemptStart = eventq.now();
    p.attemptUseful = 0;
    p.attemptMiss = 0;
    p.attemptInstr = 0;
    ++p.gen;
    step(p);
}

void
BusTcc::resume(Proc &p, Tick delay)
{
    const std::uint64_t my_gen = p.gen;
    eventq.schedule(delay, [this, &p, my_gen]() {
        if (p.gen != my_gen)
            return;
        step(p);
    });
}

void
BusTcc::step(Proc &p)
{
    while (p.opIdx < p.curOps.size()) {
        const TxOp &op = p.curOps[p.opIdx];
        switch (op.kind) {
          case TxOp::Kind::Compute:
            p.attemptUseful += op.cycles;
            p.attemptInstr += op.cycles;
            ++p.opIdx;
            resume(p, op.cycles);
            return;
          case TxOp::Kind::Load: {
            auto out = p.cache.load(op.addr);
            Tick lat = out.latency;
            if (!out.hit) {
                // Miss to the shared memory *over the shared bus*: the
                // request+fill occupy the bus, so misses from all
                // processors serialize - the fundamental reason the
                // bus design stops scaling.
                auto fill = p.cache.fill(op.addr);
                if (fill.overflow) {
                    ++p.stats.violations;
                    violate(p);
                    return;
                }
                out = p.cache.load(op.addr);
                lat = busTransfer(config.cache.lineBytes) +
                      config.memLatency;
            }
            const Addr word = GlobalStore::wordAlign(op.addr);
            auto it = p.writeBuf.find(word);
            if (it != p.writeBuf.end()) {
                p.lastLoaded = it->second;
            } else {
                p.lastLoaded = store.read(word);
                p.readLog.emplace_back(word, p.lastLoaded);
            }
            p.attemptUseful += 1;
            p.attemptMiss += lat > 1 ? lat - 1 : 0;
            ++p.attemptInstr;
            ++p.opIdx;
            resume(p, lat);
            return;
          }
          case TxOp::Kind::Store:
          case TxOp::Kind::StoreAdd: {
            auto out = p.cache.store(op.addr);
            Tick lat = out.latency;
            if (!out.hit) {
                auto fill = p.cache.fill(op.addr);
                if (fill.overflow) {
                    ++p.stats.violations;
                    violate(p);
                    return;
                }
                out = p.cache.store(op.addr);
                lat = busTransfer(config.cache.lineBytes) +
                      config.memLatency;
            }
            const Addr word = GlobalStore::wordAlign(op.addr);
            p.writeBuf[word] = op.kind == TxOp::Kind::Store
                                   ? op.value
                                   : p.lastLoaded + op.value;
            p.attemptUseful += 1;
            p.attemptMiss += lat > 1 ? lat - 1 : 0;
            ++p.attemptInstr;
            ++p.opIdx;
            resume(p, lat);
            return;
          }
        }
    }
    requestToken(p);
}

void
BusTcc::requestToken(Proc &p)
{
    p.commitStart = eventq.now();
    p.waitingToken = true;
    tokenQueue.push_back(p.id);
    grantToken();
}

void
BusTcc::grantToken()
{
    if (tokenHeld || tokenQueue.empty())
        return;
    tokenHeld = true;
    const NodeId id = tokenQueue.front();
    tokenQueue.pop_front();
    Proc &p = *procs[id];
    p.waitingToken = false;

    // Flush the write-set over the ordered bus: addresses + data
    // (write-through commit). The bus is the serialization point.
    const std::uint64_t bytes =
        p.cache.setSizes().writeLines *
        (8ull + config.cache.lineBytes); // addr + data per line
    const Tick wait = busTransfer(bytes);

    eventq.schedule(wait, [this, &p]() { doCommit(p); });
}

void
BusTcc::doCommit(Proc &p)
{
    // Snoop: every other processor checks the committed words against
    // its speculative read set and violates on overlap (the committer
    // holds the token, so it always wins).
    p.cache.writeSet(writeSetBuf);
    for (auto &other : procs) {
        if (other->id == p.id || other->done || other->waitingBarrier)
            continue;
        bool hit = false;
        for (const auto &line : writeSetBuf) {
            auto out = other->cache.invalidate(line.lineAddr,
                                               line.smMask);
            if (out.srOverlap)
                hit = true;
        }
        if (hit) {
            ++other->stats.violations;
            violate(*other);
        }
    }

    // Publish and retire.
    for (const auto &[addr, value] : p.writeBuf)
        store.write(addr, value);
    if (config.enableChecker) {
        // Commits are recorded in TID order, so each replays at once
        // and hands its logs' buffers back.
        SerialChecker::Log writes = serialChecker.recycledLog();
        for (const auto &[addr, value] : p.writeBuf)
            writes.emplace_back(addr, value);
        serialChecker.record(commitSeq, p.id, std::move(p.readLog),
                             std::move(writes));
        p.readLog = serialChecker.recycledLog();
    }
    ++commitSeq;
    p.cache.commitSpec(commitSeq);

    p.stats.usefulCycles += p.attemptUseful;
    p.stats.missCycles += p.attemptMiss;
    p.stats.commitCycles += eventq.now() - p.commitStart;
    p.stats.committedInstructions += p.attemptInstr;
    ++p.stats.txnsCommitted;
    if (p.source)
        p.source->transactionCommitted();

    tokenHeld = false;
    grantToken();

    ++p.gen;
    eventq.schedule(1, [this, &p]() { startNext(p); });
}

void
BusTcc::violate(Proc &p)
{
    p.stats.violationCycles += eventq.now() - p.attemptStart +
                               config.violationRestartPenalty;
    p.cache.abortSpec();
    if (p.source)
        p.source->transactionViolated();
    if (p.waitingToken) {
        // Withdraw the pending commit request.
        for (auto it = tokenQueue.begin(); it != tokenQueue.end(); ++it) {
            if (*it == p.id) {
                tokenQueue.erase(it);
                break;
            }
        }
        p.waitingToken = false;
    }
    ++p.gen;
    const std::uint64_t my_gen = p.gen;
    eventq.schedule(config.violationRestartPenalty,
                    [this, &p, my_gen]() {
                        if (p.gen != my_gen)
                            return;
                        beginAttempt(p);
                    });
}

RunResult
BusTcc::run(Tick max_ticks)
{
    for (auto &p : procs) {
        Proc *pp = p.get();
        eventq.schedule(0, [this, pp]() { startNext(*pp); });
    }
    RunResult res;
    while (eventq.step(max_ticks))
        ++res.events;

    bool all_done = true;
    Tick end = 0;
    for (auto &p : procs) {
        if (!p->done)
            all_done = false;
        else
            end = std::max(end, p->doneAt);
    }
    res.completed = all_done;
    // A run cut by max_ticks ran every event up to it and none later.
    res.cycles = all_done         ? end
                 : eventq.empty() ? eventq.now()
                                  : max_ticks;
    if (all_done)
        for (auto &p : procs)
            p->stats.idleCycles += end - p->doneAt;

    res.quiesced = all_done && !tokenHeld && tokenQueue.empty();
    res.breakdown = computeBreakdown();
    for (const auto &p : procs) {
        ProcRunStats ps;
        ps.txnsCommitted = p->stats.txnsCommitted;
        ps.violations = p->stats.violations;
        ps.committedInstructions = p->stats.committedInstructions;
        res.procs.push_back(ps);
        res.committedTxns += ps.txnsCommitted;
        res.violations += ps.violations;
        res.committedInstructions += ps.committedInstructions;
    }
    if (config.enableChecker) {
        res.serial.checked = true;
        const auto verdict = serialChecker.verify();
        res.serial.ok = verdict.ok;
        res.serial.error = verdict.error;
        res.serial.checks = verdict.txnsChecked;
    }
    return res;
}

Breakdown
BusTcc::computeBreakdown() const
{
    Breakdown bd;
    for (const auto &p : procs) {
        bd.useful += p->stats.usefulCycles;
        bd.miss += p->stats.missCycles;
        bd.commit += p->stats.commitCycles;
        bd.idle += p->stats.idleCycles;
        bd.violation += p->stats.violationCycles;
    }
    return bd;
}

} // namespace tcc
