#include "core/system.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/contention.hh"
#include "obs/metrics.hh"
#include "sim/domain.hh"

namespace tcc {

std::string
SystemConfig::validate() const
{
    if (numProcs == 0)
        return "a system needs at least one processor";
    const bool uses_mesh = network.meshBased();
    if (uses_mesh) {
        if (network.mesh.linkBytesPerCycle == 0)
            return "mesh linkBytesPerCycle must be nonzero";
        // The mesh routes around unpopulated grid slots, so ragged
        // node counts work for plain runs; chaos sweeps compare
        // against the paper's topology and insist on full grids.
        if (network.model == NetworkConfig::Model::Chaos &&
            (numProcs & (numProcs - 1)) != 0)
            return "chaos over a mesh requires a power-of-two "
                   "processor count (ragged grids skew the paper's "
                   "topology); use chaos over the ideal network for "
                   "odd sizes";
    }
    const bool uses_ideal = !uses_mesh;
    if (uses_ideal && network.model == NetworkConfig::Model::Chaos &&
        network.idealLatency == 0) {
        return "chaos over an ideal base needs idealLatency >= 1: "
               "zero-latency delivery leaves no window for jitter or "
               "reordering to act in";
    }
    if (network.model == NetworkConfig::Model::Chaos) {
        const ChaosConfig &c = network.chaos;
        if (c.reorderProb < 0.0 || c.reorderProb > 1.0 ||
            c.duplicateProb < 0.0 || c.duplicateProb > 1.0)
            return "chaos probabilities must be within [0, 1]";
        if (c.reorderProb > 0.0 && c.reorderWindow == 0)
            return "chaos reorderProb > 0 needs a nonzero "
                   "reorderWindow";
        if (c.duplicateProb > 0.0 && c.duplicateLag == 0)
            return "chaos duplicateProb > 0 needs a nonzero "
                   "duplicateLag (a zero-lag duplicate is "
                   "indistinguishable from the original)";
    }
    if (numProcs > 4096) {
        return "this build supports at most 4096 processors (the "
               "invariant checker and scaling sweeps are sized for "
               "that); reduce numProcs or raise the cap deliberately";
    }
    if (network.multicast.topology == MulticastConfig::Topology::Tree) {
        if (network.model != NetworkConfig::Model::Mesh) {
            return "tree multicast requires the plain mesh network: "
                   "the combining tree is embedded in mesh XY routes "
                   "(keep multicast.topology = Flat for ideal or "
                   "chaos models)";
        }
        if (network.multicast.fanout < 2)
            return "tree multicast fanout must be >= 2";
    }
    if (pdes.domains > 1) {
        if (homePolicy != HomePolicy::Interleave) {
            return "PDES (pdes.domains > 1) requires "
                   "HomePolicy::Interleave: first-touch home "
                   "assignment is an artifact of the global access "
                   "order, which a partitioned run does not have";
        }
        if (uses_ideal && network.idealLatency == 0) {
            return "PDES over an ideal network needs idealLatency >= "
                   "1: the latency is the lookahead window, and a "
                   "zero-width window cannot make progress";
        }
    }
    return {};
}

static std::unique_ptr<Network>
buildNetwork(const SystemConfig &cfg, EventQueue &eventq, Arena *arena)
{
    const NetworkConfig &nc = cfg.network;
    std::unique_ptr<Network> base;
    if (nc.meshBased()) {
        base = std::make_unique<MeshNetwork>(eventq, cfg.numProcs,
                                             nc.mesh, arena);
    } else {
        base = std::make_unique<IdealNetwork>(eventq, cfg.numProcs,
                                              nc.idealLatency, arena);
    }
    if (nc.model != NetworkConfig::Model::Chaos)
        return base;
    return std::make_unique<ChaosNetwork>(eventq, cfg.numProcs,
                                          std::move(base), nc.chaos, arena);
}

System::System(const SystemConfig &cfg)
    : config(cfg), eventq(&arena),
      tracer(eventq, &arena, cfg.trace.capacity),
      homes(cfg.numProcs, cfg.homePolicy, cfg.pageBytes, &arena),
      store(&arena)
{
    if (const std::string err = cfg.validate(); !err.empty())
        fatal("invalid SystemConfig: %s", err.c_str());

    net = buildNetwork(cfg, eventq, &arena);
    net->setMulticast(cfg.network.multicast);

    // Only the outermost network traces: a chaos wrapper's base would
    // otherwise emit every NetDeliver twice.
    net->setTraceRecorder(&tracer);

    if (cfg.pdes.domains > 1)
        buildPdes(); // leaves pdesState null if the partition collapses
    wireNodes();
}

std::vector<System::Part>
System::parts()
{
    if (!pdesState) {
        return {Part{0, config.numProcs, &eventq, net.get(), &arena,
                     &store, &tracer, &invariants, &serialChecker,
                     &metricsSamp, &contentionProf, nullptr}};
    }
    std::vector<Part> out;
    for (auto &d : pdesState->domains) {
        out.push_back(Part{d->spec.firstNode, d->spec.numNodes, &d->eq,
                           d->net.get(), &d->arena, &d->store,
                           &d->tracer, &d->checker, &d->commitLog,
                           &d->metrics, &d->contention, d.get()});
    }
    return out;
}

void
System::wireNodes()
{
    const std::vector<Part> all = parts();
    // The TID vendor lives at node 0, in the first part.
    tidVendor = std::make_unique<TidVendor>(
        0, *all[0].eq, *all[0].net, config.tidVendorLatency);

    const std::uint32_t num = config.numProcs;
    DirectoryConfig dir_cfg = config.directory;
    dir_cfg.lineBytes = config.cache.lineBytes;
    for (const Part &part : all) {
        if (config.check.invariants) {
            *part.checker = std::make_unique<InvariantChecker>(
                num, part.tracer, config.check.invariantHistory);
            (*part.checker)->setNodeRange(part.first, part.count);
        }
        InvariantChecker *checker = part.checker->get();
        const NodeId end = part.first + part.count;
        for (NodeId n = part.first; n < end; ++n) {
            dirs.push_back(std::make_unique<Directory>(
                n, num, *part.eq, *part.net, dir_cfg, part.arena));
            procs.push_back(std::make_unique<TccProcessor>(
                n, num, *part.eq, *part.net, homes, *part.store,
                config.cache, config.processor, /*vendor_node=*/0,
                part.arena));
            Directory &dir = *dirs.back();
            TccProcessor &proc = *procs.back();
            dir.setWriteThroughCommit(config.writeThroughCommit);
            proc.setWriteThroughCommit(config.writeThroughCommit);
            dir.setTraceRecorder(part.tracer);
            proc.setTraceRecorder(part.tracer);
            dir.setInvariantChecker(checker);
            proc.setInvariantChecker(checker);
            if (config.check.serial) {
                proc.setCommitHook([log = part.commitLog](
                                       Tid tid, NodeId p,
                                       const auto &reads,
                                       const auto &writes) {
                    log->record(tid, p, reads, writes);
                });
            }
            if (PdesDomain *d = part.domain) {
                // Cross-domain effects defer to the window barrier:
                // arrivals and done-hooks buffer in the domain, and
                // the coordinator merges them in domain-id order.
                proc.setBarrier(
                    [d](NodeId node, std::function<void()> resume) {
                        d->barrierArrivals.emplace_back(
                            node, std::move(resume));
                    });
                proc.setDoneHook([d]() { ++d->newlyDone; });
            } else {
                proc.setBarrier(
                    [this](NodeId node, std::function<void()> resume) {
                        barrierWaiters.emplace_back(node,
                                                    std::move(resume));
                        releaseBarrier(eventq.now() + 1);
                    });
                proc.setDoneHook([this]() {
                    ++doneProcs;
                    releaseBarrier(eventq.now() + 1);
                });
            }
            part.net->connect(n, [this, n](const Message &msg) {
                dispatch(n, msg);
            });
        }

        // Observability layers: one private instance per part, fed
        // only by that part's nodes; PDES merges them at finalize.
        if (config.trace.metricsEpoch != 0) {
            *part.metrics = std::make_unique<MetricsSampler>(
                config.trace.metricsEpoch, config.trace.metricsCapacity,
                part.arena);
            registerMetricProbes(**part.metrics, part.first, part.count,
                                 *part.net);
        }
        if (config.trace.contentionTopK != 0) {
            *part.contention = std::make_unique<ContentionProfiler>(
                config.trace.contentionTopK, part.arena);
            for (NodeId n = part.first; n < end; ++n)
                procs[n]->setContentionProfiler(part.contention->get());
        }
    }
}

System::~System() = default;

void
System::registerMetricProbes(MetricsSampler &m, NodeId first,
                             std::uint32_t count, const Network &nw)
{
    using K = MetricsSampler::Kind;
    using G = MetricsSampler::Merge;
    const NodeId last = first + count;
    // Probes read only state owned by the nodes [first, last) (or the
    // network shim passed in), so a PDES domain's sampler stays inside
    // its domain's confinement boundary. Registration order here IS
    // the column schema; PDES merging relies on every domain calling
    // this same function.
    m.addProbe("commits", K::Delta, G::Sum, [this, first, last] {
        std::uint64_t v = 0;
        for (NodeId n = first; n < last; ++n)
            v += procs[n]->stats().txnsCommitted;
        return v;
    });
    m.addProbe("violations", K::Delta, G::Sum, [this, first, last] {
        std::uint64_t v = 0;
        for (NodeId n = first; n < last; ++n)
            v += procs[n]->stats().violations;
        return v;
    });
    m.addProbe("useful_cycles", K::Delta, G::Sum, [this, first, last] {
        std::uint64_t v = 0;
        for (NodeId n = first; n < last; ++n)
            v += procs[n]->stats().usefulCycles;
        return v;
    });
    m.addProbe("wasted_cycles", K::Delta, G::Sum, [this, first, last] {
        std::uint64_t v = 0;
        for (NodeId n = first; n < last; ++n)
            v += procs[n]->stats().violationCycles;
        return v;
    });
    // The vendor lives at node 0; other domains contribute 0 and the
    // Max merge selects the owning domain's reading.
    m.addProbe("tids_issued", K::Gauge, G::Max, [this, first] {
        return first == 0 ? tidVendor->issued() : std::uint64_t(0);
    });
    m.addProbe("nstid_min", K::Gauge, G::Min, [this, first, last] {
        std::uint64_t v = ~std::uint64_t(0);
        for (NodeId n = first; n < last; ++n)
            v = std::min<std::uint64_t>(v, dirs[n]->nstid());
        return v;
    });
    m.addProbe("dir_busy_cycles", K::Delta, G::Sum,
               [this, first, last] {
                   std::uint64_t v = 0;
                   for (NodeId n = first; n < last; ++n)
                       v += dirs[n]->stats().busyCycles;
                   return v;
               });
    m.addProbe("net_bytes", K::Delta, G::Sum,
               [&nw] { return nw.stats().totalBytes; });
    m.addProbe("net_messages", K::Delta, G::Sum,
               [&nw] { return nw.stats().messages; });
    m.addProbe("mcast_nic_events", K::Delta, G::Sum,
               [&nw] { return nw.stats().multicastNicEvents; });
}

void
System::buildPdes()
{
    const NetworkConfig &nc = config.network;
    PdesPlan plan = computePdesPlan(config.numProcs,
                                    config.pdes.domains, nc.meshBased(),
                                    nc.mesh, nc.idealLatency);
    if (plan.domains.size() < 2)
        return; // partition collapsed (tiny machine): serial engine

    pdesState = std::make_unique<PdesState>(std::move(plan));
    PdesState &st = *pdesState;

    const DomainNetConfig dnc{nc.meshBased(), nc.mesh, nc.idealLatency,
                              nc.model == NetworkConfig::Model::Chaos,
                              nc.chaos};

    for (const DomainSpec &spec : st.plan.domains) {
        auto d = std::make_unique<PdesDomain>(spec,
                                              config.trace.capacity);
        d->net = std::make_unique<DomainNet>(
            d->eq, config.numProcs, spec, st.plan, dnc, &d->arena);
        d->net->setMulticast(nc.multicast);
        d->net->setTraceRecorder(&d->tracer);
        st.domains.push_back(std::move(d));
    }
}

void
System::dispatch(NodeId node, const Message &msg)
{
    switch (msg.type) {
      case MsgType::LoadReq:
      case MsgType::Skip:
      case MsgType::Probe:
      case MsgType::Mark:
      case MsgType::Commit:
      case MsgType::Abort:
      case MsgType::WriteBack:
      case MsgType::FlushData:
      case MsgType::InvAck:
      case MsgType::PartialCommit:
        dirs[node]->receive(msg);
        return;
      case MsgType::LoadReply:
      case MsgType::TidReply:
      case MsgType::ProbeReply:
      case MsgType::Inv:
      case MsgType::DataReq:
      case MsgType::PartialAck:
        procs[node]->receive(msg);
        return;
      case MsgType::TidReq:
        if (node != 0)
            panic("TID request routed to node %u (vendor is node 0)",
                  node);
        tidVendor->receive(msg);
        return;
    }
    panic("unroutable message type");
}

void
System::setSource(NodeId proc_id, TransactionSource *src)
{
    procs.at(proc_id)->setSource(src);
}

void
System::bindRegion(Addr base, std::uint64_t bytes, NodeId home)
{
    const Addr page = config.pageBytes;
    for (Addr a = base; a < base + bytes; a += page)
        homes.bind(a, home);
}

void
System::initializeWord(Addr addr, std::uint64_t value)
{
    store.write(addr, value);
    if (config.check.serial)
        serialChecker.setInitial(GlobalStore::wordAlign(addr), value);
}

void
System::releaseBarrier(Tick at)
{
    // A waiting processor is never done, so an empty list also covers
    // the case of no active processors.
    if (barrierWaiters.empty() ||
        barrierWaiters.size() < config.numProcs - doneProcs)
        return;
    auto waiters = std::move(barrierWaiters);
    barrierWaiters.clear();
    for (auto &[node, resume] : waiters) {
        EventQueue *eq = &eventq;
        if (pdesState) {
            PdesState &st = *pdesState;
            const std::uint32_t dom = st.plan.nodeDomain[node];
            eq = &st.domains[dom]->eq;
            st.pulse[dom].next = std::min(st.pulse[dom].next, at);
        }
        eq->scheduleAt(at, [fn = std::move(resume)]() { fn(); });
    }
}

namespace {

/**
 * The run loop of both engines (the serial run and every PDES domain's
 * window): execute every event at or before @p limit, and none later.
 * An armed @p metrics sampler first closes the epochs ending at or
 * before each event's tick. A failure of @p halt stops the loop at
 * the next event boundary: running on would only bury the first
 * diagnostic under follow-on carnage. @return events executed.
 */
std::uint64_t
stepThrough(EventQueue &eq, Tick limit, MetricsSampler *metrics,
            const InvariantChecker *halt)
{
    std::uint64_t n = 0;
    for (;;) {
        if (metrics) {
            const Tick next = eq.nextWhen();
            if (next == kTickMax || next > limit)
                break;
            metrics->advanceTo(next);
        }
        if (!eq.step(limit))
            break;
        ++n;
        if (halt && halt->failed())
            break;
    }
    return n;
}

} // namespace

RunResult
System::run(Tick max_ticks)
{
    if (pdesState)
        return runPdes(max_ticks);

    for (auto &p : procs)
        p->start();

    RunResult res;
    res.events = stepThrough(eventq, max_ticks, metricsSamp.get(),
                             invariants.get());
    const bool halted = invariants && invariants->failed();
    const bool hit_tick_limit = !halted && !eventq.empty();
    const Tick end = hit_tick_limit ? max_ticks : eventq.now();
    if (metricsSamp)
        metricsSamp->finish(end);
    finishRun(res, end, halted, hit_tick_limit);
    return res;
}

void
System::finishRun(RunResult &res, Tick fallback_now, bool halted,
                  bool hit_tick_limit)
{
    bool all_done = true;
    Tick end = 0;
    for (auto &p : procs) {
        if (!p->done())
            all_done = false;
        else
            end = std::max(end, p->doneTick());
    }
    res.completed = all_done;
    res.cycles = all_done ? end : fallback_now;

    // Early finishers idle until the last processor completes.
    if (all_done) {
        for (auto &p : procs) {
            p->mutableStats().idleCycles += end - p->doneTick();
        }
    }

    res.breakdown = computeBreakdown();
    res.procs.reserve(procs.size());
    for (const auto &p : procs) {
        const auto &s = p->stats();
        ProcRunStats ps;
        ps.txnsCommitted = s.txnsCommitted;
        ps.violations = s.violations;
        ps.overflows = s.overflows;
        ps.soloCommits = s.soloCommits;
        ps.committedInstructions = s.committedInstructions;
        res.committedTxns += ps.txnsCommitted;
        res.violations += ps.violations;
        res.overflows += ps.overflows;
        res.committedInstructions += ps.committedInstructions;
        res.procs.push_back(ps);
    }
    res.dirs.reserve(dirs.size());
    for (const auto &d : dirs) {
        const auto &s = d->stats();
        DirRunStats ds;
        ds.nstid = d->nstid();
        ds.commitsServed = s.commitsServed;
        ds.skipsReceived = s.skipsReceived;
        ds.abortsServed = s.abortsServed;
        ds.invalidationsSent = s.invalidationsSent;
        ds.writeBacksDropped = s.writeBacksDropped;
        res.dirs.push_back(ds);
    }
    res.quiesced = protocolQuiesced();

    if (config.check.serial) {
        res.serial.checked = true;
        const SerialChecker::Result v = serialChecker.verify();
        res.serial.ok = v.ok;
        res.serial.error = v.error;
        res.serial.checks = v.txnsChecked;
    }
    if (config.check.invariants) {
        res.invariants.checked = true;
        for (const Part &part : parts()) {
            InvariantChecker &c = **part.checker;
            if (!halted)
                c.finalize(tidVendor->issued(), res.completed, hit_tick_limit);
            const InvariantChecker::Result &v = c.result();
            res.invariants.checks += v.checks;
            if (res.invariants.ok && !v.ok) {
                res.invariants.ok = false;
                res.invariants.error = v.error;
            }
        }
    }
}

RunResult
System::runPdes(Tick max_ticks)
{
    PdesState &st = *pdesState;
    RunResult res;
    const std::uint32_t num_domains =
        static_cast<std::uint32_t>(st.domains.size());
    res.pdes.domains = num_domains;
    res.pdes.lookahead = st.plan.lookahead;

    // Seed every replica from the master store (initializeWord state),
    // then kick the sources off on their domains' queues.
    for (auto &d : st.domains)
        d->store.copyFrom(store);
    for (auto &p : procs)
        p->start();

    const Tick lookahead = st.plan.lookahead;
    st.initPulse();
    Tick phase_start = 0;
    /** Upper bound on every epoch boundary any domain has closed (the
     *  last window_end); the common finish() tick that equalizes
     *  per-domain epoch counts for the merge. */
    Tick metrics_end = 0;
    Tick window_start = 0;
    bool window_open = false;
    bool halted = false;
    for (;;) {
        const Tick next = st.earliestNext();
        if (next == kTickMax)
            break; // drained: every queue and mailbox is empty
        if (next > max_ticks)
            break; // remaining work is beyond the tick limit
        // Idle gaps (e.g. everyone waiting out a commit) fast-forward
        // the sub-phase: sub-phases must be contiguous and end at the
        // EOT bound min_d(next_d + lookahead) == next + lookahead -
        // no cross-domain effect can land earlier, so every domain
        // may execute up to (but not at) that bound.
        phase_start = std::max(phase_start, next);
        if (!window_open) {
            window_start = phase_start;
            window_open = true;
        }
        const Tick window_end = pdesWindowEnd(phase_start, lookahead);
        metrics_end = window_end;
        const Tick limit = std::min(window_end - 1, max_ticks);
        // Run each domain with an event inside the sub-phase to the
        // limit, then summarize it into its pulse slot: next event
        // tick, plus flags for parked parcels, store-log writes, and
        // barrier-phase work. A domain with no event inside the
        // sub-phase is never touched (the idle-domain fast path) -
        // its pulse is kept current by the coordinator's injections.
        for (std::uint32_t i = 0; i < num_domains; ++i) {
            if (st.pulse[i].next > limit) {
                ++res.pdes.idleDomainSkips;
                continue;
            }
            PdesDomain &d = *st.domains[i];
            stepThrough(d.eq, limit, d.metrics.get(), d.checker.get());
            // Parcels injected at the barrier arrive at or after the
            // window end (= limit + 1), so every epoch ending inside
            // the window is final once the local events have run.
            if (d.metrics)
                d.metrics->advanceTo(pdesWindowEnd(limit, 1));
            st.pulse[i] = PdesState::summarize(d);
        }
        ++res.pdes.phases;

        // Fold the per-domain pulses: one pass over a contiguous
        // array instead of poking every domain's queues and logs.
        std::uint32_t effects = 0;
        for (const PdesState::DomainPulse &pu : st.pulse)
            effects |= pu.flags;

        // Parcels flush every sub-phase: they carry exact arrival
        // ticks, so delivery is independent of the barrier cadence.
        if (effects & PdesState::kPulseParcels)
            res.pdes.mailboxMessages += st.flushMailboxes(window_end);

        // Close the window when the sub-phase produced output only a
        // barrier can publish (store writes, SPMD arrivals, done
        // transitions, a checker failure).
        if (effects & (PdesState::kPulseStore | PdesState::kPulseSync)) {
            if (effects & PdesState::kPulseStore)
                st.applyStoreLogs();
            else
                ++res.pdes.emptyBroadcastsSkipped;
            if (effects & PdesState::kPulseSync) {
                // Merge the deferred done-hooks and barrier arrivals
                // in domain-id order, then release the SPMD barrier.
                // An invariant failure halts the run here; the failing
                // domain raised kPulseSync, so the window closed at the
                // end of the sub-phase in which it failed.
                for (auto &d : st.domains) {
                    doneProcs += d->newlyDone;
                    d->newlyDone = 0;
                    for (auto &w : d->barrierArrivals)
                        barrierWaiters.push_back(std::move(w));
                    d->barrierArrivals.clear();
                    halted = halted || (d->checker && d->checker->failed());
                }
                releaseBarrier(window_end);
            }
            ++res.pdes.windows;
            res.pdes.windowWidth.sample(
                static_cast<double>(window_end - window_start));
            window_open = false;
            if (halted)
                break;
        }
        for (PdesState::DomainPulse &pu : st.pulse)
            pu.flags = 0;
        phase_start = window_end;
    }
    const bool hit_tick_limit = !halted && st.earliestNext() != kTickMax;

    for (auto &d : st.domains)
        res.events += d->eq.executed();
    // All replicas are convergent (every write log was applied
    // everywhere); adopt one as the master committed state.
    store.copyFrom(st.domains[0]->store);
    // Fold the domain shims' traffic into the System-level network and
    // the domain trace rings into the System ring, canonically.
    for (auto &d : st.domains)
        net->accumulateStats(d->net->stats());
    st.mergeTraces(tracer);

    // Close and merge the observability layers, in domain-id order.
    // Every domain finishes at the same tick (>= every window bound it
    // ever sampled under), so all close identical epoch counts and the
    // merge is element-wise.
    if (config.trace.metricsEpoch != 0) {
        for (auto &d : st.domains)
            d->metrics->finish(metrics_end);
        metricsSamp = std::make_unique<MetricsSampler>(
            config.trace.metricsEpoch, config.trace.metricsCapacity,
            &arena);
        registerMetricProbes(*metricsSamp, 0, config.numProcs, *net);
        std::vector<const MetricsSampler *> series;
        series.reserve(st.domains.size());
        for (auto &d : st.domains)
            series.push_back(d->metrics.get());
        metricsSamp->adoptMerged(series);
    }
    if (config.trace.contentionTopK != 0) {
        contentionProf = std::make_unique<ContentionProfiler>(
            config.trace.contentionTopK, &arena);
        for (auto &d : st.domains)
            contentionProf->mergeFrom(*d->contention);
    }
    for (auto &d : st.domains)
        serialChecker.absorb(d->commitLog);

    finishRun(res, hit_tick_limit ? max_ticks : phase_start, halted,
              hit_tick_limit);
    lastPdesStats = res.pdes;
    return res;
}

Breakdown
System::computeBreakdown() const
{
    Breakdown bd;
    for (const auto &p : procs) {
        const auto &s = p->stats();
        bd.useful += s.usefulCycles;
        bd.miss += s.missCycles;
        bd.commit += s.commitCycles;
        bd.idle += s.idleCycles;
        bd.violation += s.violationCycles;
    }
    return bd;
}

std::uint64_t
System::committedInstructions() const
{
    std::uint64_t n = 0;
    for (const auto &p : procs)
        n += p->stats().committedInstructions;
    return n;
}

bool
System::protocolQuiesced() const
{
    const Tid issued = tidVendor->issued();
    for (const auto &d : dirs) {
        if (!d->quiesced())
            return false;
        if (d->nstid() != issued)
            return false;
    }
    return true;
}

} // namespace tcc
