#include "sim/domain.hh"

#include <algorithm>

#include "common/log.hh"

namespace tcc {

namespace {

/** Decorrelate one seeded stream per domain. */
std::uint64_t
domainSeed(std::uint64_t seed, std::uint32_t domain)
{
    return seed + 0x9E3779B97F4A7C15ull * (domain + 1);
}

} // namespace

PdesPlan
computePdesPlan(std::uint32_t num_procs, std::uint32_t requested_domains,
                bool mesh_based, const MeshConfig &mesh,
                Tick ideal_latency)
{
    PdesPlan plan;
    plan.meshBased = mesh_based;
    std::uint32_t d = std::max<std::uint32_t>(1, requested_domains);
    if (mesh_based) {
        const std::uint32_t cols = gridSide(num_procs);
        const std::uint32_t rows = (num_procs + cols - 1) / cols;
        plan.gridCols = cols;
        plan.gridRows = rows;
        d = std::min(d, rows);
        plan.rowDomain.assign(rows, 0);
        for (std::uint32_t i = 0; i < d; ++i) {
            const std::uint32_t r0 = i * rows / d;
            const std::uint32_t r1 = (i + 1) * rows / d;
            for (std::uint32_t r = r0; r < r1; ++r)
                plan.rowDomain[r] = i;
            const NodeId first = r0 * cols;
            const NodeId end =
                std::min<NodeId>(r1 * cols, num_procs);
            plan.domains.push_back(DomainSpec{i, first, end - first});
        }
        // Minimum cross-domain latency: one link crossing at least -
        // router in, >= 1 cycle serialization, the hop, router out.
        plan.lookahead = 2 * mesh.routerDelay + mesh.hopLatency + 1;
    } else {
        d = std::min(d, num_procs);
        for (std::uint32_t i = 0; i < d; ++i) {
            const NodeId first = i * num_procs / d;
            const NodeId end = (i + 1) * num_procs / d;
            plan.domains.push_back(DomainSpec{i, first, end - first});
        }
        plan.lookahead = std::max<Tick>(1, ideal_latency);
    }
    plan.nodeDomain.assign(num_procs, 0);
    for (const DomainSpec &s : plan.domains) {
        for (NodeId n = s.firstNode; n < s.firstNode + s.numNodes; ++n)
            plan.nodeDomain[n] = s.id;
    }
    return plan;
}

DomainNet::DomainNet(EventQueue &eq_, std::uint32_t num_nodes,
                     const DomainSpec &spec_, const PdesPlan &plan_,
                     const DomainNetConfig &cfg, Arena *arena)
    : Network(eq_, num_nodes, arena), outbox(plan_.domains.size()),
      spec(spec_), plan(plan_), config(cfg),
      chaosRng(domainSeed(cfg.chaosCfg.seed, spec_.id)), dupPool(arena)
{
    if (config.meshBased) {
        // Domains are whole-row blocks: own the rows mapped to us.
        const std::uint32_t first = spec.firstNode / plan.gridCols;
        std::uint32_t end = first;
        while (end < plan.gridRows && plan.rowDomain[end] == spec.id)
            ++end;
        router.emplace(num_nodes, config.mesh,
                       domainSeed(cfg.mesh.seed, spec.id), first, end);
    }
}

void
DomainNet::send(Message msg)
{
    if (msg.src >= numNodes() || msg.dst >= numNodes())
        panic("domain send with bad endpoint %u->%u", msg.src, msg.dst);
    if (config.chaos && config.chaosCfg.duplicateProb > 0.0 &&
        chaosDuplicable(msg.type) &&
        chaosRng.chance(config.chaosCfg.duplicateProb)) {
        // The copy re-routes duplicateLag cycles later with fresh
        // draws, so it and the original contend and jitter
        // independently (mirrors ChaosNetwork::send).
        Message *slot = dupPool.alloc(msg);
        eventq.schedule(config.chaosCfg.duplicateLag, [this, slot]() {
            route(*slot);
            dupPool.free(slot);
        });
    }
    route(std::move(msg));
}

void
DomainNet::route(Message msg)
{
    unsigned hops = 1;
    Tick delay = config.idealLatency;
    if (router)
        delay = router->delay(msg, eventq.now(), hops);
    if (config.chaos)
        delay += chaosExtra();
    dispose(std::move(msg), delay, hops);
}

void
DomainNet::dispose(Message msg, Tick delay, unsigned hops)
{
    const std::uint32_t dst_dom = plan.nodeDomain[msg.dst];
    if (dst_dom == spec.id) {
        deliver(std::move(msg), delay, hops);
        return;
    }
    accountSend(msg, hops);
    ++crossCount;
    auto &box = outbox[dst_dom];
    if (box.empty())
        dirtyDests.push_back(dst_dom);
    box.push_back(Parcel{std::move(msg), eventq.now() + delay});
}

MulticastReceipt
DomainNet::doMulticast(const Message &proto,
                       std::span<const NodeId> dsts)
{
    // The tree engages only on a plain mesh (validate() rejects it
    // combined with chaos or an ideal base).
    if (!router || config.chaos || !treeEngages(dsts))
        return Network::doMulticast(proto, dsts);
    return router->multicast(
        proto, dsts, mcastCfg.fanout, eventq.now(),
        [this](Message &&copy, Tick delay, unsigned hops) {
            dispose(std::move(copy), delay, hops);
        });
}

Tick
DomainNet::chaosExtra()
{
    const ChaosConfig &c = config.chaosCfg;
    Tick extra = c.jitter != 0 ? chaosRng.below(c.jitter + 1) : 0;
    if (c.reorderProb > 0.0 && chaosRng.chance(c.reorderProb)) {
        if (c.reorderWindow != 0)
            extra += chaosRng.below(c.reorderWindow + 1);
    }
    return extra;
}

PdesState::DomainPulse
PdesState::summarize(const PdesDomain &d)
{
    DomainPulse pu;
    pu.next = d.eq.nextWhen();
    if (d.net->hasParcels())
        pu.flags |= kPulseParcels;
    if (!d.storeLog.empty())
        pu.flags |= kPulseStore;
    if (!d.barrierArrivals.empty() || d.newlyDone != 0 ||
        (d.checker && d.checker->failed()))
        pu.flags |= kPulseSync;
    return pu;
}

void
PdesState::initPulse()
{
    pulse.clear();
    for (const auto &d : domains)
        pulse.push_back(summarize(*d));
}

std::uint64_t
PdesState::flushMailboxes(Tick window_end)
{
    std::uint64_t moved = 0;
    for (std::size_t s = 0; s < domains.size(); ++s) {
        if ((pulse[s].flags & kPulseParcels) == 0)
            continue;
        DomainNet &net = *domains[s]->net;
        // First-park order -> canonical ascending destination order,
        // so delivery (and the FIFO sequence numbers it assigns)
        // matches a full (src, dst) scan exactly.
        std::sort(net.dirtyDests.begin(), net.dirtyDests.end());
        for (std::uint32_t t : net.dirtyDests) {
            auto &box = net.outbox[t];
            DomainNet &dst = *domains[t]->net;
            Tick first = kTickMax;
            for (DomainNet::Parcel &p : box) {
                if (p.when < window_end) {
                    panic("PDES lookahead violated: cross-domain "
                          "message %u->%u arrives at %llu inside the "
                          "window ending at %llu",
                          p.msg.src, p.msg.dst,
                          (unsigned long long)p.when,
                          (unsigned long long)window_end);
                }
                first = std::min(first, p.when);
                dst.deliverAt(std::move(p.msg), p.when);
                ++moved;
            }
            box.clear();
            pulse[t].next = std::min(pulse[t].next, first);
        }
        net.dirtyDests.clear();
    }
    return moved;
}

void
PdesState::applyStoreLogs()
{
    // Gather the domains that logged writes (per the pulse flags, so
    // clean domains are never touched).
    std::size_t first_src = 0;
    std::uint32_t nsrc = 0;
    for (std::size_t s = 0; s < domains.size(); ++s) {
        if ((pulse[s].flags & kPulseStore) == 0)
            continue;
        if (nsrc == 0)
            first_src = s;
        ++nsrc;
    }
    if (nsrc == 0)
        return;
    if (nsrc == 1) {
        // One writer: its log is already in (tick, log order).
        GlobalStore::WriteLog &log = domains[first_src]->storeLog;
        for (auto &dst : domains) {
            for (const GlobalStore::WriteRec &w : log)
                dst->store.apply(w.addr, w.value);
        }
        log.clear();
        return;
    }
    // Several writers: k-way merge by (tick, domain id, log order).
    // Each domain's log is tick-sorted (its clock never runs
    // backwards), so a pointer-per-log merge suffices.
    mergeScratch.clear();
    std::vector<std::size_t> &at = mergeAt;
    at.assign(domains.size(), 0);
    for (;;) {
        std::size_t pick = domains.size();
        Tick best = kTickMax;
        for (std::size_t s = 0; s < domains.size(); ++s) {
            if ((pulse[s].flags & kPulseStore) == 0)
                continue;
            const GlobalStore::WriteLog &log = domains[s]->storeLog;
            if (at[s] >= log.size())
                continue;
            const Tick t = log[at[s]].tick;
            // Strict < keeps equal ticks in domain-id order.
            if (pick == domains.size() || t < best) {
                pick = s;
                best = t;
            }
        }
        if (pick == domains.size())
            break;
        mergeScratch.push_back(domains[pick]->storeLog[at[pick]++]);
    }
    for (auto &dst : domains) {
        for (const GlobalStore::WriteRec &w : mergeScratch)
            dst->store.apply(w.addr, w.value);
    }
    for (std::size_t s = 0; s < domains.size(); ++s) {
        if (pulse[s].flags & kPulseStore)
            domains[s]->storeLog.clear();
    }
}

void
PdesState::mergeTraces(TraceRecorder &into) const
{
    std::vector<std::size_t> idx(domains.size(), 0);
    for (;;) {
        std::size_t pick = domains.size();
        Tick best = kTickMax;
        for (std::size_t d = 0; d < domains.size(); ++d) {
            const TraceRecorder &ring = domains[d]->tracer;
            if (idx[d] >= ring.size())
                continue;
            const Tick tick = ring.at(idx[d]).tick;
            // Strict < keeps equal ticks in domain-id order.
            if (pick == domains.size() || tick < best) {
                pick = d;
                best = tick;
            }
        }
        if (pick == domains.size())
            break;
        into.pushRaw(domains[pick]->tracer.at(idx[pick]++));
    }
    for (const auto &d : domains)
        into.noteDropped(d->tracer.dropped());
}

} // namespace tcc
