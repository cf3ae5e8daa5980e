/**
 * @file
 * Conservative parallel discrete-event execution (PDES) of one System
 * run: domains, the per-domain network shim, and the window barrier.
 *
 * The simulated machine is partitioned into *domains*, each
 * owning a private arena, EventQueue, GlobalStore replica, trace ring,
 * and network endpoint shim for a contiguous NodeId range. All domains
 * advance in lockstep windows of width equal to the minimum
 * cross-domain message latency (the conservative lookahead): within a
 * window every domain executes its own events with no locks and no
 * shared mutable state; at the window barrier a single coordinator
 * exchanges the buffered cross-domain effects in a canonical order
 * (mailbox parcels, store write logs, SPMD barrier arrivals) and the
 * next window begins.
 *
 * Determinism contract: a PDES run is a pure function of
 * (SystemConfig, seeds, domain count). Every domain runs on the
 * calling thread, in domain-id order. PDES is its own execution
 * model, distinct from the serial engine (which shares its node
 * wiring, run loop and finalize, but not its timing): cross-domain
 * values and messages become visible at window granularity, so the
 * domain count is part of the model, and fingerprints are not
 * comparable across engines. See DESIGN.md section 11.3 for the
 * seams.
 *
 * Lookahead derivation (DESIGN.md section 11.2): every cross-domain
 * message crosses at least one mesh link, so its end-to-end latency is
 * at least routerDelay + serialization(>=1) + hopLatency + routerDelay;
 * jitter, chaos delays, and link contention only ever add to that. On
 * an ideal network the latency is exactly idealLatency. Messages sent
 * inside window [W, W+L) therefore always arrive at or after W+L, and
 * parking them in a mailbox until the barrier loses nothing.
 */

#ifndef TCC_SIM_DOMAIN_HH
#define TCC_SIM_DOMAIN_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "check/invariant_checker.hh"
#include "common/arena.hh"
#include "common/types.hh"
#include "mem/global_store.hh"
#include "noc/chaos_network.hh"
#include "noc/network.hh"
#include "obs/contention.hh"
#include "obs/metrics.hh"
#include "obs/trace_recorder.hh"
#include "obs/tx_ledger.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"

namespace tcc {

/** One domain's slice of the machine: a contiguous NodeId range. */
struct DomainSpec {
    std::uint32_t id = 0;
    NodeId firstNode = 0;
    std::uint32_t numNodes = 0;
};

/**
 * The partition: domain specs, node/row ownership maps, and the
 * lookahead window width. Computed once per System by
 * computePdesPlan() and shared read-only by every domain.
 */
struct PdesPlan {
    std::vector<DomainSpec> domains;
    /** Window width in cycles (the conservative lookahead). */
    Tick lookahead = 1;
    /** Mesh-based transport (Mesh, or Chaos over a mesh). */
    bool meshBased = false;
    std::uint32_t gridCols = 0;
    std::uint32_t gridRows = 0;
    /** NodeId -> owning domain (size numProcs). */
    std::vector<std::uint32_t> nodeDomain;
    /** Mesh row -> owning domain (size gridRows; covers the phantom
     *  grid slots ragged node counts route through). */
    std::vector<std::uint32_t> rowDomain;
};

/**
 * Partition @p num_procs nodes into at most @p requested_domains
 * domains and derive the lookahead.
 *
 * Mesh partitions are whole-row blocks: row-major node numbering makes
 * each domain a contiguous NodeId range, and XY routing then crosses
 * domains only on vertical links, so the horizontal phase of every
 * route stays inside the sender's domain. The request is clamped to
 * the row count (mesh) or node count (ideal): the effective domain
 * count is a deterministic function of the topology.
 */
PdesPlan computePdesPlan(std::uint32_t num_procs,
                         std::uint32_t requested_domains,
                         bool mesh_based, const MeshConfig &mesh,
                         Tick ideal_latency);

/** End of a window starting at @p start with lookahead @p lookahead,
 *  saturating at kTickMax (the overflow clamp near the end of time).
 *  This is also the conservative earliest-output-time (EOT) bound: a
 *  domain whose next event is at @p start cannot make a cross-domain
 *  effect visible before it, because every cross-domain message pays
 *  at least the lookahead and store writes publish at the barrier
 *  that ends their window. */
constexpr Tick
pdesWindowEnd(Tick start, Tick lookahead)
{
    return start > kTickMax - lookahead ? kTickMax : start + lookahead;
}

/** Transport parameters a DomainNet needs (translated from the
 *  System's NetworkConfig by the constructor site). */
struct DomainNetConfig {
    bool meshBased = true;
    MeshConfig mesh;
    Tick idealLatency = 1;
    /** Chaos fault layer on top of the base transport. */
    bool chaos = false;
    ChaosConfig chaosCfg;
};

/**
 * One domain's network endpoint: routes intra-domain messages through
 * the domain's own EventQueue and parks cross-domain messages (with
 * their already-computed arrival tick) in per-destination-domain
 * mailboxes for the coordinator to flush at the window barrier.
 *
 * Mesh timing is MeshNetwork's own MeshRouter with the domain's rows
 * as the owned range: a directed link belongs to the domain of the
 * row its source grid slot lies in, owned links model contention
 * exactly, and foreign links add the uncontended crossing cost without
 * touching any state, keeping the window race-free. With whole-row
 * domains and XY routing, a route's horizontal phase and its first
 * vertical link are always owned by the sender's domain.
 *
 * Chaos faults draw from a per-domain Rng stream at *send* time (the
 * serial ChaosNetwork draws jitter at delivery), so a parcel's arrival
 * tick is final when it enters the mailbox.
 */
class DomainNet : public Network
{
  public:
    /** A cross-domain message waiting for the window barrier. */
    struct Parcel {
        Message msg;
        Tick when; ///< absolute arrival tick at the destination
    };

    DomainNet(EventQueue &eq, std::uint32_t num_nodes,
              const DomainSpec &spec, const PdesPlan &plan,
              const DomainNetConfig &cfg);

    void send(Message msg) override;

    /** Cross-domain messages parked so far (mailbox traffic stat). */
    std::uint64_t crossMessages() const { return crossCount; }

    /** Any parcels parked since the last flush? O(1): the park path
     *  maintains dirtyDests, so the coordinator never scans the
     *  mailboxes of domains that sent nothing. */
    bool hasParcels() const { return !dirtyDests.empty(); }

    /** Per-destination-domain mailboxes, drained by the coordinator
     *  (PdesState::flushMailboxes) between windows. The vectors keep
     *  their capacity across flushes, so steady-state parking does no
     *  allocation. */
    std::vector<std::vector<Parcel>> outbox;

    /** Destination domains whose mailbox gained parcels since the last
     *  flush, in first-park order; flushMailboxes sorts them into
     *  canonical destination order before draining. */
    std::vector<std::uint32_t> dirtyDests;

  protected:
    /**
     * Combining-tree staging under PDES: MeshRouter's schedule,
     * resolved in the *sending* domain's timeline (owned links with
     * contention, foreign links additive), so relays never need
     * forwarding events in foreign domains. Each copy is then
     * delivered locally or parked like a point-to-point send; every
     * cross-domain copy crosses at least one full link, so the
     * lookahead bound holds.
     */
    MulticastReceipt doMulticast(const Message &proto,
                                 std::span<const NodeId> dsts) override;

  private:
    void route(Message msg);
    /** Deliver @p msg after @p delay through this domain's queue, or
     *  park it with its arrival tick in its destination's mailbox. */
    void dispose(Message msg, Tick delay, unsigned hops);
    Tick chaosExtra();

    DomainSpec spec;
    const PdesPlan &plan;
    DomainNetConfig config;
    /** Mesh timing, owning this domain's rows (empty when ideal). */
    std::optional<MeshRouter> router;
    Rng chaosRng;
    std::uint64_t crossCount = 0;
};

/**
 * Everything one domain owns. Arena is declared first so every other
 * member (event-queue slabs, store tables, trace ring) may
 * point into it; members destroy in reverse order.
 */
struct PdesDomain {
    PdesDomain(const DomainSpec &spec_, std::size_t trace_capacity)
        : spec(spec_), eq(&arena), store(&arena),
          tracer(eq, arena, trace_capacity)
    {
        store.setWriteLog(&storeLog);
        // Tag log records with the commit tick: the barrier merge
        // replays them in (tick, domain) order, making the realized
        // window width invisible to the replicated memory image.
        store.setClock(eq.nowRef());
    }

    PdesDomain(const PdesDomain &) = delete;
    PdesDomain &operator=(const PdesDomain &) = delete;

    DomainSpec spec;
    Arena arena;
    EventQueue eq;
    /** Domain-private replica of the committed memory state; writes
     *  are logged and broadcast at the window barrier. */
    GlobalStore store;
    TraceRecorder tracer;
    /** This domain's processors' commit records, in commit order. */
    TxLedger ledger;
    std::unique_ptr<DomainNet> net;
    /** Per-domain invariant checker (nullptr unless armed); finalize
     *  is restricted to this domain's node range. */
    std::unique_ptr<InvariantChecker> checker;
    /** Per-domain epoch sampler (nullptr unless metricsEpoch != 0);
     *  sampled as this domain runs its windows, merged at
     *  finalize (obs/metrics.hh). */
    std::unique_ptr<MetricsSampler> metrics;
    /** Per-domain conflict profiler (nullptr unless contentionTopK
     *  != 0); fed by this domain's processors only, merged at finalize
     *  in (domain, address) order (obs/contention.hh). */
    std::unique_ptr<ContentionProfiler> contention;

    // --- effects deferred to the window barrier ----------------------
    /** write() records since the last barrier. */
    GlobalStore::WriteLog storeLog;
    /** SPMD barrier arrivals since the last barrier. */
    std::vector<std::pair<NodeId, std::function<void()>>>
        barrierArrivals;
    /** Processors that drained their source since the last barrier. */
    std::uint32_t newlyDone = 0;
};

/**
 * The per-run PDES state the System drives: the plan, the domains,
 * and the coordinator's barrier-phase operations, which run between
 * sub-phases.
 */
struct PdesState {
    explicit PdesState(PdesPlan p) : plan(std::move(p)) {}

    /**
     * One domain's coordination summary, written right after the
     * domain runs each sub-phase and consumed by the barrier phase.
     * The run loop steers entirely off this contiguous array: a
     * quiet or idle domain's queues, mailboxes, and logs are never
     * touched between phases.
     */
    struct DomainPulse {
        /** eq.nextWhen() after the last phase, min-updated by the
         *  coordinator when it injects (mailbox flush, barrier
         *  release). kTickMax = domain fully drained. */
        Tick next = kTickMax;
        /** kPulse* bits describing the effects of the last phase. */
        std::uint32_t flags = 0;
    };

    /** Parcels were parked (outbox dirty). */
    static constexpr std::uint32_t kPulseParcels = 1;
    /** Store write log is nonempty. */
    static constexpr std::uint32_t kPulseStore = 2;
    /** Barrier arrivals, done transitions, or a checker failure -
     *  anything the coordinator's barrier phase must consume. */
    static constexpr std::uint32_t kPulseSync = 4;

    PdesPlan plan;
    std::vector<std::unique_ptr<PdesDomain>> domains;
    /** Per-domain coordination summaries (size domains.size()). */
    std::vector<DomainPulse> pulse;

    /** @p d's pulse: its next event tick and the kPulse* flags of the
     *  effects it holds for the coordinator. */
    static DomainPulse summarize(const PdesDomain &d);

    /** Populate pulse from a full scan of every domain (run setup;
     *  afterwards the run loop and the coordinator keep it
     *  current). */
    void initPulse();

    /** Earliest pending event according to the pulse array. */
    Tick
    earliestNext() const
    {
        Tick next = kTickMax;
        for (const DomainPulse &pu : pulse)
            next = std::min(next, pu.next);
        return next;
    }

    /**
     * Move every parked parcel to its destination domain's queue, in
     * canonical (source domain, destination domain, FIFO) order.
     * Only domains whose pulse reported parcels are visited, and only
     * their dirty destination mailboxes are drained (batched
     * injection per destination); pulse[dst].next is min-updated with
     * the earliest injected arrival. Panics if a parcel would arrive
     * before @p window_end - that would mean the lookahead bound is
     * wrong.
     * @return parcels moved.
     */
    std::uint64_t flushMailboxes(Tick window_end);

    /**
     * Broadcast every domain's store write log to every replica
     * (including the writer's own - replaying identical values keeps
     * all replicas convergent), then clear the logs. Records are
     * replayed in (tick, writer domain, log order) across domains, so
     * conflicting writes to the same word resolve exactly as a
     * barrier-per-tick execution would - the realized window width is
     * invisible to the merged image. Domains whose pulse did not
     * report kPulseStore are never touched.
     */
    void applyStoreLogs();

    /** Merge the per-domain trace rings into @p into, ordered by
     *  (tick, domain id), and the per-domain ledgers into @p ledger,
     *  ordered by (commit tick, domain id); within a domain, its own
     *  order is kept. Events the domain rings dropped count as dropped
     *  in @p into. */
    void mergeTraces(TraceRecorder &into, TxLedger &ledger) const;

  private:
    /** Reused (tick, domain) merge scratch for applyStoreLogs. */
    std::vector<GlobalStore::WriteRec> mergeScratch;
    /** Reused per-domain read positions of that merge. */
    std::vector<std::size_t> mergeAt;
};

} // namespace tcc

#endif // TCC_SIM_DOMAIN_HH
