/**
 * @file
 * Interconnection network models. The paper evaluates a 2D grid with
 * 3-cycle links (swept 2-8 in Figure 8); MeshNetwork models that
 * topology with XY dimension-order routing, per-link serialization and
 * contention. IdealNetwork delivers with a fixed latency and is used in
 * unit tests to isolate protocol logic from network timing.
 */

#ifndef TCC_NOC_NETWORK_HH
#define TCC_NOC_NETWORK_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "noc/message.hh"
#include "obs/trace_recorder.hh"
#include "sim/event_queue.hh"

namespace tcc {

/**
 * Commit fan-out delivery strategy (NetworkConfig::multicast).
 *
 * Flat is the paper's implicit model: the sender's NIC serializes one
 * point-to-point copy per destination, so a commit touching D
 * directories costs D serialized injections at one NIC - O(N) once
 * commit degenerates into a broadcast. Tree stages the copies through
 * a k-ary combining tree embedded in the mesh (relays are destination
 * nodes; every edge still pays the full XY route with contention), so
 * no NIC on the critical path serializes more than k copies per level:
 * O(k log_k N) instead of O(N). The tree changes *timing only* - the
 * same copies reach the same destinations, so protocol outcomes are
 * unchanged (gated by tests and bench_scaling).
 */
struct MulticastConfig {
    enum class Topology { Flat, Tree };
    Topology topology = Topology::Flat;
    /** Tree fan-out k (children per relay); >= 2. */
    std::uint32_t fanout = 4;
    /** Destination count below which even a configured tree falls
     *  back to flat (staging overhead beats serialization savings
     *  only once the fan-out is wide). */
    std::uint32_t minDests = 8;
};

/** What one multicast cost (ledger + bench accounting). */
struct MulticastReceipt {
    /** Copies delivered (== destination count). */
    std::uint32_t dests = 0;
    /** Serialized NIC injections on the critical path: the maximum,
     *  over destinations, of send events any single NIC queued ahead
     *  of that copy's route. Flat: dests. Tree: O(k log_k dests). */
    std::uint32_t nicSerialized = 0;
    /** Relay levels traversed (1 for flat). */
    std::uint32_t depth = 0;
};

/** Per-class traffic counters feeding the Figure 9 reproduction. */
struct NetworkStats {
    std::uint64_t messages = 0;
    std::uint64_t totalBytes = 0;
    /** Bytes by traffic class (indexed by TrafficClass). */
    std::uint64_t classBytes[static_cast<int>(TrafficClass::NumClasses)] =
        {};
    /** Bytes received per node (Figure 9 is per-directory traffic). */
    std::vector<std::uint64_t> nodeBytes;
    std::uint64_t totalHops = 0;
    /** Multicast fan-outs issued and their summed critical-path
     *  NIC-serialized injections (the O(N)-vs-O(log N) axis). */
    std::uint64_t multicasts = 0;
    std::uint64_t multicastNicEvents = 0;

    void
    account(const Message &msg, unsigned hops)
    {
        ++messages;
        totalBytes += msg.bytes;
        classBytes[static_cast<int>(trafficClassOf(msg.type))] +=
            msg.bytes;
        if (msg.dst < nodeBytes.size())
            nodeBytes[msg.dst] += msg.bytes;
        totalHops += hops;
    }

    /** Fold another endpoint's counters into this one (PDES domain
     *  shims merge into the System-level network at finalize). */
    void
    merge(const NetworkStats &o)
    {
        messages += o.messages;
        totalBytes += o.totalBytes;
        for (std::size_t i = 0;
             i < static_cast<std::size_t>(TrafficClass::NumClasses); ++i)
            classBytes[i] += o.classBytes[i];
        for (std::size_t n = 0;
             n < nodeBytes.size() && n < o.nodeBytes.size(); ++n)
            nodeBytes[n] += o.nodeBytes[n];
        totalHops += o.totalHops;
        multicasts += o.multicasts;
        multicastNicEvents += o.multicastNicEvents;
    }
};

/**
 * Abstract network: point-to-point message delivery between nodes.
 * Delivery is always asynchronous through the event queue, even with
 * zero latency, so handlers never run re-entrantly inside send().
 */
class Network
{
  public:
    using Handler = std::function<void(const Message &)>;

    Network(EventQueue &eq, std::uint32_t num_nodes)
        : eventq(eq), handlers(num_nodes)
    {
        netStats.nodeBytes.assign(num_nodes, 0);
    }

    virtual ~Network() = default;

    /** Register the message handler for node @p n. */
    void
    connect(NodeId n, Handler h)
    {
        handlers.at(n) = std::move(h);
    }

    /** Number of endpoints. */
    std::uint32_t numNodes() const { return handlers.size(); }

    /**
     * Send @p msg from msg.src to msg.dst. @p msg.bytes must already
     * include header + payload. Local (src == dst) messages still pay
     * a minimal turnaround latency of one cycle.
     */
    virtual void send(Message msg) = 0;

    /**
     * Deliver a copy of @p proto to every node in @p dsts, in list
     * order. Call sites pass ascending destination lists; the flat
     * strategy then emits exactly the per-destination send() loop it
     * replaced, byte for byte. Mesh networks may stage the copies
     * through a combining tree instead (see MulticastConfig) - same
     * copies, different timing. @p proto.dst is ignored.
     */
    MulticastReceipt
    multicast(const Message &proto, std::span<const NodeId> dsts)
    {
        if (dsts.empty())
            return {};
        const MulticastReceipt r = doMulticast(proto, dsts);
        ++netStats.multicasts;
        netStats.multicastNicEvents += r.nicSerialized;
        return r;
    }

    /** Select the fan-out strategy (defaults to Flat). */
    void setMulticast(const MulticastConfig &cfg) { mcastCfg = cfg; }
    const MulticastConfig &multicastCfg() const { return mcastCfg; }

    /** Cumulative traffic statistics. */
    const NetworkStats &stats() const { return netStats; }

    /** Attach the System's protocol event ring (may be null). */
    void setTraceRecorder(TraceRecorder *rec) { tracer = rec; }

    /**
     * PDES plumbing: deliver @p msg at absolute tick @p when without
     * accounting stats or emitting NetSend - the sending domain's shim
     * already did both when the message entered its mailbox. Called by
     * the window coordinator on the destination domain's shim
     * (sim/domain.hh); NetDeliver is still emitted at dispatch.
     */
    void
    deliverAt(const Message &msg, Tick when)
    {
        eventq.scheduleAt(when, [this, msg]() { dispatch(msg); });
    }

    /** PDES plumbing: fold a domain shim's traffic counters into this
     *  network's (the System-level report reads one stats object). */
    void accumulateStats(const NetworkStats &s) { netStats.merge(s); }

  protected:
    /**
     * Flat fan-out: one point-to-point send per destination through
     * the (possibly overridden, possibly decorated) send() - the
     * default for every network model and the bit-identity baseline
     * the tree strategies are gated against.
     */
    virtual MulticastReceipt
    doMulticast(const Message &proto, std::span<const NodeId> dsts)
    {
        for (NodeId d : dsts) {
            Message copy = proto;
            copy.dst = d;
            send(std::move(copy));
        }
        MulticastReceipt r;
        r.dests = static_cast<std::uint32_t>(dsts.size());
        r.nicSerialized = r.dests;
        r.depth = 1;
        return r;
    }

    /** The configured fan-out is a tree and @p dsts is wide enough
     *  for it. */
    bool
    treeEngages(std::span<const NodeId> dsts) const
    {
        return mcastCfg.topology == MulticastConfig::Topology::Tree &&
               dsts.size() >= mcastCfg.minDests;
    }

    /** Stats + NetSend trace for one send (delivery handled by the
     *  caller: either deliver() below or a PDES mailbox). */
    void
    accountSend(const Message &msg, unsigned hops)
    {
        netStats.account(msg, hops);
        traceEmit(tracer, TraceEventKind::NetSend,
                  msg.src, msg.tid, msg.addr,
                  packNetInfo(msg.dst,
                              static_cast<std::uint8_t>(msg.type),
                              static_cast<std::uint8_t>(
                                  trafficClassOf(msg.type)),
                              msg.bytes));
    }

    /**
     * Deliver @p msg at now + @p delay and account @p hops. The message
     * rides inside the deliver event: {this, Message} fills the event
     * queue's inline callback storage exactly, so a hop costs no
     * allocation and no side table. The handler gets a reference into
     * the event, valid only until it returns, so handlers must not
     * retain it.
     */
    void
    deliver(const Message &msg, Tick delay, unsigned hops)
    {
        accountSend(msg, hops);
        eventq.schedule(delay, [this, msg]() { dispatch(msg); });
    }

    EventQueue &eventq;
    MulticastConfig mcastCfg;

  private:
    void
    dispatch(const Message &msg)
    {
        const NodeId dst = msg.dst;
        if (!handlers[dst])
            panic("message to unconnected node %u", dst);
        // NetDeliver packs the *source* in the route-info word, so the
        // pair of events for one message reads as src->dst twice.
        traceEmit(tracer, TraceEventKind::NetDeliver,
                  dst, msg.tid, msg.addr,
                  packNetInfo(msg.src,
                              static_cast<std::uint8_t>(msg.type),
                              static_cast<std::uint8_t>(
                                  trafficClassOf(msg.type)),
                              msg.bytes));
        handlers[dst](msg);
    }

    std::vector<Handler> handlers;
    NetworkStats netStats;
    TraceRecorder *tracer = nullptr;
};

/** Fixed-latency, infinite-bandwidth network for unit tests. */
class IdealNetwork : public Network
{
  public:
    IdealNetwork(EventQueue &eq, std::uint32_t num_nodes,
                 Tick latency = 1)
        : Network(eq, num_nodes), fixedLatency(latency)
    {}

    void
    send(Message msg) override
    {
        deliver(msg, fixedLatency, 1);
    }

  private:
    Tick fixedLatency;
};

/** Configuration for MeshNetwork. */
struct MeshConfig {
    /** Per-hop link traversal latency in cycles (Figure 8 sweeps this). */
    Tick hopLatency = 3;
    /** Link bandwidth in bytes per cycle (serialization delay). */
    std::uint32_t linkBytesPerCycle = 8;
    /** Fixed router pipeline delay per hop. */
    Tick routerDelay = 1;
};

/** Smallest near-square grid side that holds @p n nodes: the mesh's
 *  column count (row-major node numbering; the last row may be
 *  ragged). PDES partitions the rows of this same grid. */
std::uint32_t gridSide(std::uint32_t n);

/**
 * The mesh's timing model: the XY route walk and the combining-tree
 * schedule, shared by MeshNetwork and the PDES domain shim
 * (sim/domain.hh). It resolves every route analytically at send time
 * and leaves delivery to the owner.
 *
 * Contention model: each directed link keeps the tick at which it next
 * becomes free. A message crossing the link departs at
 * max(arrival, linkFree) and occupies the link for its serialization
 * time. This analytic store-and-forward model captures queueing delay
 * and link saturation without per-flit events.
 *
 * Only links leaving an *owned* row range model contention; the
 * others add the uncontended crossing cost without touching any state.
 * MeshNetwork owns every row. A PDES domain owns its own rows, which
 * keeps its window race-free.
 */
class MeshRouter
{
  public:
    /** Rows [@p first_row, @p end_row) are owned (default: all). */
    MeshRouter(std::uint32_t num_nodes, const MeshConfig &cfg,
               std::uint32_t first_row = 0,
               std::uint32_t end_row = ~std::uint32_t(0));

    std::uint32_t cols() const { return gridCols; }
    std::uint32_t rows() const { return gridRows; }

    /** Manhattan hop count between two nodes. */
    unsigned hopCount(NodeId a, NodeId b) const;

    /**
     * Walk the XY route from @p from, injected no earlier than
     * @p start, advancing owned links' next-free ticks, and return the
     * absolute arrival tick at @p to. @p from == @p to is the
     * one-cycle local loopback (no link usage). Point-to-point sends
     * and tree edges share this walk, so a tree edge pays exactly what
     * a message between its endpoints would.
     */
    Tick arrival(NodeId from, NodeId to, std::uint32_t bytes, Tick start,
                 unsigned &hops);

    /** Delay of a point-to-point send at @p now. */
    Tick
    delay(const Message &msg, Tick now, unsigned &hops)
    {
        return arrival(msg.src, msg.dst, msg.bytes, now, hops) - now;
    }

    /**
     * Stage a copy of @p proto to every node in @p dsts through a
     * k-ary combining tree (call sites pass ascending node lists): the
     * source feeds the first k destinations directly; destination
     * index p relays to indices (p+1)*k .. +k-1. Ascending index order
     * is a valid breadth-first schedule (a parent's index is always
     * below its children's), so one pass computes every copy's
     * injection and arrival. Relays need no forwarding events, and
     * under PDES the tree lives entirely in the sending domain's
     * timeline. Each copy goes to @p dispose(Message&&, delay, hops).
     */
    template <class Dispose>
    MulticastReceipt
    multicast(const Message &proto, std::span<const NodeId> dsts,
              std::uint32_t fanout, Tick now, Dispose &&dispose)
    {
        const std::uint32_t k = std::max<std::uint32_t>(2, fanout);
        const std::size_t n = dsts.size();
        const Tick ser = serialization(proto.bytes);

        mcArrival.assign(n, 0);
        mcNicFree.assign(n + 1, 0); // slot 0 = source, i+1 = dsts[i]
        mcNicPath.assign(n, 0);
        mcDepth.assign(n, 0);

        MulticastReceipt r;
        r.dests = static_cast<std::uint32_t>(n);
        for (std::size_t i = 0; i < n; ++i) {
            const bool root = i < k;
            const std::size_t pi = root ? 0 : i / k - 1;
            const NodeId parent = root ? proto.src : dsts[pi];
            // A relay re-injects one router pass after the copy
            // reaches it.
            const Tick ready =
                root ? now : mcArrival[pi] + config.routerDelay;
            const std::size_t slot = root ? 0 : pi + 1;
            const Tick inject = std::max(ready, mcNicFree[slot]);
            mcNicFree[slot] = inject + ser;
            unsigned hops = 0;
            const Tick arrive =
                arrival(parent, dsts[i], proto.bytes, inject, hops);
            mcArrival[i] = arrive;
            const std::uint32_t rank = static_cast<std::uint32_t>(
                root ? i : i - (pi + 1) * k);
            mcNicPath[i] = (root ? 0 : mcNicPath[pi]) + rank + 1;
            mcDepth[i] = (root ? 0 : mcDepth[pi]) + 1;
            r.nicSerialized = std::max(r.nicSerialized, mcNicPath[i]);
            r.depth = std::max(r.depth, mcDepth[i]);

            Message copy = proto;
            copy.dst = dsts[i];
            dispose(std::move(copy), arrive - now, hops);
        }
        return r;
    }

  private:
    template <bool OwnsAll>
    Tick walk(NodeId from, NodeId to, std::uint32_t bytes, Tick start,
              unsigned &hops);

    Tick
    serialization(std::uint32_t bytes) const
    {
        return std::max<Tick>(1, (bytes + config.linkBytesPerCycle - 1) /
                                     config.linkBytesPerCycle);
    }

    MeshConfig config;
    std::uint32_t gridCols;
    std::uint32_t gridRows;
    /** Owned grid slots [ownFirst, ownFirst + ownCount): the links
     *  leaving them model contention. */
    NodeId ownFirst;
    std::uint32_t ownCount;
    /** Next-free tick per directed link (4 directions per grid slot;
     *  routes may pass through unpopulated slots of a ragged grid). */
    std::vector<Tick> linkFree;
    /** Tree-multicast scratch (sized on first use, then reused; never
     *  touched on the flat path). mcNicFree slot 0 is the source,
     *  slot i+1 is destination index i. */
    std::vector<Tick> mcArrival;
    std::vector<Tick> mcNicFree;
    std::vector<std::uint32_t> mcNicPath;
    std::vector<std::uint32_t> mcDepth;
};

/** 2D mesh with XY dimension-order routing (timing: MeshRouter). */
class MeshNetwork : public Network
{
  public:
    MeshNetwork(EventQueue &eq, std::uint32_t num_nodes,
                const MeshConfig &cfg = MeshConfig{});

    void send(Message msg) override;

    /** Mesh side lengths chosen at construction. */
    std::uint32_t cols() const { return router.cols(); }
    std::uint32_t rows() const { return router.rows(); }

    /** Manhattan hop count between two nodes. */
    unsigned hopCount(NodeId a, NodeId b) const
    {
        return router.hopCount(a, b);
    }

  protected:
    /** Combining-tree staging when configured (Topology::Tree and a
     *  wide enough destination list); flat otherwise. */
    MulticastReceipt doMulticast(const Message &proto,
                                 std::span<const NodeId> dsts) override;

  private:
    MeshRouter router;
};

} // namespace tcc

#endif // TCC_NOC_NETWORK_HH
