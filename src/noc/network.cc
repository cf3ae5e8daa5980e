#include "noc/network.hh"

#include <cmath>

namespace tcc {

namespace {

enum Dir : unsigned { East = 0, West = 1, North = 2, South = 3 };

} // namespace

std::uint32_t
gridSide(std::uint32_t n)
{
    std::uint32_t c = 1;
    while (c * c < n)
        ++c;
    return c;
}

MeshRouter::MeshRouter(std::uint32_t num_nodes, const MeshConfig &cfg,
                       std::uint32_t first_row, std::uint32_t end_row)
    : config(cfg), gridCols(gridSide(num_nodes)),
      gridRows((num_nodes + gridCols - 1) / gridCols),
      ownFirst(first_row * gridCols),
      ownCount((std::min(end_row, gridRows) - first_row) * gridCols),
      linkFree(static_cast<std::size_t>(gridCols) * gridRows * 4, 0)
{
    if (config.linkBytesPerCycle == 0)
        fatal("mesh linkBytesPerCycle must be nonzero");
}

unsigned
MeshRouter::hopCount(NodeId a, NodeId b) const
{
    const int ax = static_cast<int>(a % gridCols);
    const int ay = static_cast<int>(a / gridCols);
    const int bx = static_cast<int>(b % gridCols);
    const int by = static_cast<int>(b / gridCols);
    return static_cast<unsigned>(std::abs(ax - bx) + std::abs(ay - by));
}

Tick
MeshRouter::arrival(NodeId from, NodeId to, std::uint32_t bytes,
                    Tick start, unsigned &hops)
{
    // Owning every row (the serial mesh) skips the per-hop ownership
    // test; the walk is the same code either way.
    return ownFirst == 0 && ownCount == gridCols * gridRows
               ? walk<true>(from, to, bytes, start, hops)
               : walk<false>(from, to, bytes, start, hops);
}

template <bool OwnsAll>
Tick
MeshRouter::walk(NodeId from, NodeId to, std::uint32_t bytes, Tick start,
                 unsigned &hops)
{
    hops = 0;
    if (from == to) {
        // Local loopback: one-cycle turnaround, no link usage.
        return start + 1;
    }

    const Tick ser = serialization(bytes);

    // Walk the XY route, advancing time across each link; an owned
    // link also delays departure until it is free and then holds it
    // for the serialization time (store-and-forward with contention).
    Tick t = start + config.routerDelay;
    int x = static_cast<int>(from % gridCols);
    int y = static_cast<int>(from / gridCols);
    const int dx = static_cast<int>(to % gridCols);
    const int dy = static_cast<int>(to / gridCols);
    NodeId cur = from;

    auto cross = [&](unsigned dir, NodeId next) {
        if (OwnsAll || cur - ownFirst < ownCount) {
            Tick &free = linkFree[static_cast<std::size_t>(cur) * 4 + dir];
            t = std::max(t, free);
            free = t + ser;
        }
        t += ser + config.hopLatency + config.routerDelay;
        cur = next;
        ++hops;
    };

    while (x != dx) {
        if (x < dx) {
            cross(East, cur + 1);
            ++x;
        } else {
            cross(West, cur - 1);
            --x;
        }
    }
    while (y != dy) {
        if (y < dy) {
            cross(South, cur + gridCols);
            ++y;
        } else {
            cross(North, cur - gridCols);
            --y;
        }
    }
    return t;
}

MeshNetwork::MeshNetwork(EventQueue &eq, std::uint32_t num_nodes,
                         const MeshConfig &cfg)
    : Network(eq, num_nodes), router(num_nodes, cfg)
{}

void
MeshNetwork::send(Message msg)
{
    if (msg.src >= numNodes() || msg.dst >= numNodes())
        panic("mesh send with bad endpoint %u->%u", msg.src, msg.dst);
    unsigned hops = 0;
    const Tick delay = router.delay(msg, eventq.now(), hops);
    deliver(msg, delay, hops);
}

MulticastReceipt
MeshNetwork::doMulticast(const Message &proto,
                         std::span<const NodeId> dsts)
{
    if (!treeEngages(dsts))
        return Network::doMulticast(proto, dsts);
    return router.multicast(
        proto, dsts, mcastCfg.fanout, eventq.now(),
        [this](Message &&copy, Tick delay, unsigned hops) {
            deliver(copy, delay, hops);
        });
}

} // namespace tcc
