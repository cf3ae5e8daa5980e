#include "noc/chaos_network.hh"

#include <algorithm>

#include "common/log.hh"

namespace tcc {

bool
chaosDuplicable(MsgType t)
{
    // A duplicated LoadReply is filtered by the Mshr sequence tag; a
    // duplicated ProbeReply is filtered by the commit table's done
    // flags and the TID-match guard. Everything else
    // (TID grants, invalidations, acks, data-carrying flushes) has
    // effects-on-receipt and must arrive exactly once.
    return t == MsgType::LoadReply || t == MsgType::ProbeReply;
}

ChaosConfig
chaosPreset(const std::string &name)
{
    ChaosConfig cfg;
    if (name == "light") {
        cfg.jitter = 3;
        cfg.reorderProb = 0.10;
        cfg.reorderWindow = 8;
        cfg.duplicateProb = 0.0;
    } else if (name == "jitter") {
        cfg.jitter = 12;
        cfg.reorderProb = 0.0;
        cfg.reorderWindow = 0;
        cfg.duplicateProb = 0.0;
    } else if (name == "reorder") {
        cfg.jitter = 4;
        cfg.reorderProb = 0.5;
        cfg.reorderWindow = 32;
        cfg.duplicateProb = 0.0;
    } else if (name == "dup") {
        cfg.jitter = 2;
        cfg.reorderProb = 0.1;
        cfg.reorderWindow = 8;
        cfg.duplicateProb = 0.2;
    } else if (name == "heavy") {
        cfg.jitter = 10;
        cfg.reorderProb = 0.4;
        cfg.reorderWindow = 40;
        cfg.duplicateProb = 0.1;
        cfg.duplicateLag = 17;
    } else {
        fatal("unknown chaos preset '%s' (try: light, jitter, reorder, "
              "dup, heavy)",
              name.c_str());
    }
    return cfg;
}

const std::vector<std::string> &
chaosPresetNames()
{
    static const std::vector<std::string> names = {
        "light", "jitter", "reorder", "dup", "heavy"};
    return names;
}

ChaosNetwork::ChaosNetwork(EventQueue &eq, std::uint32_t num_nodes,
                           std::unique_ptr<Network> base_net,
                           const ChaosConfig &cfg)
    : Network(eq, num_nodes), inner(std::move(base_net)), config(cfg),
      rng(cfg.seed)
{
    if (!inner)
        fatal("ChaosNetwork needs a base transport");
    if (inner->numNodes() != num_nodes)
        fatal("ChaosNetwork node count (%u) != base transport (%u)",
              num_nodes, inner->numNodes());
    // Every base endpoint funnels back into the decorator; the final
    // hop to the real handler happens in onBaseDeliver.
    for (NodeId n = 0; n < num_nodes; ++n)
        inner->connect(n,
                       [this](const Message &m) { onBaseDeliver(m); });
}

void
ChaosNetwork::send(Message msg)
{
    ++faultStats.messages;
    if (config.duplicateProb > 0.0 && chaosDuplicable(msg.type) &&
        rng.chance(config.duplicateProb)) {
        ++faultStats.duplicates;
        // The copy enters the base transport duplicateLag cycles
        // later, so it and the original contend and jitter
        // independently. The copy rides inside the event.
        eventq.schedule(config.duplicateLag,
                        [this, msg]() { inner->send(msg); });
    }
    inner->send(std::move(msg));
}

void
ChaosNetwork::onBaseDeliver(const Message &msg)
{
    // Draw the chaos delay for this delivery. Draw order is the base
    // transport's (deterministic) delivery order, so the whole run is
    // a function of (seed, config).
    Tick extra = config.jitter != 0 ? rng.below(config.jitter + 1) : 0;
    if (config.reorderProb > 0.0 && rng.chance(config.reorderProb)) {
        ++faultStats.reordersHeld;
        if (config.reorderWindow != 0)
            extra += rng.below(config.reorderWindow + 1);
    }
    faultStats.extraDelayTotal += extra;
    faultStats.maxExtraDelay = std::max(faultStats.maxExtraDelay, extra);
    // Final delivery through the decorator: stats and trace are
    // accounted here, once per (possibly duplicated) message. The base
    // transport's own counters stay untouched for diagnostics.
    deliver(msg, extra, 0);
}

} // namespace tcc
