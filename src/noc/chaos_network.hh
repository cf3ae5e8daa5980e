/**
 * @file
 * Fault-injection network decorator ("chaos network").
 *
 * ChaosNetwork wraps any transport (Mesh or Ideal) and perturbs its
 * delivery schedule under a seeded deterministic random stream:
 *
 *  - per-message latency jitter: every message picks up an extra
 *    uniform delay in [0, jitter] cycles after the base transport
 *    delivers it;
 *  - bounded reordering: with probability reorderProb a message is
 *    additionally held for up to reorderWindow cycles, letting later
 *    messages between the same endpoints overtake it (the total extra
 *    delay is bounded by jitter + reorderWindow, so reordering is
 *    bounded, never starvation);
 *  - duplication of idempotent replies: with probability duplicateProb
 *    a LoadReply or ProbeReply is sent twice, the copy lagging by
 *    duplicateLag cycles. Only reply types the protocol tolerates
 *    receiving twice are eligible - request/ack types (TidReply, Inv,
 *    InvAck, ...) are never duplicated, because a real transport that
 *    duplicates those has genuinely broken exactly-once semantics the
 *    protocol does not (and per the paper need not) defend against.
 *
 * All perturbations are drawn from one Rng seeded from ChaosConfig, and
 * every draw happens inside the deterministic event loop, so a run is a
 * pure function of (seed, config): golden-fingerprint and
 * serial-vs-parallel identity tests keep working with chaos enabled.
 *
 * Where the protocol genuinely requires point-to-point ordering the
 * messages carry explicit tags that restore it (Message::seq on load
 * replies, Message::tid on write-backs and marks); see DESIGN.md
 * section 10 for the full ordering audit.
 */

#ifndef TCC_NOC_CHAOS_NETWORK_HH
#define TCC_NOC_CHAOS_NETWORK_HH

#include <memory>
#include <string>
#include <vector>

#include "noc/network.hh"
#include "sim/random.hh"

namespace tcc {

/** Fault-injection knobs; all delays in cycles. */
struct ChaosConfig {
    /** Layer the faults on an IdealNetwork instead of the mesh. */
    bool overIdeal = false;
    /** Extra uniform delay in [0, jitter] per message. */
    Tick jitter = 6;
    /** Probability a message is held for an extra reorder delay. */
    double reorderProb = 0.25;
    /** Maximum extra hold for a reordered message. */
    Tick reorderWindow = 24;
    /** Probability an idempotent reply is delivered twice. */
    double duplicateProb = 0.0;
    /** The duplicate copy enters the transport this much later. */
    Tick duplicateLag = 9;
    /** Seed of the fault stream (part of the run fingerprint). */
    std::uint64_t seed = 0xC7A05;
};

/** Named fault presets for the CLI / sweep drivers. */
ChaosConfig chaosPreset(const std::string &name);

/** The preset names chaosPreset() accepts. */
const std::vector<std::string> &chaosPresetNames();

/** True when the protocol tolerates receiving @p t twice. */
bool chaosDuplicable(MsgType t);

/**
 * Network decorator owning the base transport. Endpoint handlers are
 * registered on the decorator; the base transport's endpoints all feed
 * back into the decorator, which applies the extra chaos delay and
 * performs the final delivery (so the System's traffic statistics and
 * protocol trace come from the decorator, once per message).
 */
class ChaosNetwork : public Network
{
  public:
    struct ChaosStats {
        std::uint64_t messages = 0;     ///< messages through send()
        std::uint64_t duplicates = 0;   ///< extra copies injected
        std::uint64_t reordersHeld = 0; ///< messages given a hold
        std::uint64_t extraDelayTotal = 0; ///< sum of injected cycles
        Tick maxExtraDelay = 0;
    };

    ChaosNetwork(EventQueue &eq, std::uint32_t num_nodes,
                 std::unique_ptr<Network> base_net,
                 const ChaosConfig &cfg);

    void send(Message msg) override;

    /** The wrapped transport (diagnostics / tests). */
    const Network &base() const { return *inner; }

    const ChaosStats &chaosStats() const { return faultStats; }

    const ChaosConfig &chaosCfg() const { return config; }

  private:
    void onBaseDeliver(const Message &msg);

    std::unique_ptr<Network> inner;
    ChaosConfig config;
    Rng rng;
    ChaosStats faultStats;
};

} // namespace tcc

#endif // TCC_NOC_CHAOS_NETWORK_HH
