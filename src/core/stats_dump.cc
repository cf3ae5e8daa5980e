#include "core/stats_dump.hh"

#include <algorithm>
#include <vector>

#include "common/flat_map.hh"
#include "obs/contention.hh"
#include "obs/metrics.hh"
#include "obs/tx_ledger.hh"

namespace tcc {

namespace {

void
addConfig(StatsNode &g, const SystemConfig &cfg)
{
    g.num("procs", cfg.numProcs);
    StatsNode &net = g.group("network");
    const NetworkConfig::Model model = cfg.network.model;
    net.name("model", model == NetworkConfig::Model::Mesh    ? "mesh"
                      : model == NetworkConfig::Model::Ideal ? "ideal"
                                                             : "chaos");
    if (model == NetworkConfig::Model::Chaos) {
        const ChaosConfig &c = cfg.network.chaos;
        net.name("base", c.overIdeal ? "ideal" : "mesh");
        net.num("seed", c.seed);
        net.num("jitter", c.jitter);
        net.real("reorder_prob", c.reorderProb);
        net.num("reorder_window", c.reorderWindow);
        net.real("duplicate_prob", c.duplicateProb);
        net.num("duplicate_lag", c.duplicateLag);
    }
    if (model == NetworkConfig::Model::Ideal ||
        (model == NetworkConfig::Model::Chaos &&
         cfg.network.chaos.overIdeal)) {
        net.num("ideal_latency", cfg.network.idealLatency);
    } else {
        net.num("hop_latency", cfg.network.mesh.hopLatency);
        net.num("link_bytes_per_cycle", cfg.network.mesh.linkBytesPerCycle);
    }
    StatsNode &check = g.group("check");
    check.flag("serial", cfg.check.serial);
    check.flag("invariants", cfg.check.invariants);
    g.flag("write_through_commit", cfg.writeThroughCommit);
}

void
addSystem(StatsNode &g, const System &sys)
{
    const Breakdown bd = sys.computeBreakdown();
    g.num("procs", sys.numProcs());
    g.num("committed_instructions", sys.committedInstructions());
    g.num("useful_cycles", bd.useful);
    g.num("miss_cycles", bd.miss);
    g.num("commit_cycles", bd.commit);
    g.num("idle_cycles", bd.idle);
    g.num("violation_cycles", bd.violation);
    g.num("tids_issued", sys.vendor().issued());
    g.flag("quiesced", sys.protocolQuiesced());
    const Arena::Stats as = sys.arenaStats();
    g.num("arena_peak_bytes", as.peakBytes);
    g.num("arena_chunks", as.chunks);
    g.num("trace_events_captured", sys.traceRecorder().captured());
    g.num("trace_events_dropped", sys.traceRecorder().dropped());
}

void
addNetwork(StatsNode &g, const NetworkStats &ns)
{
    g.num("messages", ns.messages);
    g.num("bytes", ns.totalBytes);
    g.num("hops", ns.totalHops);
    g.num("multicasts", ns.multicasts);
    g.num("multicast_nic_events", ns.multicastNicEvents);
    StatsNode &by = g.group("bytes_by_class");
    by.num("overhead", ns.classBytes[(int)TrafficClass::Overhead]);
    by.num("miss", ns.classBytes[(int)TrafficClass::Miss]);
    by.num("writeback", ns.classBytes[(int)TrafficClass::WriteBack]);
    by.num("shared", ns.classBytes[(int)TrafficClass::Shared]);
}

void
addPdes(StatsNode &g, const RunResult::PdesRunStats &ps)
{
    g.num("domains", ps.domains);
    g.num("lookahead", ps.lookahead);
    g.num("windows", ps.windows);
    g.num("phases", ps.phases);
    g.num("mailbox_messages", ps.mailboxMessages);
    g.num("idle_domain_skips", ps.idleDomainSkips);
    g.num("empty_broadcasts_skipped", ps.emptyBroadcastsSkipped);
    g.dist("window_width", ps.windowWidth);
}

void
addMetrics(StatsNode &g, const MetricsSampler &m)
{
    g.num("epoch", m.epochLength());
    g.num("epochs_closed", m.closed());
    g.num("epochs_dropped", m.dropped());
    g.num("first_epoch", m.firstEpoch());
    addMetricsSeries(m, g.group("series"));
}

void
addContention(StatsNode &g, const ContentionProfiler &c)
{
    g.num("top_k", c.topK());
    g.num("conflicts", c.conflictsRecorded());
    g.num("evictions", c.evictions());
    StatsNode &words = g.list("hot_words");
    for (const auto &w : c.hotWords()) {
        StatsNode &it = words.item();
        it.num("addr", w.addr);
        it.num("sr_conflicts", w.s.srConflicts);
        it.num("sm_conflicts", w.s.smConflicts);
        it.num("aborts", w.s.aborts);
        it.num("wasted_cycles", w.s.wasted);
    }
    StatsNode &edges = g.list("blame_edges");
    for (const auto &e : c.blameEdges()) {
        StatsNode &it = edges.item();
        it.num("killer", e.killer);
        it.num("victim", e.victim);
        it.num("count", e.count);
    }
}

void
addProc(StatsNode &g, NodeId p, const TccProcessor &proc)
{
    const auto &s = proc.stats();
    g.num("node", p);
    g.num("useful_cycles", s.usefulCycles);
    g.num("miss_cycles", s.missCycles);
    g.num("commit_cycles", s.commitCycles);
    g.num("idle_cycles", s.idleCycles);
    g.num("violation_cycles", s.violationCycles);
    g.num("txns_committed", s.txnsCommitted);
    g.num("violations", s.violations);
    g.num("overflows", s.overflows);
    g.num("solo_commits", s.soloCommits);
    g.num("drains", s.drains);
    g.num("tid_requests", s.tidRequests);
    g.num("value_validation_failures", s.valueValidationFailures);
    g.dist("txn_instructions", s.txnInstructions);
    g.dist("commit_latency", s.commitLatency);
    g.dist("dirs_per_commit", s.dirsPerCommit);
    g.dist("dirs_touched_per_commit", s.dirsTouchedPerCommit);
    g.dist("multicast_nic_per_commit", s.multicastNicPerCommit);

    const auto &cs = proc.cache().stats();
    StatsNode &cache = g.group("cache");
    cache.num("loads", cs.loads);
    cache.num("stores", cs.stores);
    cache.num("l1_hits", cs.l1Hits);
    cache.num("l2_hits", cs.l2Hits);
    cache.num("misses", cs.misses);
    cache.num("fills", cs.fills);
    cache.num("dirty_evictions", cs.dirtyEvictions);
    cache.num("overflows", cs.overflows);
    cache.num("ghosts", cs.ghostsCreated);
}

void
addDirectory(StatsNode &g, NodeId d, const Directory &dir)
{
    const auto &s = dir.stats();
    g.num("node", d);
    g.num("nstid", dir.nstid());
    g.num("loads_served", s.loadsServed);
    g.num("loads_stalled", s.loadsStalled);
    g.num("loads_forwarded", s.loadsForwarded);
    g.num("skips", s.skipsReceived);
    g.num("commits", s.commitsServed);
    g.num("partial_commits", s.partialCommitsServed);
    g.num("aborts", s.abortsServed);
    g.num("invalidations", s.invalidationsSent);
    g.num("writebacks_accepted", s.writeBacksAccepted);
    g.num("writebacks_dropped", s.writeBacksDropped);
    g.num("marks", s.marksReceived);
    g.num("probes_deferred", s.probesDeferred);
    g.num("dir_cache_misses", s.dirCacheMisses);
    g.num("busy_cycles", s.busyCycles);
    g.num("entries", dir.numEntries());
    g.dist("commit_occupancy", s.commitOccupancy);
    g.dist("working_set", s.workingSet);
}

void
addLedgerEntry(StatsNode &g, const TxLedgerEntry &e)
{
    g.num("tid", e.tid);
    g.num("node", e.node);
    g.num("begin_tick", e.beginTick);
    g.num("exec_cycles", e.execCycles());
    g.num("commit_cycles", e.commitCycles());
    g.num("retries", e.retries);
    g.num("probes", e.probeCount);
    g.real("probe_rtt_mean", e.probeRttMean());
    g.num("probe_rtt_max", e.probeRttMax);
    g.num("mark_to_commit", e.markToCommitCycles());
    g.num("skip_to_commit", e.skipToCommitCycles());
    g.num("directories_touched", e.directoriesTouched);
    g.num("multicast_events", e.multicastEvents);
    g.flag("has_violation", e.hasViolation);
    if (!e.hasViolation)
        return;
    g.num("violation_addr", e.violationAddr);
    g.num("violation_writer", e.violationWriter);
    StatsNode &causes = g.list("causes");
    for (const auto &[addr, n] : e.causes) {
        StatsNode &it = causes.item();
        it.num("addr", addr);
        it.num("count", n);
    }
}

/** The count of commits left out of the ledger, ledger-wide fan-out
 *  distributions, and the violation-cause histogram: which addresses
 *  caused retries, not just each transaction's last cause (count
 *  descending, address ascending). */
void
addLedgerSummary(StatsNode &g, const TxLedger &ledger)
{
    g.num("truncated", ledger.truncated);
    Distribution dirs, mcast;
    FlatMap<Addr, std::uint64_t> agg;
    for (const TxLedgerEntry &e : ledger.entries) {
        dirs.sample(static_cast<double>(e.directoriesTouched));
        mcast.sample(static_cast<double>(e.multicastEvents));
        for (const auto &[addr, n] : e.causes)
            agg[addr] += n;
    }
    g.dist("directories_touched", dirs);
    g.dist("multicast_events", mcast);

    std::vector<std::pair<Addr, std::uint64_t>> causes;
    causes.reserve(agg.size());
    for (const auto &kv : agg)
        causes.emplace_back(kv.first, kv.second);
    std::sort(causes.begin(), causes.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first;
              });
    StatsNode &list = g.list("violation_causes");
    for (const auto &[addr, n] : causes) {
        StatsNode &it = list.item();
        it.num("addr", addr);
        it.num("count", n);
    }
}

} // namespace

StatsNode
buildStatsTree(const System &sys)
{
    StatsNode root;
    addConfig(root.group("config"), sys.cfg());
    addSystem(root.group("system"), sys);
    addNetwork(root.group("network"), sys.network().stats());
    if (sys.pdesStats().domains != 0)
        addPdes(root.group("pdes"), sys.pdesStats());
    if (const MetricsSampler *m = sys.metricsSampler())
        addMetrics(root.group("metrics"), *m);
    if (const ContentionProfiler *c = sys.contentionProfiler())
        addContention(root.group("contention"), *c);

    StatsNode &procs = root.list("procs");
    for (NodeId p = 0; p < sys.numProcs(); ++p)
        addProc(procs.item(), p, sys.proc(p));
    StatsNode &dirs = root.list("dirs");
    for (NodeId d = 0; d < sys.numProcs(); ++d)
        addDirectory(dirs.item(), d, sys.directory(d));

    const TxLedger ledger = buildTxLedger(sys.traceRecorder());
    StatsNode &entries = root.list("tx_ledger");
    for (const TxLedgerEntry &e : ledger.entries)
        addLedgerEntry(entries.item(), e);
    addLedgerSummary(root.group("tx_ledger_summary"), ledger);
    return root;
}

void
dumpStats(const System &sys, std::ostream &os)
{
    os << "---------- begin tcc stats ----------\n";
    renderStatsText(buildStatsTree(sys), os);
    os << "---------- end tcc stats ----------\n";
}

void
dumpStatsJson(const System &sys, std::ostream &os)
{
    renderStatsJson(buildStatsTree(sys), os);
    os << "\n";
}

} // namespace tcc
