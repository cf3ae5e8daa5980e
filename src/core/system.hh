/**
 * @file
 * Scalable TCC system assembly: the library's primary public API.
 *
 * A System instantiates one node per processor - each node hosting a
 * TCC processor with a private speculative cache hierarchy, a
 * directory with the node's memory slice, and a network interface -
 * plus the global TID vendor at node 0 and a 2D-mesh interconnect.
 *
 * Typical use:
 *
 *   tcc::SystemConfig cfg;
 *   cfg.numProcs = 32;
 *   cfg.check.serial = true;       // end-of-run serializability oracle
 *   tcc::System sys(cfg);
 *   sys.setSource(p, &mySource);   // one TransactionSource per proc
 *   tcc::RunResult res = sys.run();
 *   // res carries cycles, the execution-time breakdown, per-proc and
 *   // per-directory stats, and both checker verdicts.
 */

#ifndef TCC_CORE_SYSTEM_HH
#define TCC_CORE_SYSTEM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cache/spec_cache.hh"
#include "check/invariant_checker.hh"
#include "check/serial_checker.hh"
#include "common/arena.hh"
#include "common/types.hh"
#include "directory/directory.hh"
#include "mem/global_store.hh"
#include "mem/home_map.hh"
#include "noc/chaos_network.hh"
#include "noc/network.hh"
#include "obs/trace_recorder.hh"
#include "obs/tx_ledger.hh"
#include "proc/processor.hh"
#include "proc/tid_vendor.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace tcc {

/** Interconnect selection and per-model parameters. */
struct NetworkConfig {
    enum class Model : std::uint8_t {
        Mesh,  ///< 2D mesh, XY routing (the paper's interconnect)
        Ideal, ///< fixed-latency, infinite bandwidth (unit tests)
        Chaos, ///< adversarial wrapper over Mesh or Ideal (see chaos)
    };
    Model model = Model::Mesh;
    /** Mesh parameters (Model::Mesh, and Chaos over a mesh base). */
    MeshConfig mesh;
    /** Fixed latency (Model::Ideal, and Chaos over an ideal base). */
    Tick idealLatency = 1;
    /** Fault-injection parameters (Model::Chaos). chaos.overIdeal
     *  picks the base network the faults are layered on. */
    ChaosConfig chaos;
    /** Commit fan-out strategy: flat per-destination sends (default,
     *  the paper's model) or a k-ary combining tree embedded in the
     *  mesh (Model::Mesh only; see noc/network.hh and DESIGN.md
     *  section 12). */
    MulticastConfig multicast;

    /** Messages cross mesh links: Mesh, or Chaos over a mesh base
     *  (otherwise the ideal network carries them). */
    bool
    meshBased() const
    {
        return model == Model::Mesh ||
               (model == Model::Chaos && !chaos.overIdeal);
    }
};

/** Correctness-checker selection. */
struct CheckConfig {
    /** Record commit logs and verify serializability after the run
     *  (RunResult::serial). */
    bool serial = false;
    /** Online protocol-invariant checker: asserts NSTID monotonicity,
     *  skip-or-service completeness, commit atomicity, and TID
     *  retention while the run executes (RunResult::invariants). A
     *  failure halts the run at the next event boundary. */
    bool invariants = false;
    /** Trace events quoted in an invariant-failure report. */
    std::size_t invariantHistory = 8;
};

/** Protocol event-ring sizing and observability layers. */
struct TraceConfig {
    /** Ring size in events; 0 (default) = off. The one switch for
     *  protocol tracing: a nonzero value claims the ring from the
     *  System's arena (each PDES domain's, under PDES) at
     *  construction, and every component records every event kind
     *  into it. The tx ledger does not depend on it: the processors
     *  keep every commit's record in every run. Recording is purely
     *  observational: results are bit-identical armed or not. */
    std::size_t capacity = 0;
    /** Epoch sampler cadence in cycles; 0 (default) = off. When armed
     *  the run loop closes one metrics row per epoch and keeps every
     *  row (see obs/metrics.hh). Sampling is purely observational:
     *  results are bit-identical armed or not. */
    Tick metricsEpoch = 0;
    /** Hot words the contention profiler reports; 0 (default) = off.
     *  The table itself keeps every conflicting word (see
     *  obs/contention.hh). */
    std::size_t contentionTopK = 0;
};

/**
 * Conservative PDES execution of a single run (sim/domain.hh,
 * DESIGN.md section 11). With domains >= 2 the run executes in the
 * barrier-synchronous PDES engine, every domain on the calling
 * thread; otherwise the serial engine runs unchanged. Results depend
 * on the (effective) domain count.
 */
struct PdesConfig {
    /** Barrier cadence, of which only Adaptive exists: a window
     *  extends across sub-phases that produced no cross-domain output
     *  (no store writes, no SPMD arrivals, no done transitions) and
     *  closes at the first that did; mailbox parcels flush every
     *  sub-phase at their exact arrival ticks. The type and `sync`
     *  stay for source compatibility (benchmark/tcc_benchmark.cc sets
     *  the field). */
    enum class Sync : std::uint8_t { Adaptive };
    /** Requested domain count; clamped to the mesh row count (or the
     *  node count on an ideal network). 0 or 1 = serial engine. */
    std::uint32_t domains = 0;
    /** Ignored: the domains run on the calling thread. The field
     *  stays for source compatibility (benchmark/tcc_benchmark.cc
     *  sets it), like `sync`. */
    std::uint32_t jobs = 0;
    Sync sync = Sync::Adaptive;
};

/** Full system configuration (defaults follow the paper's Table 2). */
struct SystemConfig {
    std::uint32_t numProcs = 8;
    CacheConfig cache;
    DirectoryConfig directory;
    ProcessorConfig processor;
    HomePolicy homePolicy = HomePolicy::FirstTouch;
    std::uint32_t pageBytes = 4096;
    /** Interconnect model and parameters. */
    NetworkConfig network;
    /** TID vendor service latency. */
    Tick tidVendorLatency = 5;
    /** Ablation: write-through commit (data with marks) instead of the
     *  paper's write-back commit, for every processor and directory. */
    bool writeThroughCommit = false;
    /** Correctness checkers to arm for the run. */
    CheckConfig check;
    /** Protocol trace ring. */
    TraceConfig trace;
    /** PDES domain partition of the run (off by default). */
    PdesConfig pdes;

    /** Sanity-check the configuration. Returns an empty string when
     *  the config is usable, else a description of the first problem.
     *  The System constructor calls this and fatal()s on failure. */
    std::string validate() const;
};

/** Aggregated execution-time breakdown across all processors. */
struct Breakdown {
    std::uint64_t useful = 0;
    std::uint64_t miss = 0;
    std::uint64_t commit = 0;
    std::uint64_t idle = 0;
    std::uint64_t violation = 0;

    std::uint64_t
    total() const
    {
        return useful + miss + commit + idle + violation;
    }

    double
    fraction(std::uint64_t part) const
    {
        const std::uint64_t t = total();
        return t == 0 ? 0.0
                      : static_cast<double>(part) /
                            static_cast<double>(t);
    }
};

/** Verdict of one correctness checker for a run. */
struct CheckVerdict {
    /** Whether the checker was armed for this run. */
    bool checked = false;
    /** Clean (vacuously true when !checked). */
    bool ok = true;
    /** First failure's diagnostic (empty when ok). */
    std::string error;
    /** Work done: transactions replayed (serial) or hook invocations
     *  (invariants) - sanity that the checker actually ran. */
    std::uint64_t checks = 0;
};

/** Per-processor slice of a RunResult. */
struct ProcRunStats {
    std::uint64_t txnsCommitted = 0;
    std::uint64_t violations = 0;
    std::uint64_t overflows = 0;
    std::uint64_t soloCommits = 0;
    std::uint64_t committedInstructions = 0;
};

/** Per-directory slice of a RunResult. */
struct DirRunStats {
    Tid nstid = 0;
    std::uint64_t commitsServed = 0;
    std::uint64_t skipsReceived = 0;
    std::uint64_t abortsServed = 0;
    std::uint64_t invalidationsSent = 0;
    std::uint64_t writeBacksDropped = 0;
};

/**
 * Everything a caller needs from one run, returned by System::run().
 * Callers should consume this instead of poking component getters
 * post-hoc; the System stays alive for deep inspection (distributions,
 * trace ring, memory) when needed.
 */
struct RunResult {
    Tick cycles = 0;        ///< completion time (last proc done)
    bool completed = false; ///< all processors drained their sources
    std::uint64_t events = 0;
    /** Every directory retired every issued TID and holds no pending
     *  state (end-of-run protocol invariant). */
    bool quiesced = false;

    /** Summed execution-time buckets (Figure 6/7). */
    Breakdown breakdown;
    std::uint64_t committedTxns = 0;
    std::uint64_t violations = 0;
    std::uint64_t overflows = 0;
    std::uint64_t committedInstructions = 0;

    std::vector<ProcRunStats> procs;
    std::vector<DirRunStats> dirs;

    /** Serializability oracle verdict (armed via check.serial). */
    CheckVerdict serial;
    /** Online invariant-checker verdict (armed via check.invariants). */
    CheckVerdict invariants;

    /** PDES execution statistics (all zero for serial-engine runs). */
    struct PdesRunStats {
        std::uint32_t domains = 0;
        Tick lookahead = 0;
        /** Barrier windows closed (store-log broadcast + barrier
         *  phase). */
        std::uint64_t windows = 0;
        /** Lockstep sub-phases executed (EOT-bounded dispatches). */
        std::uint64_t phases = 0;
        std::uint64_t mailboxMessages = 0;
        /** Domain-dispatches skipped because the domain had no event
         *  inside the sub-phase (its state was never touched). */
        std::uint64_t idleDomainSkips = 0;
        /** Window closes whose store write logs were all empty, so
         *  the replica broadcast was skipped outright. */
        std::uint64_t emptyBroadcastsSkipped = 0;
        /** Realized barrier-to-barrier window widths in cycles
         *  (mean/p50/p99). */
        Distribution windowWidth;
    };
    PdesRunStats pdes;

    /** Both armed checkers came back clean. */
    bool checksPassed() const { return serial.ok && invariants.ok; }
};

struct PdesState;         // sim/domain.hh (PDES engine internals)
struct PdesDomain;        // sim/domain.hh (one PDES domain)
class MetricsSampler;     // obs/metrics.hh (epoch time series)
class ContentionProfiler; // obs/contention.hh (conflict attribution)

/** A complete Scalable TCC machine. */
class System
{
  public:
    explicit System(const SystemConfig &cfg);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Attach the transaction stream for processor @p proc. The source
     *  must outlive the System's run. */
    void setSource(NodeId proc, TransactionSource *src);

    /** Write initial (non-transactional) memory state before running. */
    void initializeWord(Addr addr, std::uint64_t value);

    /** Place all pages of [base, base+bytes) at @p home (models the
     *  OS page placement a real first-touch run would produce). */
    void bindRegion(Addr base, std::uint64_t bytes, NodeId home);

    /** Run to completion (or @p max_ticks) and report the outcome,
     *  including any armed checker verdicts (CheckConfig). A run cut
     *  by @p max_ticks executes every event at or before it, none
     *  later, and reports cycles == max_ticks. With the invariant
     *  checker armed, a failure halts the run at the next event
     *  boundary (under PDES: the failing domain's next event boundary,
     *  the others' window end) and the diagnostic lands in
     *  RunResult::invariants.error. */
    RunResult run(Tick max_ticks = kTickMax);

    // --- component access -------------------------------------------
    std::uint32_t numProcs() const { return config.numProcs; }
    const TccProcessor &proc(NodeId n) const { return *procs.at(n); }
    TccProcessor &proc(NodeId n) { return *procs.at(n); }
    const Directory &directory(NodeId n) const { return *dirs.at(n); }
    const Network &network() const { return *net; }
    Network &network() { return *net; }
    GlobalStore &memory() { return store; }
    /** The serializability checker (structural access, e.g.
     *  replayFinalState(), pendingHighWater(); the verdict is in
     *  RunResult::serial). */
    const SerialChecker &commitLog() const { return serialChecker; }
    const TidVendor &vendor() const { return *tidVendor; }
    const SystemConfig &cfg() const { return config; }
    /** The protocol event ring (empty unless TraceConfig::capacity
     *  armed it; see obs/trace_recorder.hh). */
    const TraceRecorder &traceRecorder() const { return tracer; }
    TraceRecorder &traceRecorder() { return tracer; }

    /** One record per committed transaction, in commit order, in
     *  every run (obs/tx_ledger.hh). Under PDES this is the merged
     *  cross-domain ledger, available after run(). */
    const TxLedger &ledger() const { return txLedger; }

    /** Epoch time series of the last run, or null when metrics are off
     *  (TraceConfig::metricsEpoch == 0). Under PDES this is the merged
     *  cross-domain series, available after run(). */
    const MetricsSampler *metricsSampler() const
    {
        return metricsSamp.get();
    }

    /** Conflict-attribution profiler, or null when off
     *  (TraceConfig::contentionTopK == 0). Under PDES this is the
     *  merged cross-domain table, available after run(). */
    const ContentionProfiler *contentionProfiler() const
    {
        return contentionProf.get();
    }

    /** PDES stats of the last run() (all zero for serial-engine runs
     *  or before any run); the copy dumpStats reads post-hoc. */
    const RunResult::PdesRunStats &pdesStats() const
    {
        return lastPdesStats;
    }

    /** PDES engine internals, or null for serial-engine systems.
     *  Diagnostics and tests only (e.g. the idle-domain-skip test
     *  inspects a quiesced domain's queue and arena). */
    const PdesState *pdesInternals() const { return pdesState.get(); }

    /** Memory footprint of this run's arena (reporting/benches). */
    Arena::Stats arenaStats() const { return arena.stats(); }

    // --- aggregate reporting ------------------------------------------
    /** Sum of per-processor breakdown buckets. Prefer the copy in
     *  RunResult::breakdown after run(). */
    Breakdown computeBreakdown() const;

    /** Total committed instructions (Figure 9 normalization). */
    std::uint64_t committedInstructions() const;

    /** All directories retired every issued TID and hold no pending
     *  state: the protocol fully quiesced (test invariant). */
    bool protocolQuiesced() const;

  private:
    /**
     * One independently stepped slice of the machine: the System
     * itself in serial mode, or one PDES domain. Both engines wire
     * nodes, attach observability, and finalize checkers per part;
     * the members point at whichever object owns the component.
     */
    struct Part {
        NodeId first;
        std::uint32_t count;
        EventQueue *eq;
        Network *net;
        Arena *arena;
        GlobalStore *store;
        TraceRecorder *tracer;
        TxLedger *ledger;
        std::unique_ptr<InvariantChecker> *checker;
        std::unique_ptr<MetricsSampler> *metrics;
        std::unique_ptr<ContentionProfiler> *contention;
        PdesDomain *domain; ///< null in serial mode
    };
    /** The engine's parts, in ascending node order. */
    std::vector<Part> parts();

    /** Build every node (directory + processor) and the TID vendor
     *  into its part, then each part's observability layers. */
    void wireNodes();
    void dispatch(NodeId node, const Message &msg);
    /** Release the SPMD barrier at tick @p at once every active
     *  processor waits at it (serial: now+1 of the last arrival;
     *  PDES: the end of the window it arrived in). */
    void releaseBarrier(Tick at);

    // --- PDES engine (sim/domain.hh; DESIGN.md section 11) ----------
    void buildPdes();
    RunResult runPdes(Tick max_ticks);

    /** The end of a run in both engines: run statistics, then every
     *  checker's verdict. @p fallback_now is the reported cycles of an
     *  incomplete run. A @p halted run (invariant failure) skips the
     *  completeness pass, so its first failure stands. */
    void finishRun(RunResult &res, Tick fallback_now, bool halted,
                   bool hit_tick_limit);

    /** Register the standard probe set on @p m for nodes
     *  [first, first+count) reading @p net's counters; the single
     *  authority for probe order and merge ops (serial system and
     *  every PDES domain register through here, so schemas match). */
    void registerMetricProbes(MetricsSampler &m, NodeId first,
                              std::uint32_t count, const Network &nw);

    SystemConfig config;
    /**
     * Run-private memory for every component below. Declared FIRST
     * so it outlives them all (members destroy in reverse order):
     * event-queue slabs, hash tables, and cache arrays
     * all point into it.
     */
    Arena arena;
    EventQueue eventq;
    /** Structured protocol event ring; components hold a pointer. */
    TraceRecorder tracer;
    /** Commit records; the processors append to it (serial) or to
     *  their domain's, merged here at finalize (PDES). */
    TxLedger txLedger;
    std::unique_ptr<Network> net;
    HomeMap homes;
    GlobalStore store;
    SerialChecker serialChecker;
    /** Online protocol-invariant checker (armed via check.invariants). */
    std::unique_ptr<InvariantChecker> invariants;
    /** PDES engine state (null in serial-engine systems). Declared
     *  before the vendor, directories, and processors: in PDES mode
     *  those are wired to the domains' queues, networks, and arenas. */
    std::unique_ptr<PdesState> pdesState;
    std::unique_ptr<TidVendor> tidVendor;
    std::vector<std::unique_ptr<Directory>> dirs;
    std::vector<std::unique_ptr<TccProcessor>> procs;
    /** Epoch sampler (null when metricsEpoch == 0). Serial: sampled by
     *  the run loop. PDES: created at finalize to hold the merged
     *  per-domain series. */
    std::unique_ptr<MetricsSampler> metricsSamp;
    /** Conflict profiler (null when contentionTopK == 0). Serial: fed
     *  directly by the processors. PDES: merged at finalize. */
    std::unique_ptr<ContentionProfiler> contentionProf;

    // Barrier service (SPMD phase barriers between transactions).
    std::vector<std::pair<NodeId, std::function<void()>>> barrierWaiters;
    std::uint32_t doneProcs = 0;
    /** Copy of the last run's PDES stats (see pdesStats()). */
    RunResult::PdesRunStats lastPdesStats;
};

} // namespace tcc

#endif // TCC_CORE_SYSTEM_HH
