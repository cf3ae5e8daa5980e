/**
 * @file
 * The repository benchmark. One invocation runs one workload in its
 * own process, arms the serializability and protocol-invariant
 * checkers on every simulation, prints every metric as
 * `name value unit`, and writes the same values as JSON.
 *
 * A round is the workload's set of simulations for one seed. A run of
 * --seconds S makes K = max(1, round(S / R)) rounds, where R is the
 * workload's round time on the reference box (README.md), with seeds
 * N*K .. N*K+K-1, so K depends only on the arguments and a run does
 * the same work on every machine. Host metrics are medians over the
 * rounds of host times scaled to the reference box's speed by a probe
 * timed before and after each round (probeS). Simulated metrics pool
 * every round's simulations and are exact for a given (seed, seconds).
 *
 * With --trace, half of S goes to untraced rounds and the first round
 * then runs again with spans recorded around every public call
 * (workload.make, core.build, workload.attach, core.run,
 * workload.next, check.verify); the per-layer metrics come from it.
 * Its fingerprints must equal the untraced ones. Spans are written as
 * Chrome trace-event JSON at exit.
 *
 * Usage: tcc_benchmark --workload NAME --seed N [--seconds S]
 *                      [--out FILE] [--trace FILE] [--smoke]
 * Exit status: 0 clean, 1 a simulation or gate failed, 2 bad usage.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/spec_cache.hh"
#include "core/sweep.hh"
#include "core/system.hh"
#include "noc/network.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "workload/registry.hh"

namespace {

using namespace tcc;
using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

// ------------------------------------------------------------ workloads

/** One simulation of a round; the round supplies the seed. */
struct SimSpec {
    std::string app;
    WorkloadParams params;
    SystemConfig cfg;
};

/** A workload: the simulations of one round and how they are run. */
struct WorkloadDef {
    std::vector<SimSpec> sims;
    /** Run the round's simulations concurrently through SweepRunner. */
    bool sweep = false;
    /** Seconds one round takes on the reference box (sets K). */
    double roundS = 1.0;
};

const char *const kWorkloads[] = {"table3_p64", "hotkey_write", "mesh1024",
                                  "pdes256"};

SystemConfig
checkedConfig(std::uint32_t procs)
{
    SystemConfig cfg;
    cfg.numProcs = procs;
    cfg.check.serial = true;
    cfg.check.invariants = true;
    return cfg;
}

/**
 * The simulations of one round of workload @p name. @p threads is
 * min(4, nproc): table3_p64 keeps threads - 1 simulations in flight
 * and pdes256 runs threads PDES jobs. Returns nullopt for an unknown
 * name.
 */
std::optional<WorkloadDef>
defineWorkload(const std::string &name, bool smoke, unsigned threads)
{
    WorkloadDef w;
    if (name == "table3_p64") {
        // The figure-regeneration path: every Table-3 app at 64 procs.
        WorkloadParams wl;
        if (smoke)
            wl.set("phases", "1").set("max_txns_per_phase", "128");
        for (const WorkloadInfo &info : workloadInfos())
            if (info.kind == "table3")
                w.sims.push_back({info.name, wl, checkedConfig(64)});
        // Longest first (run times at 64 procs on the reference box):
        // the sweep starts its critical path at once, so a round's wall
        // time does not depend on how the short simulations pack.
        static const std::vector<std::string> longestFirst = {
            "equake", "volrend", "radix", "barnes", "water_nsquared"};
        auto rank = [](const SimSpec &s) {
            return std::find(longestFirst.begin(), longestFirst.end(),
                             s.app) -
                   longestFirst.begin();
        };
        std::stable_sort(w.sims.begin(), w.sims.end(),
                         [&rank](const SimSpec &a, const SimSpec &b) {
                             return rank(a) < rank(b);
                         });
        w.sweep = true;
        w.roundS = 3.4;
    } else if (name == "hotkey_write") {
        // The same processor and directory code under heavy contention.
        WorkloadParams map;
        map.set("theta", "0.99").set("mix", "write_heavy");
        WorkloadParams bank;
        if (smoke) {
            map.set("max_txns_per_phase", "256");
            bank.set("max_txns_per_phase", "256");
        }
        w.sims.push_back({"ds_map", map, checkedConfig(32)});
        w.sims.push_back({"ds_bank", bank, checkedConfig(32)});
        w.roundS = 1.25;
    } else if (name == "mesh1024" || name == "pdes256") {
        const bool pdes = name == "pdes256";
        SystemConfig cfg = checkedConfig(pdes ? 256 : 1024);
        cfg.homePolicy = HomePolicy::Interleave;
        if (pdes) {
            cfg.pdes.domains = 8;
            cfg.pdes.jobs = threads;
            cfg.pdes.sync = PdesConfig::Sync::Adaptive;
        }
        WorkloadParams wl;
        if (smoke)
            wl.set("phases", "1").set("max_txns_per_phase", "256");
        w.sims.push_back({"barnes", wl, cfg});
        w.roundS = pdes ? 5.0 : 7.0;
    } else {
        return std::nullopt;
    }
    return w;
}

// ------------------------------------------------------- one simulation

/** What must match bit for bit between two runs of one simulation. */
struct Fingerprint {
    Tick cycles = 0;
    std::uint64_t events = 0;
    std::uint64_t commits = 0;
    std::uint64_t violations = 0;
    std::uint64_t memory = 0;

    bool operator==(const Fingerprint &) const = default;
};

/** Exact per-layer counts read from the public getters after a run. */
struct LayerCounts {
    std::uint64_t events = 0;
    std::uint64_t pdesWindows = 0;
    std::uint64_t pdesPhases = 0;
    std::uint64_t pdesMailbox = 0;
    std::uint64_t pdesIdleSkips = 0;

    Tick cycles = 0;
    std::uint64_t commits = 0;
    std::uint64_t violations = 0;
    std::uint64_t overflows = 0;
    Breakdown breakdown;
    Distribution commitLatency;
    Distribution dirsPerCommit;
    Distribution nicPerCommit;

    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t dirtyEvictions = 0;

    std::uint64_t busyCycles = 0;
    double maxBusyFrac = 0.0;
    Distribution occupancy;
    std::uint64_t loadsServed = 0;
    std::uint64_t loadsStalled = 0;
    std::uint64_t probesDeferred = 0;
    std::uint64_t skips = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t writebacksDropped = 0;
    std::uint64_t dirCacheMisses = 0;

    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    std::uint64_t hops = 0;
    std::uint64_t multicasts = 0;
    std::uint64_t multicastNic = 0;

    std::uint64_t arenaPeakBytes = 0; ///< max over simulations
    std::uint64_t arenaChunks = 0;    ///< max over simulations

    std::uint64_t serialTxns = 0;
    std::uint64_t invariantChecks = 0;

    void
    add(const LayerCounts &o)
    {
        events += o.events;
        pdesWindows += o.pdesWindows;
        pdesPhases += o.pdesPhases;
        pdesMailbox += o.pdesMailbox;
        pdesIdleSkips += o.pdesIdleSkips;
        cycles += o.cycles;
        commits += o.commits;
        violations += o.violations;
        overflows += o.overflows;
        breakdown.useful += o.breakdown.useful;
        breakdown.miss += o.breakdown.miss;
        breakdown.commit += o.breakdown.commit;
        breakdown.idle += o.breakdown.idle;
        breakdown.violation += o.breakdown.violation;
        commitLatency.merge(o.commitLatency);
        dirsPerCommit.merge(o.dirsPerCommit);
        nicPerCommit.merge(o.nicPerCommit);
        loads += o.loads;
        stores += o.stores;
        l1Hits += o.l1Hits;
        l2Hits += o.l2Hits;
        misses += o.misses;
        dirtyEvictions += o.dirtyEvictions;
        busyCycles += o.busyCycles;
        maxBusyFrac = std::max(maxBusyFrac, o.maxBusyFrac);
        occupancy.merge(o.occupancy);
        loadsServed += o.loadsServed;
        loadsStalled += o.loadsStalled;
        probesDeferred += o.probesDeferred;
        skips += o.skips;
        invalidations += o.invalidations;
        writebacksDropped += o.writebacksDropped;
        dirCacheMisses += o.dirCacheMisses;
        messages += o.messages;
        bytes += o.bytes;
        hops += o.hops;
        multicasts += o.multicasts;
        multicastNic += o.multicastNic;
        arenaPeakBytes = std::max(arenaPeakBytes, o.arenaPeakBytes);
        arenaChunks = std::max(arenaChunks, o.arenaChunks);
        serialTxns += o.serialTxns;
        invariantChecks += o.invariantChecks;
    }
};

LayerCounts
collectLayers(const System &sys, const RunResult &res)
{
    LayerCounts c;
    c.events = res.events;
    c.pdesWindows = res.pdes.windows;
    c.pdesPhases = res.pdes.phases;
    c.pdesMailbox = res.pdes.mailboxMessages;
    c.pdesIdleSkips = res.pdes.idleDomainSkips;
    c.cycles = res.cycles;
    c.breakdown = res.breakdown;
    c.serialTxns = res.serial.checks;
    c.invariantChecks = res.invariants.checks;
    for (NodeId n = 0; n < sys.numProcs(); ++n) {
        const TccProcessor::Stats &ps = sys.proc(n).stats();
        c.commits += ps.txnsCommitted;
        c.violations += ps.violations;
        c.overflows += ps.overflows;
        c.commitLatency.merge(ps.commitLatency);
        c.dirsPerCommit.merge(ps.dirsPerCommit);
        c.nicPerCommit.merge(ps.multicastNicPerCommit);

        const SpecCache::Stats &cs = sys.proc(n).cache().stats();
        c.loads += cs.loads;
        c.stores += cs.stores;
        c.l1Hits += cs.l1Hits;
        c.l2Hits += cs.l2Hits;
        c.misses += cs.misses;
        c.dirtyEvictions += cs.dirtyEvictions;

        const Directory::Stats &ds = sys.directory(n).stats();
        c.busyCycles += ds.busyCycles;
        c.maxBusyFrac = std::max(
            c.maxBusyFrac, ratio(static_cast<double>(ds.busyCycles),
                                 static_cast<double>(res.cycles)));
        c.occupancy.merge(ds.commitOccupancy);
        c.loadsServed += ds.loadsServed;
        c.loadsStalled += ds.loadsStalled;
        c.probesDeferred += ds.probesDeferred;
        c.skips += ds.skipsReceived;
        c.invalidations += ds.invalidationsSent;
        c.writebacksDropped += ds.writeBacksDropped;
        c.dirCacheMisses += ds.dirCacheMisses;
    }
    const NetworkStats &ns = sys.network().stats();
    c.messages = ns.messages;
    c.bytes = ns.totalBytes;
    c.hops = ns.totalHops;
    c.multicasts = ns.multicasts;
    c.multicastNic = ns.multicastNicEvents;
    const Arena::Stats as = sys.arenaStats();
    c.arenaPeakBytes = as.peakBytes;
    c.arenaChunks = as.chunks;
    return c;
}

/**
 * Forwards to the workload's source and times nextTransaction(). One
 * per processor; under PDES each is called only by the thread driving
 * its processor's domain, so the counters need no synchronisation.
 */
class TimedSource final : public TransactionSource
{
  public:
    explicit TimedSource(TransactionSource &inner) : inner(inner) {}

    std::optional<Transaction>
    nextTransaction() override
    {
        const Clock::time_point t0 = Clock::now();
        std::optional<Transaction> tx = inner.nextTransaction();
        spent += Clock::now() - t0;
        ++calls;
        return tx;
    }

    void transactionCommitted() override { inner.transactionCommitted(); }
    void transactionViolated() override { inner.transactionViolated(); }

    std::optional<std::vector<TxOp>>
    regenerateOps() override
    {
        return inner.regenerateOps();
    }

    Clock::duration spent{};
    std::uint64_t calls = 0;

  private:
    TransactionSource &inner;
};

/** One span, times in microseconds since the process epoch. */
struct Span {
    const char *name = "";
    /** Index of the parent span in the same simulation, -1 for none. */
    int parent = -1;
    double startUs = 0.0;
    double durUs = 0.0;
    /** Calls folded into this span (workload.next), else 0. */
    std::uint64_t calls = 0;
};

struct SimOutcome {
    bool ok = false;
    std::string error;
    Fingerprint fp;
    LayerCounts layers;
    double makeS = 0.0;
    double buildS = 0.0;
    double attachS = 0.0;
    double runS = 0.0;
    // Traced runs only.
    double verifyS = 0.0;
    double nextS = 0.0;
    std::uint64_t nextCalls = 0;
    std::vector<Span> spans;
};

/**
 * Run one simulation. Untraced, only the phase times are taken. Traced,
 * every phase is recorded as a span under one bench.sim root, the
 * sources are wrapped in TimedSource after attach(), and the commit log
 * is verified once more after the run to time check.verify.
 */
SimOutcome
runSim(const SimSpec &spec, std::uint64_t seed, bool traced,
       Clock::time_point epoch)
{
    SimOutcome out;
    auto us = [epoch](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - epoch).count();
    };
    auto span = [&](const char *name, int parent, Clock::time_point a,
                    Clock::time_point b) {
        if (!traced)
            return -1;
        out.spans.push_back({name, parent, us(a), us(b) - us(a), 0});
        return static_cast<int>(out.spans.size()) - 1;
    };
    // The root comes first so children can name it; closed at the end.
    const int root = span("bench.sim", -1, epoch, epoch);

    const Clock::time_point t0 = Clock::now();
    auto bundle = std::make_unique<WorkloadBundle>(makeWorkload(
        spec.app, spec.params, seed, spec.cfg.numProcs));
    const Clock::time_point t1 = Clock::now();
    auto sys = std::make_unique<System>(spec.cfg);
    const Clock::time_point t2 = Clock::now();
    bundle->attach(*sys);
    const Clock::time_point t3 = Clock::now();
    span("workload.make", root, t0, t1);
    span("core.build", root, t1, t2);
    span("workload.attach", root, t2, t3);

    std::vector<std::unique_ptr<TimedSource>> timed;
    if (traced) {
        for (NodeId p = 0; p < sys->numProcs(); ++p) {
            timed.push_back(
                std::make_unique<TimedSource>(*bundle->sources.at(p)));
            sys->setSource(p, timed.back().get());
        }
    }

    const Clock::time_point t4 = Clock::now();
    const RunResult res = sys->run();
    const Clock::time_point t5 = Clock::now();
    const int run = span("core.run", root, t4, t5);
    out.makeS = secondsBetween(t0, t1);
    out.buildS = secondsBetween(t1, t2);
    out.attachS = secondsBetween(t2, t3);
    out.runS = secondsBetween(t4, t5);

    if (traced) {
        Clock::duration next{};
        for (const auto &t : timed) {
            next += t->spent;
            out.nextCalls += t->calls;
        }
        out.nextS = std::chrono::duration<double>(next).count();
        // One aggregate child span: a span per call would be millions.
        const int id = span("workload.next", run, t4, t4);
        out.spans[id].durUs = out.nextS * 1e6;
        out.spans[id].calls = out.nextCalls;

        const Clock::time_point v0 = Clock::now();
        const SerialChecker::Result again = sys->commitLog().verify();
        const Clock::time_point v1 = Clock::now();
        span("check.verify", root, v0, v1);
        out.verifyS = secondsBetween(v0, v1);
        if (!again.ok)
            out.error = "re-verify: " + again.error;
    }

    const Clock::time_point c0 = Clock::now();
    out.fp = {res.cycles, res.events, res.committedTxns, res.violations,
              sys->memory().fingerprint()};
    out.layers = collectLayers(*sys, res);
    if (!res.completed)
        out.error = "did not complete";
    else if (!res.quiesced)
        out.error = "did not quiesce";
    else if (!res.serial.checked || !res.invariants.checked)
        out.error = "a checker was not armed";
    else if (!res.serial.ok)
        out.error = "serializability: " + res.serial.error;
    else if (!res.invariants.ok)
        out.error = "invariants: " + res.invariants.error;
    else if (out.layers.commitLatency.count() != out.layers.commits)
        out.error = "commit-latency samples != commits";
    out.ok = out.error.empty();
    const Clock::time_point c1 = Clock::now();
    span("bench.collect", root, c0, c1);

    sys.reset();
    timed.clear();
    bundle.reset();
    const Clock::time_point d1 = Clock::now();
    span("core.destroy", root, c1, d1);
    if (traced) {
        out.spans[root].startUs = us(t0);
        out.spans[root].durUs = us(d1) - us(t0);
    }
    return out;
}

// ---------------------------------------------------------------- rounds

struct Round {
    std::vector<SimOutcome> sims;
    Clock::time_point start;
    Clock::time_point end;

    double wallS() const { return secondsBetween(start, end); }

    double
    setupS() const
    {
        double s = 0.0;
        for (const SimOutcome &o : sims)
            s += o.makeS + o.buildS + o.attachS;
        return s;
    }

    double
    eventsPerS() const
    {
        double events = 0.0, run = 0.0;
        for (const SimOutcome &o : sims) {
            events += static_cast<double>(o.fp.events);
            run += o.runS;
        }
        return ratio(events, run);
    }
};

Round
runRound(const WorkloadDef &w, std::uint64_t seed, unsigned threads,
         bool traced, Clock::time_point epoch)
{
    Round r;
    r.start = Clock::now();
    if (w.sweep) {
        // wait() runs jobs on the calling thread too, so threads - 2
        // workers keep threads - 1 simulations in flight and leave one
        // core to the rest of the system. With every core busy, the
        // sweep's critical path shared a core with it and rounds on the
        // 4-core reference box varied 2.1-3.2 s instead of 2.8-3.2 s.
        SweepRunner runner(threads > 2 ? threads - 2 : 1);
        r.sims = sweepIndex<SimOutcome>(
            runner, w.sims.size(), [&w, seed, traced, epoch](std::size_t i) {
                return runSim(w.sims[i], seed, traced, epoch);
            });
    } else {
        for (const SimSpec &s : w.sims)
            r.sims.push_back(runSim(s, seed, traced, epoch));
    }
    r.end = Clock::now();
    return r;
}

// ------------------------------------------------- isolated call costs

volatile std::uint64_t gSink = 0;

/** Median ns per operation over timed batches of @p batch (which
 *  returns the nanoseconds and operations of one batch). */
template <typename Fn>
double
medianNsPerOp(Fn batch)
{
    constexpr int kBatches = 15;
    batch(); // warm-up: first-touch allocation, caches
    std::vector<double> v;
    for (int i = 0; i < kBatches; ++i) {
        const auto [ns, ops] = batch();
        v.push_back(ns / static_cast<double>(ops));
    }
    return median(std::move(v));
}

double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

constexpr std::uint64_t kMicroOps = 1 << 16;

/** EventQueue step + schedule in the hold model: kPending events stay
 *  pending, and each one that fires schedules its successor (37 i) mod
 *  200 cycles ahead, inside the timing wheel. */
double
eventNs()
{
    constexpr std::uint64_t kPending = 1024;
    EventQueue eq;
    std::uint64_t fired = 0;
    std::uint64_t left = 0;
    struct Hold {
        EventQueue *eq;
        std::uint64_t *fired;
        std::uint64_t *left;
        std::uint64_t i;
        void
        operator()() const
        {
            ++*fired;
            if (*left == 0)
                return;
            --*left;
            eq->schedule((i * 37) % 200, Hold{eq, fired, left, i + 1});
        }
    };
    const double ns = medianNsPerOp([&] {
        const Clock::time_point t0 = Clock::now();
        left = kMicroOps - kPending;
        for (std::uint64_t i = 0; i < kPending; ++i)
            eq.schedule(i % 200, Hold{&eq, &fired, &left, i});
        while (eq.step()) {
        }
        return std::pair{nsSince(t0), kMicroOps};
    });
    gSink = gSink + fired;
    return ns;
}

/** SpecCache::load/store on a default (Table 2) hierarchy holding 4096
 *  filled lines (128 KB: L1 misses, L2 hits); every fourth access is a
 *  store. commitSpec between batches keeps every word valid. */
double
cacheAccessNs()
{
    SpecCache cache(CacheConfig{});
    constexpr std::uint64_t kLines = 4096;
    constexpr Addr kBase = 0x100000;
    const std::uint32_t line = cache.cfg().lineBytes;
    for (std::uint64_t l = 0; l < kLines; ++l)
        cache.fill(kBase + l * line);
    std::uint64_t hits = 0;
    Tid tid = 1;
    const double ns = medianNsPerOp([&] {
        const Clock::time_point t0 = Clock::now();
        for (std::uint64_t i = 0; i < kMicroOps; ++i) {
            const Addr a = kBase + ((i * 977) % kLines) * line + 4 * (i % 8);
            hits += i % 4 == 3 ? cache.store(a).hit : cache.load(a).hit;
        }
        const double elapsed = nsSince(t0);
        cache.commitSpec(tid++);
        return std::pair{elapsed, kMicroOps};
    });
    gSink = gSink + hits;
    return ns;
}

/** MeshNetwork::send on a mesh of @p nodes (default Table 2 links):
 *  8- or 40-byte messages between scattered node pairs, sent 1024 at a
 *  time; each group's deliveries drain outside the timed region. */
double
meshSendNs(std::uint32_t nodes)
{
    constexpr std::uint64_t kGroup = 1024;
    EventQueue eq;
    MeshNetwork net(eq, nodes);
    std::uint64_t delivered = 0;
    for (NodeId n = 0; n < nodes; ++n)
        net.connect(n, [&delivered](const Message &) { ++delivered; });
    const double ns = medianNsPerOp([&] {
        double elapsed = 0.0;
        for (std::uint64_t g = 0; g < kMicroOps; g += kGroup) {
            const Clock::time_point t0 = Clock::now();
            for (std::uint64_t i = g; i < g + kGroup; ++i) {
                Message m;
                m.type = i % 2 ? MsgType::Skip : MsgType::LoadReq;
                m.src = static_cast<NodeId>(i % nodes);
                m.dst = static_cast<NodeId>((i * 7919 + 13) % nodes);
                m.bytes = i % 4 == 0 ? 40 : 8;
                net.send(m);
            }
            elapsed += nsSince(t0);
            eq.run();
        }
        return std::pair{elapsed, kMicroOps};
    });
    gSink = gSink + delivered;
    return ns;
}

// ------------------------------------------------- machine-speed probe

/** Seconds probeS() takes on the reference box with nothing else
 *  loading it (29-32 ms over 120 samples). */
constexpr double kProbeRefS = 0.031;

/**
 * Time a fixed single-threaded mix of xorshift arithmetic and random
 * read-modify-writes over a 32 MB buffer. Other tenants of a shared
 * host slow the probe and the simulator alike, so host timings are
 * scaled by kProbeRefS / probe. On the reference box, over a stretch
 * in which they slowed rounds by up to 60%, the scaled round times
 * spread 6% (IQR / median) against 22% unscaled. The buffer is filled
 * before timing and freed after, so the probe pays no page faults and
 * never raises peak RSS past a simulation's.
 */
double
probeS()
{
    std::vector<std::uint64_t> buf(std::size_t{1} << 22, 1);
    std::uint64_t x = 88172645463325252ull, acc = 0;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < 2000000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint64_t &w = buf[x & (buf.size() - 1)];
        w += x;
        acc += w * 31 + (acc >> 3);
    }
    const double s = secondsBetween(t0, Clock::now());
    gSink = gSink + acc;
    return s;
}

// --------------------------------------------------------------- output

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/** Total length of the union of [start, start+dur) intervals. */
double
unionUs(std::vector<std::pair<double, double>> iv)
{
    std::sort(iv.begin(), iv.end());
    double total = 0.0, curS = 0.0, curE = -1.0;
    for (const auto &[s, e] : iv) {
        if (s > curE) {
            if (curE > curS)
                total += curE - curS;
            curS = s;
            curE = e;
        } else {
            curE = std::max(curE, e);
        }
    }
    if (curE > curS)
        total += curE - curS;
    return total;
}

bool
writeChromeTrace(const std::string &path, const Round &round,
                 const Clock::time_point epoch)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    auto us = [epoch](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - epoch).count();
    };
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    // Span ids are global: 0 is the round, then each simulation's
    // spans in order.
    std::fprintf(f,
                 "{\"name\": \"bench.round\", \"cat\": \"bench\", "
                 "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                 "\"tid\": 0, \"args\": {\"id\": 0}}",
                 us(round.start), us(round.end) - us(round.start));
    int base = 1;
    for (std::size_t sim = 0; sim < round.sims.size(); ++sim) {
        const std::vector<Span> &spans = round.sims[sim].spans;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            const int parent = s.parent < 0 ? 0 : base + s.parent;
            std::fprintf(f,
                         ",\n{\"name\": \"%s\", \"cat\": \"bench\", "
                         "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                         "\"pid\": 1, \"tid\": %zu, \"args\": {\"sim\": "
                         "%zu, \"id\": %d, \"parent\": %d",
                         s.name, s.startUs, s.durUs, sim + 1, sim,
                         base + static_cast<int>(i), parent);
            if (s.calls)
                std::fprintf(f, ", \"calls\": %llu, \"aggregate\": true",
                             (unsigned long long)s.calls);
            std::fprintf(f, "}}");
        }
        base += static_cast<int>(spans.size());
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

/** Per-layer metrics from the traced round @p tr (counts in @p c).
 *  @p untracedWallS is the median untraced round wall time at the
 *  traced round's probe speed. */
std::vector<Metric>
layerMetrics(const Round &tr, const LayerCounts &c, double untracedWallS,
             const WorkloadDef &w)
{
    double makeS = 0, attachS = 0, nextS = 0, buildS = 0, runS = 0,
           verifyS = 0, simSpanS = 0;
    std::uint64_t nextCalls = 0;
    std::vector<std::pair<double, double>> leaves;
    for (const SimOutcome &o : tr.sims) {
        makeS += o.makeS;
        attachS += o.attachS;
        nextS += o.nextS;
        nextCalls += o.nextCalls;
        buildS += o.buildS;
        runS += o.runS;
        verifyS += o.verifyS;
        for (const Span &s : o.spans) {
            if (s.parent < 0)
                simSpanS += s.durUs * 1e-6;
            else if (std::strcmp(s.name, "workload.next") != 0)
                leaves.emplace_back(s.startUs, s.startUs + s.durUs);
        }
    }
    const double wall = tr.wallS();
    const double runSelfS = runS - nextS;

    std::uint32_t meshNodes = 0;
    for (const SimSpec &s : w.sims)
        meshNodes = std::max(meshNodes, s.cfg.numProcs);
    const double evNs = eventNs();
    const double accNs = cacheAccessNs();
    const double sendNs = meshSendNs(meshNodes);

    const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
    const double accesses = u(c.loads + c.stores);
    const Breakdown &b = c.breakdown;
    return {
        {"workload.make_s", makeS, "s"},
        {"workload.attach_s", attachS, "s"},
        {"workload.next_s", nextS, "s"},
        {"workload.next_calls", u(nextCalls), "count"},
        {"core.build_s", buildS, "s"},
        {"core.run_self_s", runSelfS, "s"},
        {"core.sweep_parallelism", ratio(simSpanS, wall), "ratio"},
        {"sim.events", u(c.events), "count"},
        {"sim.events_per_commit", ratio(u(c.events), u(c.commits)),
         "events"},
        {"sim.event_ns", evNs, "ns"},
        {"sim.est_share", ratio(u(c.events) * evNs * 1e-9, runSelfS),
         "ratio"},
        {"sim.pdes_windows", u(c.pdesWindows), "count"},
        {"sim.pdes_phases", u(c.pdesPhases), "count"},
        {"sim.pdes_events_per_window",
         ratio(u(c.events), u(c.pdesWindows)), "events"},
        {"sim.pdes_mailbox_messages", u(c.pdesMailbox), "count"},
        {"sim.pdes_idle_domain_skips", u(c.pdesIdleSkips), "count"},
        {"proc.commits", u(c.commits), "count"},
        {"proc.violations", u(c.violations), "count"},
        {"proc.useful_frac", b.fraction(b.useful), "ratio"},
        {"proc.miss_frac", b.fraction(b.miss), "ratio"},
        {"proc.commit_frac", b.fraction(b.commit), "ratio"},
        {"proc.idle_frac", b.fraction(b.idle), "ratio"},
        {"proc.violation_frac", b.fraction(b.violation), "ratio"},
        {"proc.dirs_per_commit_mean", c.dirsPerCommit.mean(), "dirs"},
        {"proc.nic_per_commit_p50", c.nicPerCommit.percentile(50),
         "events"},
        {"proc.overflows", u(c.overflows), "count"},
        {"proc.commit_latency_n", u(c.commitLatency.count()), "count"},
        {"proc.commit_latency_p99", c.commitLatency.percentile(99),
         "cycles"},
        {"cache.loads", u(c.loads), "count"},
        {"cache.stores", u(c.stores), "count"},
        {"cache.l1_hit_rate", ratio(u(c.l1Hits), accesses), "ratio"},
        {"cache.l2_hit_rate", ratio(u(c.l2Hits), u(c.l2Hits + c.misses)),
         "ratio"},
        {"cache.misses", u(c.misses), "count"},
        {"cache.dirty_evictions", u(c.dirtyEvictions), "count"},
        {"cache.access_ns", accNs, "ns"},
        {"cache.est_share", ratio(accesses * accNs * 1e-9, runSelfS),
         "ratio"},
        {"directory.busy_cycles", u(c.busyCycles), "cycles"},
        {"directory.max_busy_frac", c.maxBusyFrac, "ratio"},
        {"directory.occupancy_p50", c.occupancy.percentile(50), "cycles"},
        {"directory.occupancy_p99", c.occupancy.percentile(99), "cycles"},
        {"directory.loads_served", u(c.loadsServed), "count"},
        {"directory.loads_stalled", u(c.loadsStalled), "count"},
        {"directory.probes_deferred", u(c.probesDeferred), "count"},
        {"directory.skips", u(c.skips), "count"},
        {"directory.invalidations", u(c.invalidations), "count"},
        {"directory.writebacks_dropped", u(c.writebacksDropped), "count"},
        {"directory.cache_misses", u(c.dirCacheMisses), "count"},
        {"noc.messages", u(c.messages), "count"},
        {"noc.bytes", u(c.bytes), "bytes"},
        {"noc.hops_mean", ratio(u(c.hops), u(c.messages)), "hops"},
        {"noc.bytes_per_commit", ratio(u(c.bytes), u(c.commits)), "bytes"},
        {"noc.multicasts", u(c.multicasts), "count"},
        {"noc.multicast_nic_events", u(c.multicastNic), "count"},
        {"noc.send_ns", sendNs, "ns"},
        {"noc.est_share", ratio(u(c.messages) * sendNs * 1e-9, runSelfS),
         "ratio"},
        {"common.arena_peak_mb", u(c.arenaPeakBytes) / (1024.0 * 1024.0),
         "MiB"},
        {"common.arena_chunks", u(c.arenaChunks), "count"},
        {"check.verify_s", verifyS, "s"},
        {"check.serial_txns", u(c.serialTxns), "count"},
        {"check.invariant_checks", u(c.invariantChecks), "count"},
        {"bench.trace_overhead_frac", ratio(wall, untracedWallS) - 1.0,
         "ratio"},
        {"bench.span_coverage",
         ratio(unionUs(std::move(leaves)) * 1e-6, wall), "ratio"},
    };
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N [--seconds S] "
                 "[--out FILE] [--trace FILE] [--smoke]\n"
                 "workloads:",
                 argv0);
    for (const char *w : kWorkloads)
        std::fprintf(stderr, " %s", w);
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, outPath, tracePath;
    std::optional<std::uint64_t> seed;
    double seconds = 0.0;
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool hasValue = i + 1 < argc;
        char *end = nullptr;
        if (a == "--smoke") {
            smoke = true;
        } else if (a == "--workload" && hasValue) {
            workload = argv[++i];
        } else if (a == "--out" && hasValue) {
            outPath = argv[++i];
        } else if (a == "--trace" && hasValue) {
            tracePath = argv[++i];
        } else if (a == "--seed" && hasValue) {
            const char *v = argv[++i];
            seed = std::strtoull(v, &end, 10);
            if (end == v || *end != '\0' || *v == '-')
                return usage(argv[0]);
        } else if (a == "--seconds" && hasValue) {
            const char *v = argv[++i];
            seconds = std::strtod(v, &end);
            if (end == v || *end != '\0' || !std::isfinite(seconds) ||
                seconds < 0.0)
                return usage(argv[0]);
        } else {
            return usage(argv[0]);
        }
    }
    if (!seed)
        return usage(argv[0]);
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const unsigned threads = std::min(4u, hw);
    const std::optional<WorkloadDef> def =
        defineWorkload(workload, smoke, threads);
    if (!def)
        return usage(argv[0]);

    // glibc raises its mmap threshold after the first large free, so
    // later rounds would reuse warm heap pages that a single-run
    // process never has. Pinning the default keeps every round cold.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);

    const Clock::time_point epoch = Clock::now();
    std::uint64_t sims = 0, simsFailed = 0;
    bool gatesOk = true;
    auto fail = [&](const char *what, std::size_t i, std::uint64_t s,
                    const std::string &why) {
        ++simsFailed;
        std::fprintf(stderr, "FAIL: %s %s seed %llu: %s\n", what,
                     def->sims[i].app.c_str(), (unsigned long long)s,
                     why.c_str());
    };

    // Untraced rounds: the end-to-end metrics. A traced invocation
    // spends half of --seconds here and the rest on the traced round.
    const double budget = tracePath.empty() ? seconds : seconds / 2;
    const std::uint64_t rounds =
        smoke ? 1
              : std::max<std::uint64_t>(
                    1, std::llround(budget / def->roundS));
    const std::uint64_t firstSeed = *seed * rounds;
    std::vector<Fingerprint> ref;
    LayerCounts pooled;
    std::vector<double> wall, setup, evps;
    double probe = probeS();
    for (std::uint64_t k = 0; k < rounds; ++k) {
        const Round r = runRound(*def, firstSeed + k, threads, false, epoch);
        const double next = probeS();
        const double scale = kProbeRefS / (0.5 * (probe + next));
        probe = next;
        for (std::size_t i = 0; i < r.sims.size(); ++i) {
            const SimOutcome &o = r.sims[i];
            ++sims;
            pooled.add(o.layers);
            if (k == 0)
                ref.push_back(o.fp);
            if (!o.ok)
                fail("untraced", i, firstSeed + k, o.error);
        }
        wall.push_back(r.wallS() * scale);
        setup.push_back(r.setupS() * scale);
        evps.push_back(r.eventsPerS() / scale);
        std::printf("round %llu seed %llu wall_s %.4f setup_s %.4f "
                    "events_per_s %.0f scale %.3f\n",
                    (unsigned long long)k,
                    (unsigned long long)(firstSeed + k), wall.back(),
                    setup.back(), evps.back(), scale);
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
    std::vector<Metric> metrics = {
        {"wall_s", median(wall), "s"},
        {"setup_s", median(setup), "s"},
        {"events_per_s", median(evps), "events/s"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB"},
        {"sim_cycles", u(pooled.cycles), "cycles"},
        {"commit_latency_p50", pooled.commitLatency.percentile(50),
         "cycles"},
        {"commit_latency_p95", pooled.commitLatency.percentile(95),
         "cycles"},
        {"abort_rate",
         ratio(u(pooled.violations), u(pooled.commits + pooled.violations)),
         "ratio"},
    };
    // At least 25 commit-latency samples lie beyond p99.
    constexpr std::size_t kMinCommits = 2500;
    if (!smoke && pooled.commitLatency.count() < kMinCommits) {
        std::fprintf(stderr, "FAIL: %zu commits, want >= %zu\n",
                     pooled.commitLatency.count(), kMinCommits);
        gatesOk = false;
    }

    if (!tracePath.empty()) {
        const double p0 = probeS();
        const Round tr = runRound(*def, firstSeed, threads, true, epoch);
        const double trScale = kProbeRefS / (0.5 * (p0 + probeS()));
        LayerCounts traced;
        for (std::size_t i = 0; i < tr.sims.size(); ++i) {
            const SimOutcome &o = tr.sims[i];
            ++sims;
            traced.add(o.layers);
            if (!o.ok)
                fail("traced", i, firstSeed, o.error);
            else if (o.fp != ref[i])
                fail("traced", i, firstSeed,
                     "fingerprint differs from untraced");
        }
        // jobs is only a throughput knob: one thread must reproduce
        // every multi-threaded PDES result.
        for (std::size_t i = 0; i < def->sims.size(); ++i) {
            if (def->sims[i].cfg.pdes.domains < 2)
                continue;
            SimSpec one = def->sims[i];
            one.cfg.pdes.jobs = 1;
            const SimOutcome o = runSim(one, firstSeed, false, epoch);
            ++sims;
            if (!o.ok)
                fail("jobs=1", i, firstSeed, o.error);
            else if (o.fp != ref[i])
                fail("jobs=1", i, firstSeed,
                     "fingerprint differs from jobs=N");
        }
        const std::vector<Metric> layers =
            layerMetrics(tr, traced, median(wall) / trScale, *def);
        metrics.insert(metrics.end(), layers.begin(), layers.end());
        if (!writeChromeTrace(tracePath, tr, epoch)) {
            std::fprintf(stderr, "cannot write %s\n", tracePath.c_str());
            gatesOk = false;
        }
    }

    std::printf("workload %s seed %llu rounds %zu threads %u nproc %u\n",
                workload.c_str(), (unsigned long long)*seed, wall.size(),
                threads, hw);
    for (const Metric &m : metrics)
        std::printf("%s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::printf("sims %llu\nsims_failed %llu\n", (unsigned long long)sims,
                (unsigned long long)simsFailed);

    if (!outPath.empty()) {
        std::FILE *f = std::fopen(outPath.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
            return 1;
        }
        std::fprintf(f,
                     "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n"
                     "  \"smoke\": %s,\n  \"traced\": %s,\n"
                     "  \"nproc\": %u,\n  \"threads\": %u,\n"
                     "  \"rounds\": %zu,\n  \"sims\": %llu,\n"
                     "  \"sims_failed\": %llu,\n  \"gates_ok\": %s,\n"
                     "  \"metrics\": {",
                     workload.c_str(), (unsigned long long)*seed,
                     smoke ? "true" : "false",
                     tracePath.empty() ? "false" : "true", hw, threads,
                     wall.size(), (unsigned long long)sims,
                     (unsigned long long)simsFailed,
                     gatesOk ? "true" : "false");
        for (std::size_t i = 0; i < metrics.size(); ++i)
            std::fprintf(f, "%s\n    \"%s\": {\"value\": %.17g, \"unit\": "
                            "\"%s\"}",
                         i ? "," : "", metrics[i].name.c_str(),
                         metrics[i].value, metrics[i].unit.c_str());
        std::fprintf(f, "\n  }\n}\n");
        if (std::fclose(f) != 0) {
            std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
            return 1;
        }
    }
    return simsFailed == 0 && gatesOk ? 0 : 1;
}
