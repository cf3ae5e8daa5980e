/**
 * @file
 * Simulation-kernel throughput benchmark with a machine-readable
 * result (BENCH_kernel.json), giving the repo a perf trajectory
 * across PRs.
 *
 * Measurements:
 *
 *  1. Raw kernel events/sec on a steady-state event mix modeled on the
 *     simulator's real call sites: mostly small-capture continuation
 *     events ([this, gen]-style) plus a slice of message-delivery
 *     events carrying a Message-sized payload (the Network::deliver
 *     path). The same mix also runs on a reference kernel that
 *     replicates the seed implementation (std::priority_queue of
 *     std::function entries, payload captured in the closure), so the
 *     reported speedup is self-contained and reproducible on any
 *     machine. A second delay spread, measured on a 1024-node mesh
 *     with flat multicast, runs on both kernels too
 *     (far_events_per_sec): ~40% of its delays are 256 cycles or
 *     longer and ~0.4% exceed the event wheel's 4,096-tick span.
 *
 *  2. End-to-end simulated cycles/sec on a Table 2 configuration
 *     (16 processors, 2D mesh, synthetic SPLASH-2 profile).
 *
 *  3. Isolated costs of two hot calls: a SpecCache::load hit and a
 *     64-node MeshNetwork::send with its delivery (the cost a per-hop
 *     branch in the route walk shows up in).
 *
 * Usage: bench_kernel [--smoke] [--out PATH]
 *   --smoke   tiny iteration counts (CI wiring check, not a benchmark)
 *   --out     JSON output path (default BENCH_kernel.json)
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "cache/spec_cache.hh"
#include "noc/message.hh"
#include "noc/network.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "workload/scripted_source.hh"

namespace {

using namespace tccbench;

/**
 * Reference kernel: byte-for-byte the seed EventQueue (binary heap of
 * std::function entries with a FIFO sequence tie-break). Kept here so
 * the benchmark always reports the speedup against the pre-rewrite
 * design, not against a moving target.
 */
class ReferenceHeapKernel
{
  public:
    Tick now() const { return curTick; }

    void
    schedule(Tick delay, std::function<void()> fn)
    {
        heap.push(Entry{curTick + delay, nextSeq++, std::move(fn)});
    }

    bool
    step()
    {
        if (heap.empty())
            return false;
        Entry e = std::move(const_cast<Entry &>(heap.top()));
        heap.pop();
        curTick = e.when;
        e.fn();
        ++executedEvents;
        return true;
    }

    std::uint64_t
    run()
    {
        std::uint64_t n = 0;
        while (step())
            ++n;
        return n;
    }

    std::uint64_t executed() const { return executedEvents; }

  private:
    struct Entry {
        Tick when;
        std::uint64_t seq;
        std::function<void()> fn;
    };
    struct Later {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };
    std::priority_queue<Entry, std::vector<Entry>, Later> heap;
    Tick curTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t executedEvents = 0;
};

/** Delay spread of an event mix. */
enum class Spread {
    /// [1, 180] plus 1-in-32 in [300, 1000) (memory round trips, mesh
    /// congestion at 64 nodes).
    Near,
    /// A 1024-node flat-multicast mesh: ~60% under 256 cycles, ~25% in
    /// [256, 1024), ~15% in [1024, 4096), ~0.4% in [4096, 16384).
    Far,
};

/**
 * The steady-state event mix, shaped like the simulator's real traffic:
 *  - kChains concurrent self-rescheduling actors (the in-flight event
 *    population of a 64-processor machine);
 *  - half the events behave like Network::deliver / the directory's
 *    deferred dispatch and ship a Message-sized payload to a consumer,
 *    the other half are small continuations with a generation check
 *    (resumeAfter-style);
 *  - delays drawn from the given Spread.
 * The delay sequence is precomputed so the timed region measures the
 * kernel, not the random-number generator.
 */
template <typename Kernel>
struct MixWorkload {
    Kernel kernel;
    std::vector<Tick> delays;
    std::uint64_t fired = 0;
    std::uint64_t payloadWords = 0;
    std::uint64_t target;

    MixWorkload(std::uint64_t total_events, Spread spread)
        : target(total_events)
    {
        Rng rng(12345);
        delays.resize(4096);
        for (auto &d : delays)
            d = spread == Spread::Near ? nearDelay(rng) : farDelay(rng);
    }

    static Tick
    nearDelay(Rng &rng)
    {
        if (rng.below(32) == 0)
            return 300 + rng.below(700);
        return 1 + rng.below(180);
    }

    static Tick
    farDelay(Rng &rng)
    {
        const std::uint64_t u = rng.below(1000);
        if (u < 4)
            return 4096 + rng.below(12288);
        if (u < 154)
            return 1024 + rng.below(3072);
        if (u < 404)
            return 256 + rng.below(768);
        return 1 + rng.below(255);
    }

    Tick nextDelay() { return delays[fired & (delays.size() - 1)]; }

    void
    consume(const Message &m)
    {
        payloadWords += m.addr + m.tid; // touch the payload
    }

    void
    post()
    {
        if (fired >= target)
            return;
        ++fired;
        if (fired % 2 == 0) {
            // Message-delivery event: the closure captures the
            // Message, exactly like Network::deliver. The wheel kernel
            // stores it inline; the reference kernel's std::function
            // allocates, as the seed did.
            Message m;
            m.type = MsgType::LoadReply;
            m.addr = fired;
            m.tid = fired >> 1;
            m.bytes = 48;
            kernel.schedule(nextDelay(), [this, m]() {
                consume(m);
                post();
            });
        } else {
            // Continuation event with a generation check.
            const std::uint64_t my_gen = fired;
            kernel.schedule(nextDelay(), [this, my_gen]() {
                if (my_gen <= target)
                    post();
            });
        }
    }

    /** @return events/sec. */
    double
    run(int chains)
    {
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < chains; ++i)
            post();
        kernel.run();
        const auto t1 = std::chrono::steady_clock::now();
        return static_cast<double>(kernel.executed()) / seconds(t0, t1);
    }
};

struct EndToEndResult {
    double cyclesPerSec = 0;
    double eventsPerSec = 0;
    std::uint64_t simCycles = 0;
    std::uint64_t events = 0;
    std::uint64_t arenaPeakBytes = 0;
    std::uint64_t arenaChunks = 0;
};

/** Table 2 machine: 16 CPUs, 2D mesh, SPLASH-2-calibrated workload. */
EndToEndResult
endToEnd(std::uint32_t txns_per_phase)
{
    SystemConfig cfg;
    cfg.numProcs = 16;
    System sys(cfg);
    WorkloadParams wl;
    wl.set("txns_per_phase", std::to_string(txns_per_phase));
    wl.set("phases", "2");
    const WorkloadBundle bundle =
        makeWorkload("water_spatial", wl, /*seed=*/1, cfg.numProcs);
    bundle.attach(sys);
    const Outcome run = runOutcome(sys);
    EndToEndResult out;
    out.simCycles = run.res.cycles;
    out.events = run.res.events;
    out.cyclesPerSec = static_cast<double>(run.res.cycles) / run.wallSec;
    out.eventsPerSec = static_cast<double>(run.res.events) / run.wallSec;
    const Arena::Stats as = sys.arenaStats();
    out.arenaPeakBytes = as.peakBytes;
    out.arenaChunks = as.chunks;
    return out;
}

/** Median ns per call of @p op over 15 timed batches of @p calls
 *  calls, after one untimed warm-up batch. */
template <typename Op>
double
medianNsPerCall(std::uint64_t calls, Op op)
{
    std::vector<double> ns;
    for (int b = 0; b < 16; ++b) {
        const auto t0 = std::chrono::steady_clock::now();
        for (std::uint64_t i = 0; i < calls; ++i)
            op();
        const double sec = seconds(t0, std::chrono::steady_clock::now());
        if (b > 0)
            ns.push_back(sec * 1e9 / static_cast<double>(calls));
    }
    std::nth_element(ns.begin(), ns.begin() + 7, ns.end());
    return ns[7];
}

volatile std::uint64_t gSink = 0;

/** SpecCache::load hitting one filled line of a Table 2 hierarchy. */
double
cacheLoadHitNs(std::uint64_t calls)
{
    SpecCache cache(CacheConfig{});
    cache.fill(0x1000);
    return medianNsPerCall(calls, [&] { gSink = cache.load(0x1000).hit; });
}

/** One 16-byte Skip from node 0 to node 63 of a 64-node mesh:
 *  MeshNetwork::send plus running its delivery. */
double
meshSendNs(std::uint64_t calls)
{
    EventQueue eq;
    MeshNetwork net(eq, 64);
    for (NodeId n = 0; n < 64; ++n)
        net.connect(n, [](const Message &) {});
    Message m;
    m.type = MsgType::Skip;
    m.src = 0;
    m.dst = 63;
    m.bytes = 16;
    return medianNsPerCall(calls, [&] {
        net.send(m);
        eq.run();
    });
}

/**
 * Observability wiring check: run the 2-processor scripted-conflict
 * scenario with tracing armed and report how many structured events
 * the recorder captured. A zero here means the instrumentation went
 * dark.
 */
std::uint64_t
tracedEventCount()
{
    SystemConfig cfg;
    cfg.numProcs = 2;
    cfg.homePolicy = HomePolicy::Interleave;
    cfg.trace.capacity = TraceRecorder::kDefaultCapacity;
    System sys(cfg);
    const Addr x = 0x100000;
    ScriptedSource p0;
    p0.add({TxOp::compute(100), TxOp::store(x, 42)});
    ScriptedSource p1;
    p1.add({TxOp::load(x), TxOp::compute(4000),
            TxOp::storeAdd(x + 4096, 0)});
    sys.setSource(0, &p0);
    sys.setSource(1, &p1);
    sys.run();
    return sys.traceRecorder().captured();
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args =
        parseBenchArgs(argc, argv, "BENCH_kernel.json", false);
    BenchReport report(args);

    const std::uint64_t kernelEvents = args.smoke ? 20'000 : 20'000'000;
    const std::uint32_t txnsPerPhase = args.smoke ? 32 : 1024;
    const std::uint64_t microCalls = args.smoke ? 1024 : 1 << 18;
    const int kChains = 256;

    std::printf("== simulation-kernel throughput ==\n");

    // The reference runs first: its per-event std::function
    // allocations are sensitive to the heap state a previous run
    // leaves behind, the allocation-free wheel run is not.
    const auto rates = [&](Spread spread) {
        MixWorkload<ReferenceHeapKernel> ref(kernelEvents, spread);
        const double refRate = ref.run(kChains);
        MixWorkload<EventQueue> wheel(kernelEvents, spread);
        return std::pair{wheel.run(kChains), refRate};
    };
    const auto [newRate, refRate] = rates(Spread::Near);
    std::printf("timing-wheel kernel : %12.0f events/sec\n", newRate);
    std::printf("seed heap kernel    : %12.0f events/sec\n", refRate);
    std::printf("speedup             : %12.2fx\n", newRate / refRate);
    const auto [farRate, farRefRate] = rates(Spread::Far);
    std::printf("far mix (1024 mesh) : %12.0f events/sec, seed heap "
                "%.0f (%.2fx)\n",
                farRate, farRefRate, farRate / farRefRate);

    const EndToEndResult e2e = endToEnd(txnsPerPhase);
    std::printf("end-to-end          : %12.0f sim-cycles/sec "
                "(%llu cycles, %llu events)\n",
                e2e.cyclesPerSec, (unsigned long long)e2e.simCycles,
                (unsigned long long)e2e.events);
    std::printf("arena               : %12llu peak bytes in %llu "
                "chunks\n",
                (unsigned long long)e2e.arenaPeakBytes,
                (unsigned long long)e2e.arenaChunks);

    const double loadHitNs = cacheLoadHitNs(microCalls);
    const double sendNs = meshSendNs(microCalls);
    std::printf("isolated calls      : %12.1f ns SpecCache::load hit, "
                "%.1f ns 64-node MeshNetwork::send\n",
                loadHitNs, sendNs);

    const std::uint64_t traceEvents = tracedEventCount();
    std::printf("trace wiring        : %12llu events captured "
                "(scripted conflict)\n",
                (unsigned long long)traceEvents);

    StatsNode &r = report.root();
    r.real("events_per_sec", newRate);
    r.real("cycles_per_sec", e2e.cyclesPerSec);
    r.real("reference_events_per_sec", refRate);
    r.real("speedup_vs_seed_kernel", newRate / refRate);
    r.real("far_events_per_sec", farRate);
    r.real("far_reference_events_per_sec", farRefRate);
    r.real("end_to_end_events_per_sec", e2e.eventsPerSec);
    r.num("arena_peak_bytes", e2e.arenaPeakBytes);
    r.num("arena_chunks", e2e.arenaChunks);
    r.num("trace_events_captured", traceEvents);
    r.real("cache_load_hit_ns", loadHitNs);
    r.real("mesh_send_ns", sendNs);
    StatsNode &cfg = report.config();
    cfg.num("kernel_events", kernelEvents);
    cfg.num("chains", kChains);
    cfg.num("num_procs", 16);
    cfg.name("app", "water_spatial");
    cfg.num("txns_per_phase", txnsPerPhase);
    cfg.num("micro_calls", microCalls);
    return report.finish();
}
