/**
 * @file
 * Time-resolved metrics: an epoch sampler that snapshots a registry of
 * counter probes every N simulated cycles, keeping every closed epoch
 * (8 B per probe and epoch: 4M cycles of 1,000-cycle epochs with the
 * ten system probes take 320 kB).
 *
 * Every end-of-run aggregate (RunResult::Breakdown, the stats dump)
 * collapses phase behavior - flash crowds, NSTID stalls, commit-storm
 * bursts - into one number. The sampler recovers the time axis: the
 * run loop peeks the next event's tick before executing it and closes
 * every epoch whose boundary has passed, so each closed epoch holds
 * exactly the activity of events with tick inside [k*N, (k+1)*N).
 *
 * Sampling is purely observational: it never schedules events and
 * never touches simulated state, so run fingerprints are bit-identical
 * whether the sampler is armed or not (ObsSystem.OffByDefaultAndFree
 * enforces this). With metrics off
 * (TraceConfig::metricsEpoch == 0) no sampler exists and the run loop
 * is byte-for-byte the legacy loop - zero overhead, like the
 * TraceRecorder's off path.
 *
 * Two probe kinds cover the registry:
 *  - Delta: the probe reads a cumulative counter (commits, network
 *    bytes); the closed epoch stores the increment since the previous
 *    close.
 *  - Gauge: the probe reads a point-in-time value (NSTID, TIDs
 *    issued); the closed epoch stores the value at the boundary.
 *
 * Under PDES each domain owns a private sampler fed only by its own
 * events, with epoch closing clamped to the window end (cross-domain
 * parcels always arrive at or after it, so epochs ending inside the
 * window are final). At finalize every domain closes through the same
 * final tick - equal epoch counts by construction - and the per-epoch
 * rows fold element-wise with each probe's merge op (Sum / Min / Max)
 * in domain-id order. The worker-thread count never changes any of
 * this, so jobs=1 and jobs=N merge bit-identically.
 *
 * Thread confinement: a sampler belongs to one System (or one PDES
 * domain) and inherits its confinement invariant - concurrent
 * SweepRunner workers each drive their own sampler with no shared
 * state.
 */

#ifndef TCC_OBS_METRICS_HH
#define TCC_OBS_METRICS_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <vector>

#include "common/types.hh"

namespace tcc {

class StatsNode;

class MetricsSampler
{
  public:
    /** How a probe's raw reading becomes a per-epoch value. */
    enum class Kind : std::uint8_t {
        Delta, ///< cumulative counter: store the increment per epoch
        Gauge, ///< point value: store the reading at the boundary
    };

    /** How per-domain rows fold at the PDES finalize merge. */
    enum class Merge : std::uint8_t { Sum, Min, Max };

    /** @param epoch_len epoch width in cycles (clamped to >= 1) */
    explicit MetricsSampler(Tick epoch_len);

    MetricsSampler(const MetricsSampler &) = delete;
    MetricsSampler &operator=(const MetricsSampler &) = delete;

    /** Register one probe. All probes must be registered before the
     *  first epoch closes; registration order defines column order
     *  (and must match across PDES domains - registerMetricProbes in
     *  core/system.cc is the single authority). @p name must outlive
     *  the sampler (string literals). */
    void addProbe(const char *name, Kind kind, Merge merge,
                  std::function<std::uint64_t()> fn);

    // --- sampling (driven by the run loop) ---------------------------
    /**
     * The next event to execute is at @p next: close every epoch whose
     * end boundary is <= next. Called before each event executes, so a
     * closed epoch reflects exactly the events with tick below its
     * boundary. kTickMax (empty queue) is a no-op - the final partial
     * epoch closes via finish(). Inline: the steady-state cost is one
     * compare and one predictable branch.
     */
    void
    advanceTo(Tick next)
    {
        if (next < epochEnd) [[likely]]
            return;
        closeUpTo(next);
    }

    /** End of run at @p final_tick: close every full epoch before it,
     *  then one final (possibly partial) epoch containing it. Under
     *  PDES every domain finishes with the same tick, which equalizes
     *  epoch counts across domains for the merge. */
    void finish(Tick final_tick);

    // --- PDES finalize merge -----------------------------------------
    /** Replace this sampler's rows with the element-wise fold of
     *  @p parts (per-domain samplers, identical schema and epoch
     *  count), applying each probe's merge op across domains in the
     *  order given (domain-id order at the call site). */
    void adoptMerged(const std::vector<const MetricsSampler *> &parts);

    // --- results ------------------------------------------------------
    Tick epochLength() const { return epochLen; }
    std::size_t probeCount() const { return probes.size(); }
    const char *probeName(std::size_t p) const { return probes[p].name; }
    Kind probeKind(std::size_t p) const { return probes[p].kind; }
    Merge probeMerge(std::size_t p) const { return probes[p].merge; }

    /** Column index of @p name, or -1 when absent. */
    int probeIndex(const char *name) const;

    /** Epochs closed. */
    std::uint64_t closed() const { return total; }

    /** Rows held: one per closed epoch; row i covers ticks
     *  [i * epochLength(), (i + 1) * epochLength()). */
    std::size_t rows() const { return total; }

    /** Value of probe @p p in epoch @p row. */
    std::uint64_t
    at(std::size_t row, std::size_t p) const
    {
        return series[row * probes.size() + p];
    }

  private:
    void closeUpTo(Tick next);
    void closeEpoch();

    struct Probe {
        const char *name;
        Kind kind;
        Merge merge;
        std::function<std::uint64_t()> fn;
        std::uint64_t last = 0; ///< previous raw reading (Delta)
    };

    std::vector<Probe> probes;
    /** Row-major: closed() rows of probeCount() values. */
    std::vector<std::uint64_t> series;
    Tick epochLen;
    /** End boundary of the next epoch to close (saturates at
     *  kTickMax near the end of time). */
    Tick epochEnd;
    std::size_t total = 0; ///< epochs closed
    bool finished = false;
};

/**
 * Append the sampler's rows to @p series (a Group) as equal-length
 * Vectors: epoch, start_tick, one column per probe, plus a derived
 * nstid_lag column (tids_issued - nstid_min) when both probes exist -
 * the paper's commit-pipeline depth over time. The single definition
 * of the time-series columns: the stats JSON's metrics.series and the
 * CSV below both render it.
 */
void addMetricsSeries(const MetricsSampler &m, StatsNode &series);

/** Write the series above as CSV: one row per epoch. */
void writeMetricsCsv(const MetricsSampler &m, std::ostream &os);

} // namespace tcc

#endif // TCC_OBS_METRICS_HH
