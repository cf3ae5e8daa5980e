/**
 * @file
 * Lightweight statistics: named scalar counters and sampled
 * distributions with percentile queries. Components own their stats as
 * plain members; core/stats_dump.cc collects them into one StatsNode
 * tree (obs/stats_tree.hh) that every report format renders.
 */

#ifndef TCC_SIM_STATS_HH
#define TCC_SIM_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace tcc {

/**
 * A sampled distribution supporting mean and percentile queries.
 * Stores every sample; our runs are small enough (tens of thousands of
 * transactions) that this is the simplest correct choice. Percentile
 * queries sort a cached copy once and reuse it until the next
 * sample()/merge()/reset(), so a stats dump that asks for several
 * percentiles pays for one sort, not one copy per query. The cache
 * makes percentile() logically-but-not-physically const: queries are
 * safe from the single thread that owns the Distribution (dumps run
 * post-run on the owning thread; sweep workers own disjoint Systems
 * per DESIGN.md section 7), but not from concurrent readers.
 */
class Distribution
{
  public:
    /** Record one sample. */
    void
    sample(double v)
    {
        samples.push_back(v);
        sortedValid = false;
    }

    /** Number of samples recorded. */
    std::size_t count() const { return samples.size(); }

    /** Arithmetic mean, or 0 with no samples. */
    double
    mean() const
    {
        if (samples.empty())
            return 0.0;
        double s = 0.0;
        for (double v : samples)
            s += v;
        return s / static_cast<double>(samples.size());
    }

    /** Sum of all samples. */
    double
    sum() const
    {
        double s = 0.0;
        for (double v : samples)
            s += v;
        return s;
    }

    /**
     * The @p p percentile (p in [0,100]) using nearest-rank, or 0 with
     * no samples. p=90 gives the "90th %" columns of the paper's
     * Table 3.
     */
    double
    percentile(double p) const
    {
        if (samples.empty())
            return 0.0;
        const double rank = p / 100.0 *
            static_cast<double>(samples.size() - 1);
        auto idx = static_cast<std::size_t>(rank + 0.5);
        if (idx >= samples.size())
            idx = samples.size() - 1;
        ensureSorted();
        return sorted[idx];
    }

    /** Largest sample, or 0 with no samples. */
    double
    max() const
    {
        if (samples.empty())
            return 0.0;
        return *std::max_element(samples.begin(), samples.end());
    }

    /** Smallest sample, or 0 with no samples. */
    double
    min() const
    {
        if (samples.empty())
            return 0.0;
        return *std::min_element(samples.begin(), samples.end());
    }

    /** Population standard deviation, or 0 with < 2 samples. */
    double
    stddev() const
    {
        if (samples.size() < 2)
            return 0.0;
        const double m = mean();
        double acc = 0.0;
        for (double v : samples) {
            const double d = v - m;
            acc += d * d;
        }
        return std::sqrt(acc / static_cast<double>(samples.size()));
    }

    /** Discard all samples. */
    void
    reset()
    {
        samples.clear();
        sorted.clear();
        sortedValid = false;
    }

    /** Merge all samples of @p other into this distribution. */
    void
    merge(const Distribution &other)
    {
        samples.insert(samples.end(), other.samples.begin(),
                       other.samples.end());
        sortedValid = false;
    }

  private:
    void
    ensureSorted() const
    {
        if (sortedValid)
            return;
        sorted = samples;
        std::sort(sorted.begin(), sorted.end());
        sortedValid = true;
    }

    std::vector<double> samples;
    /** percentile() cache; rebuilt lazily after any mutation. */
    mutable std::vector<double> sorted;
    mutable bool sortedValid = false;
};

} // namespace tcc

#endif // TCC_SIM_STATS_HH
