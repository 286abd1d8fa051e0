/**
 * @file
 * Lightweight named-statistics registry in the spirit of gem5's stats
 * package. Components register scalar counters and histograms against a
 * StatGroup; the group can be rendered as a table, CSV or JSON at the
 * end of a run, and worker-local groups merge losslessly (scalars and
 * histograms both) so concurrent hot paths stay lock-free.
 */

#ifndef NEBULA_COMMON_STATS_HPP
#define NEBULA_COMMON_STATS_HPP

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/table.hpp"

namespace nebula {

/** A running scalar statistic (sum / count / min / max). */
class ScalarStat
{
  public:
    /** Add one sample. */
    void sample(double value);

    /** Add @p value to the running sum without counting a sample. */
    void add(double value);

    /** Increment the sum by one. */
    void inc() { add(1.0); }

    double sum() const { return sum_; }
    uint64_t count() const { return count_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    /** Reset to the initial state. */
    void reset();

    /**
     * Fold another scalar into this one, as if every sample of
     * @p other had been sampled here. Merging an empty stat is a
     * no-op; merging into an empty stat copies @p other.
     */
    void merge(const ScalarStat &other);

  private:
    double sum_ = 0.0;
    uint64_t count_ = 0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * A fixed-bucket histogram statistic with exact sum/min/max tracking
 * and in-bucket-interpolated quantile estimation.
 */
class Histogram
{
  public:
    /** Create with @p buckets equal-width bins spanning [lo, hi). */
    Histogram(double lo = 0.0, double hi = 1.0, int buckets = 10);

    /** Add one sample (out-of-range samples clamp to the edge bins). */
    void sample(double value);

    uint64_t count() const { return count_; }
    const std::vector<uint64_t> &bins() const { return bins_; }
    double binLow(int i) const;
    double binHigh(int i) const;
    double lo() const { return lo_; }
    double hi() const { return hi_; }

    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    /**
     * Estimate the @p q quantile (q in [0, 1]) by linear interpolation
     * inside the covering bucket, clamped to the exact observed
     * [min, max] so edge-bucket clamping cannot widen the estimate.
     * Returns 0 when the histogram is empty.
     */
    double quantile(double q) const;
    double p50() const { return quantile(0.50); }
    double p95() const { return quantile(0.95); }
    double p99() const { return quantile(0.99); }

    /**
     * Fold another histogram into this one. Identically-shaped
     * histograms (same range and bucket count -- the worker-local merge
     * case) merge bin-exactly; mismatched shapes fall back to re-binning
     * the other histogram's bucket midpoints, which preserves counts and
     * the exact sum/min/max but quantizes sample positions to the other
     * histogram's bucket width.
     */
    void merge(const Histogram &other);

    /** Reset all bins and the sample accumulators. */
    void reset();

  private:
    double lo_, hi_;
    std::vector<uint64_t> bins_;
    uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * A named collection of statistics. Lookup creates on first use, so
 * components can write `group.scalar("adc.conversions").inc()` without
 * registration boilerplate.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name = "stats") : name_(std::move(name)) {}

    /** Scalar stat by name (created on first use). */
    ScalarStat &scalar(const std::string &name);

    /** True if the named scalar exists. */
    bool hasScalar(const std::string &name) const;

    /** Read-only access; panics if the stat does not exist. */
    const ScalarStat &scalarAt(const std::string &name) const;

    /** All scalar names in sorted order. */
    std::vector<std::string> scalarNames() const;

    /**
     * Histogram by name. The shape arguments apply on first use only;
     * later lookups return the existing histogram unchanged.
     */
    Histogram &histogram(const std::string &name, double lo = 0.0,
                         double hi = 1.0, int buckets = 10);

    /** True if the named histogram exists. */
    bool hasHistogram(const std::string &name) const;

    /** Read-only access; panics if the histogram does not exist. */
    const Histogram &histogramAt(const std::string &name) const;

    /** All histogram names in sorted order. */
    std::vector<std::string> histogramNames() const;

    /**
     * Render all stats as a table: scalar rows first, then one
     * sum/count/mean/min/max row per histogram.
     */
    Table toTable() const;

    /**
     * Render as CSV: one `kind,stat,sum,count,mean,min,max,p50,p95,p99`
     * line per stat (quantile columns empty for scalars). Deterministic
     * for a given set of samples.
     */
    std::string toCsv() const;

    /**
     * Render as a JSON object with "scalars" and "histograms" sections;
     * deterministic (names sorted) so snapshots diff cleanly.
     */
    std::string toJson() const;

    /** Reset every stat in the group. */
    void reset();

    /**
     * Merge another group's scalars and histograms into this one by
     * name (used to aggregate worker-local stat groups after a run;
     * keeps worker hot paths lock-free).
     */
    void merge(const StatGroup &other);

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::map<std::string, ScalarStat> scalars_;
    std::map<std::string, Histogram> histograms_;
};

} // namespace nebula

#endif // NEBULA_COMMON_STATS_HPP
