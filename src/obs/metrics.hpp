/**
 * @file
 * MetricsRegistry: the labeled-metrics layer over the StatGroup world.
 * Components register counters (monotone, lock-free increment), gauges
 * (last-value, lock-free set) and histograms (mergeable, quantile-
 * capable -- common/stats Histogram) under stable names with optional
 * key=value labels, and the registry snapshots deterministically to
 * JSON or CSV.
 *
 * Hot-path contract: counter()/gauge()/histogram() resolve a name to a
 * handle under the registry mutex (the slow path, counted by
 * lookups()); cache the returned reference, after which inc()/set()
 * are single atomic operations and observe(Histogram &, v) samples
 * under the mutex with no key to build. The request path follows it:
 * ServingServer keeps a per-connection handle cache keyed by (tenant,
 * model) and resolves each handle on its first sample, and
 * NebulaChip::publishRun resolves its chip.* / abft.* counters once
 * per process. The by-name calls remain for cold paths (errors, swaps,
 * programming) and registration. Instrumentation that runs per request
 * or per trial writes into MetricsRegistry::global(); tests build
 * private registries.
 */

#ifndef NEBULA_OBS_METRICS_HPP
#define NEBULA_OBS_METRICS_HPP

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"

namespace nebula {
namespace obs {

/** Optional key=value labels qualifying a metric name. */
using Labels = std::vector<std::pair<std::string, std::string>>;

/**
 * Escape a label value for embedding between double quotes: backslash,
 * double quote and newline become `\\`, `\"` and `\n`. This is the one
 * escaping rule shared by the canonical key, the JSON/CSV snapshots and
 * the Prometheus exposition renderer, so a label value containing `"`
 * or a newline can never break any serialized form.
 */
std::string escapeLabelValue(const std::string &value);

/**
 * Canonical labeled name: `name{k="v",...}` with keys sorted and values
 * escaped via escapeLabelValue, so the same label set always maps to
 * the same metric and the key is unambiguous for any value.
 */
std::string labeledName(const std::string &name, const Labels &labels);

/** A monotonically increasing counter (lock-free increments). */
class Counter
{
  public:
    void inc(double n = 1.0);
    double value() const { return value_.load(std::memory_order_relaxed); }
    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/** A last-value gauge (lock-free set). */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }
    double value() const { return value_.load(std::memory_order_relaxed); }
    void reset() { set(0.0); }

  private:
    std::atomic<double> value_{0.0};
};

/** Named metrics with deterministic JSON/CSV snapshots. */
class MetricsRegistry
{
  public:
    explicit MetricsRegistry(std::string name = "metrics")
        : name_(std::move(name))
    {
    }

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** Counter by (name, labels); created on first use. The returned
     *  reference stays valid for the registry's lifetime. */
    Counter &counter(const std::string &name, const Labels &labels = {});

    /** Gauge by (name, labels); created on first use. */
    Gauge &gauge(const std::string &name, const Labels &labels = {});

    /**
     * Histogram by (name, labels); created empty with the given shape on
     * first use (later calls return it unchanged). The reference stays
     * valid for the registry's lifetime; sample it through
     * observe(Histogram &, double) only.
     */
    Histogram &histogram(const std::string &name, double lo, double hi,
                         int buckets, const Labels &labels = {});

    /**
     * Record one histogram sample under the registry mutex. The shape
     * applies on first use of the name only.
     */
    void observe(const std::string &name, double value, double lo = 0.0,
                 double hi = 1.0, int buckets = 32,
                 const Labels &labels = {});

    /** Sample a histogram() handle under the registry mutex (no key is
     *  built and nothing is looked up), so snapshots stay consistent. */
    void observe(Histogram &histogram, double value);

    /** By-name resolutions so far: counter(), gauge(), histogram() and
     *  the by-name observe(). Handle use never counts. */
    uint64_t lookups() const
    {
        return lookups_.load(std::memory_order_relaxed);
    }

    /** Current value of a counter/gauge; 0 if it does not exist. */
    double counterValue(const std::string &name,
                        const Labels &labels = {}) const;
    double gaugeValue(const std::string &name,
                      const Labels &labels = {}) const;

    /** Sorted names currently registered. */
    std::vector<std::string> counterNames() const;
    std::vector<std::string> gaugeNames() const;
    std::vector<std::string> histogramNames() const;

    /**
     * Point-in-time snapshot as a StatGroup: counters and gauges become
     * scalars (sum = value), histograms are copied. Deterministic
     * ordering (sorted names).
     */
    StatGroup snapshot() const;

    /** JSON object with counters / gauges / histograms sections. */
    std::string toJson() const;

    /** CSV: `kind,name,value,count,mean,min,max,p50,p95,p99` rows.
     *  Names containing `,` or `"` are CSV-quoted. */
    std::string toCsv() const;

    /**
     * Prometheus text exposition (format 0.0.4). Metric names are
     * sanitized to `[a-zA-Z_:][a-zA-Z0-9_:]*` (dots become
     * underscores), label values use the shared escaping rule, samples
     * are grouped under one `# TYPE` line per metric name, and
     * histograms render as summaries (quantile series + _sum/_count).
     */
    std::string toPrometheus() const;

    /** Zero every metric (registrations survive). */
    void reset();

    const std::string &name() const { return name_; }

    /** The process-wide registry the built-in instrumentation feeds. */
    static MetricsRegistry &global();

  private:
    /** Find or create the histogram under @p key; mutex_ held. */
    Histogram &histogramLocked(const std::string &key, double lo, double hi,
                               int buckets);

    std::string name_;
    std::atomic<uint64_t> lookups_{0};
    mutable std::mutex mutex_;
    // unique_ptr for address stability: references handed out by
    // counter()/gauge() must survive map rehashing/rebalancing.
    // std::map nodes never move, so histogram() references are stable.
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, Histogram> histograms_;
};

} // namespace obs
} // namespace nebula

#endif // NEBULA_OBS_METRICS_HPP
