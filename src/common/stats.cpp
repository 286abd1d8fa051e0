#include "common/stats.hpp"

#include <algorithm>

#include "common/json.hpp"
#include "common/logging.hpp"

namespace nebula {

namespace {

/** CSV cell for a double: compact, locale-free, deterministic. */
std::string
csvNum(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

} // namespace

void
ScalarStat::sample(double value)
{
    sum_ += value;
    ++count_;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
}

void
ScalarStat::add(double value)
{
    sum_ += value;
}

void
ScalarStat::reset()
{
    *this = ScalarStat();
}

void
ScalarStat::merge(const ScalarStat &other)
{
    sum_ += other.sum_;
    count_ += other.count_;
    // min_/max_ start at +/-inf, so merging an unsampled stat (or into
    // one) degrades gracefully without special cases.
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

Histogram::Histogram(double lo, double hi, int buckets)
    : lo_(lo), hi_(hi), bins_(static_cast<size_t>(std::max(1, buckets)), 0)
{
    NEBULA_ASSERT(hi > lo, "histogram range inverted");
}

void
Histogram::sample(double value)
{
    const int n = static_cast<int>(bins_.size());
    double t = (value - lo_) / (hi_ - lo_) * n;
    int idx = static_cast<int>(t);
    idx = std::clamp(idx, 0, n - 1);
    ++bins_[static_cast<size_t>(idx)];
    ++count_;
    sum_ += value;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
}

double
Histogram::binLow(int i) const
{
    return lo_ + (hi_ - lo_) * i / static_cast<double>(bins_.size());
}

double
Histogram::binHigh(int i) const
{
    return lo_ + (hi_ - lo_) * (i + 1) / static_cast<double>(bins_.size());
}

double
Histogram::quantile(double q) const
{
    if (count_ == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const double pos = q * static_cast<double>(count_);
    double cum = 0.0;
    for (size_t i = 0; i < bins_.size(); ++i) {
        const double n = static_cast<double>(bins_[i]);
        if (n > 0.0 && cum + n >= pos) {
            const double frac =
                std::clamp((pos - cum) / n, 0.0, 1.0);
            const int idx = static_cast<int>(i);
            const double est =
                binLow(idx) + frac * (binHigh(idx) - binLow(idx));
            return std::clamp(est, min_, max_);
        }
        cum += n;
    }
    return max_;
}

void
Histogram::merge(const Histogram &other)
{
    if (other.count_ == 0)
        return;
    if (lo_ == other.lo_ && hi_ == other.hi_ &&
        bins_.size() == other.bins_.size()) {
        for (size_t i = 0; i < bins_.size(); ++i)
            bins_[i] += other.bins_[i];
    } else {
        // Shape mismatch: re-bin the other histogram's bucket midpoints.
        // Counts and the exact sum/min/max survive; positions quantize.
        const int n = static_cast<int>(bins_.size());
        for (size_t i = 0; i < other.bins_.size(); ++i) {
            if (other.bins_[i] == 0)
                continue;
            const int src = static_cast<int>(i);
            const double mid =
                0.5 * (other.binLow(src) + other.binHigh(src));
            int idx = static_cast<int>((mid - lo_) / (hi_ - lo_) * n);
            idx = std::clamp(idx, 0, n - 1);
            bins_[static_cast<size_t>(idx)] += other.bins_[i];
        }
    }
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
Histogram::reset()
{
    std::fill(bins_.begin(), bins_.end(), 0);
    count_ = 0;
    sum_ = 0.0;
    min_ = std::numeric_limits<double>::infinity();
    max_ = -std::numeric_limits<double>::infinity();
}

ScalarStat &
StatGroup::scalar(const std::string &name)
{
    return scalars_[name];
}

bool
StatGroup::hasScalar(const std::string &name) const
{
    return scalars_.count(name) > 0;
}

const ScalarStat &
StatGroup::scalarAt(const std::string &name) const
{
    auto it = scalars_.find(name);
    NEBULA_ASSERT(it != scalars_.end(), "unknown stat '", name, "' in group '",
                  name_, "'");
    return it->second;
}

std::vector<std::string>
StatGroup::scalarNames() const
{
    std::vector<std::string> names;
    names.reserve(scalars_.size());
    for (const auto &kv : scalars_)
        names.push_back(kv.first);
    return names;
}

Histogram &
StatGroup::histogram(const std::string &name, double lo, double hi,
                     int buckets)
{
    auto it = histograms_.find(name);
    if (it == histograms_.end())
        it = histograms_.emplace(name, Histogram(lo, hi, buckets)).first;
    return it->second;
}

bool
StatGroup::hasHistogram(const std::string &name) const
{
    return histograms_.count(name) > 0;
}

const Histogram &
StatGroup::histogramAt(const std::string &name) const
{
    auto it = histograms_.find(name);
    NEBULA_ASSERT(it != histograms_.end(), "unknown histogram '", name,
                  "' in group '", name_, "'");
    return it->second;
}

std::vector<std::string>
StatGroup::histogramNames() const
{
    std::vector<std::string> names;
    names.reserve(histograms_.size());
    for (const auto &kv : histograms_)
        names.push_back(kv.first);
    return names;
}

Table
StatGroup::toTable() const
{
    Table table(name_, {"stat", "sum", "count", "mean", "min", "max"});
    for (const auto &kv : scalars_) {
        const ScalarStat &s = kv.second;
        table.row()
            .add(kv.first)
            .add(s.sum(), 4)
            .add(static_cast<long long>(s.count()))
            .add(s.mean(), 4)
            .add(s.min(), 4)
            .add(s.max(), 4);
    }
    for (const auto &kv : histograms_) {
        const Histogram &h = kv.second;
        table.row()
            .add(kv.first)
            .add(h.sum(), 4)
            .add(static_cast<long long>(h.count()))
            .add(h.mean(), 4)
            .add(h.min(), 4)
            .add(h.max(), 4);
    }
    return table;
}

std::string
StatGroup::toCsv() const
{
    std::string out =
        "kind,stat,sum,count,mean,min,max,p50,p95,p99\n";
    for (const auto &kv : scalars_) {
        const ScalarStat &s = kv.second;
        out += "scalar," + kv.first + "," + csvNum(s.sum()) + "," +
               std::to_string(s.count()) + "," + csvNum(s.mean()) + "," +
               csvNum(s.min()) + "," + csvNum(s.max()) + ",,,\n";
    }
    for (const auto &kv : histograms_) {
        const Histogram &h = kv.second;
        out += "histogram," + kv.first + "," + csvNum(h.sum()) + "," +
               std::to_string(h.count()) + "," + csvNum(h.mean()) + "," +
               csvNum(h.min()) + "," + csvNum(h.max()) + "," +
               csvNum(h.p50()) + "," + csvNum(h.p95()) + "," +
               csvNum(h.p99()) + "\n";
    }
    return out;
}

std::string
StatGroup::toJson() const
{
    std::string out = "{\n  \"group\": " + json::quoted(name_) +
                      ",\n  \"scalars\": {";
    bool first = true;
    for (const auto &kv : scalars_) {
        const ScalarStat &s = kv.second;
        out += first ? "\n" : ",\n";
        first = false;
        out += "    " + json::quoted(kv.first) + ": {\"sum\": " +
               json::number(s.sum()) +
               ", \"count\": " + std::to_string(s.count()) +
               ", \"mean\": " + json::number(s.mean()) +
               ", \"min\": " + json::number(s.min()) +
               ", \"max\": " + json::number(s.max()) + "}";
    }
    out += first ? "},\n" : "\n  },\n";
    out += "  \"histograms\": {";
    first = true;
    for (const auto &kv : histograms_) {
        const Histogram &h = kv.second;
        out += first ? "\n" : ",\n";
        first = false;
        out += "    " + json::quoted(kv.first) + ": {\"count\": " +
               std::to_string(h.count()) +
               ", \"sum\": " + json::number(h.sum()) +
               ", \"mean\": " + json::number(h.mean()) +
               ", \"min\": " + json::number(h.min()) +
               ", \"max\": " + json::number(h.max()) +
               ", \"p50\": " + json::number(h.p50()) +
               ", \"p95\": " + json::number(h.p95()) +
               ", \"p99\": " + json::number(h.p99()) +
               ", \"lo\": " + json::number(h.lo()) +
               ", \"hi\": " + json::number(h.hi()) + ", \"bins\": [";
        for (size_t i = 0; i < h.bins().size(); ++i) {
            if (i)
                out += ", ";
            out += std::to_string(h.bins()[i]);
        }
        out += "]}";
    }
    out += first ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
}

void
StatGroup::reset()
{
    for (auto &kv : scalars_)
        kv.second.reset();
    for (auto &kv : histograms_)
        kv.second.reset();
}

void
StatGroup::merge(const StatGroup &other)
{
    for (const auto &kv : other.scalars_)
        scalars_[kv.first].merge(kv.second);
    for (const auto &kv : other.histograms_) {
        const Histogram &h = kv.second;
        histogram(kv.first, h.lo(), h.hi(),
                  static_cast<int>(h.bins().size()))
            .merge(h);
    }
}

} // namespace nebula
