#include "obs/metrics.hpp"

#include <algorithm>

#include "common/json.hpp"

namespace nebula {
namespace obs {

std::string
escapeLabelValue(const std::string &value)
{
    std::string out;
    out.reserve(value.size());
    for (char c : value) {
        switch (c) {
        case '\\':
            out += "\\\\";
            break;
        case '"':
            out += "\\\"";
            break;
        case '\n':
            out += "\\n";
            break;
        default:
            out += c;
        }
    }
    return out;
}

std::string
labeledName(const std::string &name, const Labels &labels)
{
    if (labels.empty())
        return name;
    Labels sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    std::string out = name + "{";
    for (size_t i = 0; i < sorted.size(); ++i) {
        if (i)
            out += ",";
        out += sorted[i].first + "=\"" + escapeLabelValue(sorted[i].second) +
               "\"";
    }
    out += "}";
    return out;
}

void
Counter::inc(double n)
{
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + n,
                                         std::memory_order_relaxed)) {
    }
}

Counter &
MetricsRegistry::counter(const std::string &name, const Labels &labels)
{
    lookups_.fetch_add(1, std::memory_order_relaxed);
    const std::string key = labeledName(name, labels);
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(key);
    if (it == counters_.end())
        it = counters_.emplace(key, std::make_unique<Counter>()).first;
    return *it->second;
}

Gauge &
MetricsRegistry::gauge(const std::string &name, const Labels &labels)
{
    lookups_.fetch_add(1, std::memory_order_relaxed);
    const std::string key = labeledName(name, labels);
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = gauges_.find(key);
    if (it == gauges_.end())
        it = gauges_.emplace(key, std::make_unique<Gauge>()).first;
    return *it->second;
}

Histogram &
MetricsRegistry::histogramLocked(const std::string &key, double lo,
                                 double hi, int buckets)
{
    auto it = histograms_.find(key);
    if (it == histograms_.end())
        it = histograms_.emplace(key, Histogram(lo, hi, buckets)).first;
    return it->second;
}

Histogram &
MetricsRegistry::histogram(const std::string &name, double lo, double hi,
                           int buckets, const Labels &labels)
{
    lookups_.fetch_add(1, std::memory_order_relaxed);
    const std::string key = labeledName(name, labels);
    std::lock_guard<std::mutex> lock(mutex_);
    return histogramLocked(key, lo, hi, buckets);
}

void
MetricsRegistry::observe(const std::string &name, double value, double lo,
                         double hi, int buckets, const Labels &labels)
{
    lookups_.fetch_add(1, std::memory_order_relaxed);
    const std::string key = labeledName(name, labels);
    std::lock_guard<std::mutex> lock(mutex_);
    histogramLocked(key, lo, hi, buckets).sample(value);
}

void
MetricsRegistry::observe(Histogram &histogram, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    histogram.sample(value);
}

double
MetricsRegistry::counterValue(const std::string &name,
                              const Labels &labels) const
{
    const std::string key = labeledName(name, labels);
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(key);
    return it != counters_.end() ? it->second->value() : 0.0;
}

double
MetricsRegistry::gaugeValue(const std::string &name,
                            const Labels &labels) const
{
    const std::string key = labeledName(name, labels);
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = gauges_.find(key);
    return it != gauges_.end() ? it->second->value() : 0.0;
}

std::vector<std::string>
MetricsRegistry::counterNames() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> names;
    names.reserve(counters_.size());
    for (const auto &kv : counters_)
        names.push_back(kv.first);
    return names;
}

std::vector<std::string>
MetricsRegistry::gaugeNames() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> names;
    names.reserve(gauges_.size());
    for (const auto &kv : gauges_)
        names.push_back(kv.first);
    return names;
}

std::vector<std::string>
MetricsRegistry::histogramNames() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> names;
    names.reserve(histograms_.size());
    for (const auto &kv : histograms_)
        names.push_back(kv.first);
    return names;
}

StatGroup
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    StatGroup group(name_);
    for (const auto &kv : counters_)
        group.scalar(kv.first).add(kv.second->value());
    for (const auto &kv : gauges_)
        group.scalar(kv.first).add(kv.second->value());
    for (const auto &kv : histograms_) {
        const Histogram &h = kv.second;
        group
            .histogram(kv.first, h.lo(), h.hi(),
                       static_cast<int>(h.bins().size()))
            .merge(h);
    }
    return group;
}

std::string
MetricsRegistry::toJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::string out = "{\n  \"registry\": " + json::quoted(name_) + ",\n";

    auto section = [&out](const char *title, const auto &map, auto value) {
        out += std::string("  \"") + title + "\": {";
        bool first = true;
        for (const auto &kv : map) {
            out += first ? "\n" : ",\n";
            first = false;
            out += "    " + json::quoted(kv.first) + ": " +
                   json::number(value(kv.second));
        }
        out += first ? "},\n" : "\n  },\n";
    };
    section("counters", counters_,
            [](const std::unique_ptr<Counter> &c) { return c->value(); });
    section("gauges", gauges_,
            [](const std::unique_ptr<Gauge> &g) { return g->value(); });

    out += "  \"histograms\": {";
    bool first = true;
    for (const auto &kv : histograms_) {
        const Histogram &h = kv.second;
        out += first ? "\n" : ",\n";
        first = false;
        out += "    " + json::quoted(kv.first) + ": {\"count\": " +
               std::to_string(h.count()) +
               ", \"mean\": " + json::number(h.mean()) +
               ", \"min\": " + json::number(h.min()) +
               ", \"max\": " + json::number(h.max()) +
               ", \"p50\": " + json::number(h.p50()) +
               ", \"p95\": " + json::number(h.p95()) +
               ", \"p99\": " + json::number(h.p99()) + "}";
    }
    out += first ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
}

namespace {

/** RFC-4180 quoting for the CSV name column: labeled names contain
 *  commas and quotes by construction. */
std::string
csvField(const std::string &field)
{
    if (field.find_first_of(",\"\n") == std::string::npos)
        return field;
    std::string out = "\"";
    for (char c : field) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += "\"";
    return out;
}

/** Prometheus metric/label name charset: `[a-zA-Z0-9_:]` (dots and
 *  anything else become underscores; leading digit gets a prefix). */
std::string
sanitizeMetricName(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += ok ? c : '_';
    }
    if (out.empty())
        out = "_";
    if (out[0] >= '0' && out[0] <= '9')
        out = "_" + out;
    return out;
}

/**
 * Split a canonical key (`name` or `name{k="v",...}`) back into its
 * base name and label pairs. Values stay in escaped form -- the
 * canonical escaping is exactly the Prometheus one, so they re-emit
 * verbatim.
 */
void
parseLabeledKey(const std::string &key, std::string &base, Labels &labels)
{
    labels.clear();
    const size_t brace = key.find('{');
    if (brace == std::string::npos) {
        base = key;
        return;
    }
    base = key.substr(0, brace);
    size_t i = brace + 1;
    while (i < key.size() && key[i] != '}') {
        const size_t eq = key.find('=', i);
        if (eq == std::string::npos || eq + 1 >= key.size() ||
            key[eq + 1] != '"')
            break; // malformed; canonical keys never hit this
        const std::string label_key = key.substr(i, eq - i);
        size_t j = eq + 2; // first char of the escaped value
        std::string value;
        while (j < key.size() && key[j] != '"') {
            if (key[j] == '\\' && j + 1 < key.size()) {
                value += key[j];
                ++j;
            }
            value += key[j];
            ++j;
        }
        labels.emplace_back(label_key, value);
        i = j + 1; // past the closing quote
        if (i < key.size() && key[i] == ',')
            ++i;
    }
}

/** Render `{k="v",...}` with sanitized keys and pre-escaped values;
 *  @p extra appends one more pair (used for quantile labels). */
std::string
renderPromLabels(const Labels &labels, const char *extra_key = nullptr,
                 const char *extra_value = nullptr)
{
    if (labels.empty() && !extra_key)
        return "";
    std::string out = "{";
    bool first = true;
    for (const auto &kv : labels) {
        if (!first)
            out += ",";
        first = false;
        out += sanitizeMetricName(kv.first) + "=\"" + kv.second + "\"";
    }
    if (extra_key) {
        if (!first)
            out += ",";
        out += std::string(extra_key) + "=\"" + extra_value + "\"";
    }
    out += "}";
    return out;
}

} // namespace

std::string
MetricsRegistry::toCsv() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::string out = "kind,name,value,count,mean,min,max,p50,p95,p99\n";
    auto num = [](double v) { return json::number(v); };
    for (const auto &kv : counters_)
        out += "counter," + csvField(kv.first) + "," +
               num(kv.second->value()) + ",,,,,,,\n";
    for (const auto &kv : gauges_)
        out += "gauge," + csvField(kv.first) + "," +
               num(kv.second->value()) + ",,,,,,,\n";
    for (const auto &kv : histograms_) {
        const Histogram &h = kv.second;
        out += "histogram," + csvField(kv.first) + ",," +
               std::to_string(h.count()) + "," + num(h.mean()) + "," +
               num(h.min()) + "," + num(h.max()) + "," + num(h.p50()) +
               "," + num(h.p95()) + "," + num(h.p99()) + "\n";
    }
    return out;
}

std::string
MetricsRegistry::toPrometheus() const
{
    std::lock_guard<std::mutex> lock(mutex_);

    // Group samples by sanitized base name first: map iteration order
    // interleaves bases (`a.b` sorts before `a.b{...}` but `a.b_x`
    // lands between them), and the exposition format requires every
    // sample of a metric to sit under a single # TYPE line.
    std::map<std::string, std::vector<std::string>> families;
    std::map<std::string, const char *> types;
    auto num = [](double v) { return json::number(v); };

    auto add = [&](const std::string &key, const char *type,
                   auto &&emit_samples) {
        std::string base;
        Labels labels;
        parseLabeledKey(key, base, labels);
        const std::string name = sanitizeMetricName(base);
        types.emplace(name, type);
        emit_samples(name, labels, families[name]);
    };

    for (const auto &kv : counters_) {
        const double value = kv.second->value();
        add(kv.first, "counter",
            [&](const std::string &name, const Labels &labels,
                std::vector<std::string> &lines) {
                lines.push_back(name + renderPromLabels(labels) + " " +
                                num(value));
            });
    }
    for (const auto &kv : gauges_) {
        const double value = kv.second->value();
        add(kv.first, "gauge",
            [&](const std::string &name, const Labels &labels,
                std::vector<std::string> &lines) {
                lines.push_back(name + renderPromLabels(labels) + " " +
                                num(value));
            });
    }
    for (const auto &kv : histograms_) {
        const Histogram &h = kv.second;
        add(kv.first, "summary",
            [&](const std::string &name, const Labels &labels,
                std::vector<std::string> &lines) {
                lines.push_back(name +
                                renderPromLabels(labels, "quantile", "0.5") +
                                " " + num(h.p50()));
                lines.push_back(name +
                                renderPromLabels(labels, "quantile", "0.95") +
                                " " + num(h.p95()));
                lines.push_back(name +
                                renderPromLabels(labels, "quantile", "0.99") +
                                " " + num(h.p99()));
                lines.push_back(name + "_sum" + renderPromLabels(labels) +
                                " " + num(h.sum()));
                lines.push_back(name + "_count" + renderPromLabels(labels) +
                                " " + std::to_string(h.count()));
            });
    }

    std::string out;
    for (const auto &family : families) {
        out += "# TYPE " + family.first + " " + types[family.first] + "\n";
        for (const std::string &line : family.second)
            out += line + "\n";
    }
    return out;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &kv : counters_)
        kv.second->reset();
    for (auto &kv : gauges_)
        kv.second->reset();
    for (auto &kv : histograms_)
        kv.second.reset();
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry("global");
    return registry;
}

} // namespace obs
} // namespace nebula
