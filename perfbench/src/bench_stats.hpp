/**
 * @file
 * The benchmark's own statistics: fastest-rounds selection,
 * nearest-rank percentiles that carry their sample counts, metric-name
 * validation and the logits fingerprint the output check compares.
 *
 * Why the fastest rounds: on a shared host, steal time and CPU-speed
 * phases only ever *add* time to a round. Every round replays the same
 * inputs with the same seeds, so a slowdown the program causes shows in
 * every round, fast ones included, while interference shows only in
 * some. Estimating over the fastest rounds keeps the first and drops
 * most of the second.
 */

#ifndef PERFBENCH_BENCH_STATS_HPP
#define PERFBENCH_BENCH_STATS_HPP

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

namespace perfbench {

/**
 * Indices of the @p k smallest entries of @p keys (all of them when
 * there are fewer), in ascending index order. Ties go to the earlier
 * index, so the selection is a pure function of the keys.
 */
inline std::vector<size_t>
fastestK(const std::vector<double> &keys, size_t k)
{
    std::vector<size_t> order(keys.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return keys[a] < keys[b]; });
    order.resize(std::min(k, order.size()));
    std::sort(order.begin(), order.end());
    return order;
}

/**
 * The @p k entries with the smallest keys offered so far, with their
 * payloads; memory stays bounded by k however many are offered. An
 * entry replaces the slowest kept one only when its key is strictly
 * smaller, so ties go to the earlier entry, as in fastestK().
 */
template <typename T>
class FastestRounds
{
  public:
    struct Entry
    {
        double key = 0.0;
        size_t index = 0; //!< offer order, 0-based
        T payload;
    };

    explicit FastestRounds(size_t k) : k_(k) {}

    void offer(double key, T payload)
    {
        const size_t index = offered_++;
        if (entries_.size() < k_) {
            entries_.push_back({key, index, std::move(payload)});
            return;
        }
        if (entries_.empty())
            return;
        auto slowest = std::max_element(
            entries_.begin(), entries_.end(),
            [](const Entry &a, const Entry &b) {
                return a.key < b.key || (a.key == b.key && a.index < b.index);
            });
        if (key < slowest->key)
            *slowest = {key, index, std::move(payload)};
    }

    /** The kept entries, in no particular order. */
    const std::vector<Entry> &kept() const { return entries_; }

  private:
    size_t k_;
    size_t offered_ = 0;
    std::vector<Entry> entries_;
};

/** A percentile together with the samples it was taken from. */
struct Percentile
{
    double value = 0.0;
    size_t samples = 0; //!< values the percentile was taken over
    size_t beyond = 0;  //!< samples strictly above the selected rank
};

/**
 * Nearest-rank percentile (q in (0, 1]): the smallest sample with at
 * least q*n samples at or below it. An empty input yields a zero
 * value with zero samples.
 */
inline Percentile
percentile(std::vector<double> values, double q)
{
    Percentile out;
    out.samples = values.size();
    if (values.empty())
        return out;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const size_t idx = static_cast<size_t>(
        std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
    out.value = values[idx];
    out.beyond = values.size() - idx - 1;
    return out;
}

/** Median (mean of the middle pair for even sizes); 0 when empty. */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/**
 * Metric names: start with a letter or digit, at most 64 characters of
 * letters, digits, '_', '.' and '-'.
 */
inline bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64 ||
        !std::isalnum(static_cast<unsigned char>(name[0])))
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
               c == '.' || c == '-';
    });
}

/**
 * Units: 1 to 16 characters of letters, digits, '_', '/', '%', '.'
 * and '-' (as in "ms", "1/s", "count").
 */
inline bool
validUnit(const std::string &unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    return std::all_of(unit.begin(), unit.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
               c == '/' || c == '%' || c == '.' || c == '-';
    });
}

/** FNV-1a over the IEEE-754 bits of @p n floats: a bit-exact digest. */
inline uint64_t
fingerprint(const float *data, size_t n)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < n; ++i) {
        uint32_t bits = 0;
        std::memcpy(&bits, &data[i], sizeof(bits));
        for (int b = 0; b < 4; ++b) {
            h ^= (bits >> (8 * b)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

} // namespace perfbench

#endif // PERFBENCH_BENCH_STATS_HPP
