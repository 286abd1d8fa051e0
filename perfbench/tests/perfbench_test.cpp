/**
 * Tests of the benchmark's own statistics and of the repeatability its
 * gates rely on. Built and run by `python3 perfbench/run.py --self-test`.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_stats.hpp"
#include "workloads.hpp"

using namespace perfbench;

TEST(FastestK, KeepsTheSmallestInIndexOrder)
{
    const std::vector<double> walls = {0.5, 0.1, 0.9, 0.2, 0.3, 0.8, 0.4, 0.7};
    EXPECT_EQ(fastestK(walls, 2), (std::vector<size_t>{1, 3}));
    EXPECT_EQ(fastestK(walls, 4), (std::vector<size_t>{1, 3, 4, 6}));
    EXPECT_EQ(fastestK(walls, 20).size(), walls.size());
    EXPECT_TRUE(fastestK({}, 3).empty());
}

TEST(FastestK, BreaksTiesByIndex)
{
    const std::vector<double> tied = {1.0, 1.0, 1.0, 1.0};
    EXPECT_EQ(fastestK(tied, 2), (std::vector<size_t>{0, 1}));
}

TEST(FastestRounds, KeepsTheSameRoundsAsFastestK)
{
    // Many ties and a long tail, as round wall times have.
    std::vector<double> walls;
    uint64_t state = 12345;
    for (int i = 0; i < 500; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        walls.push_back(static_cast<double>((state >> 33) % 40));
    }
    for (size_t k : {size_t{1}, size_t{8}, size_t{11}, size_t{499}}) {
        FastestRounds<int> kept(k);
        for (size_t i = 0; i < walls.size(); ++i)
            kept.offer(walls[i], static_cast<int>(i));
        std::vector<size_t> got;
        for (const auto &entry : kept.kept()) {
            EXPECT_EQ(entry.index, static_cast<size_t>(entry.payload));
            got.push_back(entry.index);
        }
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, fastestK(walls, k)) << "k=" << k;
    }
}

TEST(FastestRounds, MemoryIsBoundedByK)
{
    FastestRounds<std::vector<double>> kept(3);
    for (int i = 0; i < 100; ++i)
        kept.offer(100.0 - i, std::vector<double>(10, i));
    ASSERT_EQ(kept.kept().size(), 3u);
    for (const auto &entry : kept.kept())
        EXPECT_GE(entry.key, 1.0);
    FastestRounds<int> none(0);
    none.offer(1.0, 1);
    EXPECT_TRUE(none.kept().empty());
}

TEST(Percentile, NearestRankWithSampleCounts)
{
    std::vector<double> values;
    for (int i = 100; i >= 1; --i)
        values.push_back(i);
    const Percentile p50 = percentile(values, 0.50);
    EXPECT_EQ(p50.value, 50.0);
    EXPECT_EQ(p50.samples, 100u);
    EXPECT_EQ(p50.beyond, 50u);
    const Percentile p99 = percentile(values, 0.99);
    EXPECT_EQ(p99.value, 99.0);
    EXPECT_EQ(p99.beyond, 1u);
    EXPECT_EQ(percentile(values, 1.0).value, 100.0);
    EXPECT_EQ(percentile(values, 0.001).value, 1.0);
}

TEST(Percentile, TenBeyondP99NeedsAThousandSamples)
{
    EXPECT_EQ(percentile(std::vector<double>(1000, 1.0), 0.99).beyond, 10u);
    EXPECT_EQ(percentile(std::vector<double>(999, 1.0), 0.99).beyond, 9u);
}

TEST(Percentile, EmptyInputHasNoSamples)
{
    const Percentile p = percentile({}, 0.5);
    EXPECT_EQ(p.samples, 0u);
    EXPECT_EQ(p.value, 0.0);
}

TEST(Median, OddAndEven)
{
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(MetricNames, Validity)
{
    EXPECT_TRUE(validMetricName("latency_p50_ms"));
    EXPECT_TRUE(validMetricName("arch.crossbar_evals_per_inf"));
    EXPECT_TRUE(validMetricName("9lives-ok"));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("_leading"));
    EXPECT_FALSE(validMetricName(".leading"));
    EXPECT_FALSE(validMetricName("has space"));
    EXPECT_FALSE(validMetricName("slash/name"));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));

    EXPECT_TRUE(validUnit("1/s"));
    EXPECT_TRUE(validUnit("%"));
    EXPECT_FALSE(validUnit(""));
    EXPECT_FALSE(validUnit("micro seconds"));
    EXPECT_FALSE(validUnit(std::string(17, 's')));
}

TEST(Fingerprint, IsBitExact)
{
    const float a[] = {0.25f, -1.5f, 3.0f};
    const float b[] = {0.25f, -1.5f, 3.0f};
    const float c[] = {0.25f, -1.5f, 3.0000002f};
    const float zero[] = {0.0f};
    const float negative_zero[] = {-0.0f};
    EXPECT_EQ(fingerprint(a, 3), fingerprint(b, 3));
    EXPECT_NE(fingerprint(a, 3), fingerprint(c, 3));
    EXPECT_NE(fingerprint(zero, 1), fingerprint(negative_zero, 1));
}

namespace {

std::map<std::string, double>
byName(const RunReport &report)
{
    std::map<std::string, double> out;
    for (const Metric &m : report.metrics)
        out[m.name] = m.value;
    return out;
}

RunReport
shortRun(const std::string &workload, bool trace)
{
    RunOptions options;
    options.workload = workload;
    options.seed = 5;
    options.seconds = 0.2; // the minimum round count still runs
    options.trace = trace;
    return runWorkload(options);
}

} // namespace

class Repeatability : public ::testing::TestWithParam<std::string>
{
};

TEST_P(Repeatability, DeterministicMetricsRepeatExactly)
{
    const std::vector<std::string> end_to_end = {
        "setup_s",  "throughput_rps", "latency_p50_ms",
        "cpu_ms_per_req", "ok_ratio", "accuracy",
        "energy_uj_per_inf", "peak_rss_mb"};
    const std::vector<std::string> exact_end_to_end = {"ok_ratio", "accuracy",
                                                       "energy_uj_per_inf"};
    const std::vector<std::string> exact_per_layer = {
        "arch.crossbar_evals_per_inf", "arch.adc_conversions_per_inf",
        "arch.spikes_per_inf", "noc.packets_per_inf",
        "registry.swaps_per_1k_req"};

    for (bool trace : {false, true}) {
        const RunReport first = shortRun(GetParam(), trace);
        const RunReport second = shortRun(GetParam(), trace);
        for (const RunReport *report : {&first, &second}) {
            EXPECT_TRUE(report->correct);
            EXPECT_EQ(report->failed, 0);
            EXPECT_GT(report->attempted, 0);
            for (const Metric &m : report->metrics) {
                EXPECT_TRUE(validMetricName(m.name)) << m.name;
                EXPECT_TRUE(validUnit(m.unit)) << m.unit;
            }
        }
        const auto a = byName(first);
        const auto b = byName(second);
        if (!trace) {
            ASSERT_EQ(first.metrics.size(), end_to_end.size());
            for (size_t i = 0; i < end_to_end.size(); ++i)
                EXPECT_EQ(first.metrics[i].name, end_to_end[i]);
            for (const auto &[name, value] : a)
                EXPECT_GT(value, 0.0) << name; // end-to-end is never 0
        }
        for (const auto &name : trace ? exact_per_layer : exact_end_to_end) {
            ASSERT_TRUE(a.count(name)) << name;
            EXPECT_EQ(a.at(name), b.at(name)) << name;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, Repeatability,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (char &c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });
