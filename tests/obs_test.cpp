/**
 * @file
 * Tests for the observability layer: Chrome-trace well-formedness
 * (balanced begin/end pairs, monotonic per-thread timestamps, track
 * integrity under a multi-worker engine), root-span sampling, histogram
 * merge/quantile behavior, StatGroup CSV/JSON snapshots, the labeled
 * metrics registry and the leveled debug logging. The suite is run
 * under ThreadSanitizer in CI (NEBULA_SANITIZE=thread).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "common/stats.hpp"
#include "nn/datasets.hpp"
#include "nn/models.hpp"
#include "nn/quantize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/engine.hpp"
#include "runtime/replica.hpp"

namespace nebula {
namespace {

using obs::TraceEvent;
using obs::TraceSession;
using obs::TraceSpan;

/** Stop and discard any session a prior test (or NEBULA_TRACE) left. */
struct TraceQuiesce
{
    TraceQuiesce() { TraceSession::stop(); }
    ~TraceQuiesce() { TraceSession::stop(); }
};

/**
 * Structural validation of one thread track: every End matches the
 * category/name of the innermost open Begin, nothing is left open, and
 * timestamps never go backwards.
 */
void
expectWellFormed(const TraceSession::ThreadTrack &track)
{
    std::vector<const TraceEvent *> open;
    double last_ts = 0.0;
    for (const TraceEvent &event : track.events) {
        EXPECT_GE(event.tsUs, last_ts)
            << "timestamps must be monotonic within track " << track.name;
        last_ts = event.tsUs;
        if (event.phase == TraceEvent::Phase::Begin) {
            open.push_back(&event);
        } else if (event.phase == TraceEvent::Phase::End) {
            ASSERT_FALSE(open.empty())
                << "unmatched End in track " << track.name;
            EXPECT_STREQ(open.back()->name, event.name);
            EXPECT_STREQ(open.back()->category, event.category);
            open.pop_back();
        }
    }
    EXPECT_TRUE(open.empty())
        << open.size() << " unclosed span(s) in track " << track.name;
}

/**
 * Cheap JSON syntax sanity: brace/bracket balance outside string
 * literals. (CI additionally runs the real trace file through
 * python3 -m json.tool.)
 */
void
expectBalancedJson(const std::string &json)
{
    int braces = 0, brackets = 0;
    bool in_string = false, escaped = false;
    for (char c : json) {
        if (escaped) {
            escaped = false;
            continue;
        }
        if (c == '\\') {
            escaped = true;
            continue;
        }
        if (c == '"') {
            in_string = !in_string;
            continue;
        }
        if (in_string)
            continue;
        braces += (c == '{') - (c == '}');
        brackets += (c == '[') - (c == ']');
        EXPECT_GE(braces, 0);
        EXPECT_GE(brackets, 0);
    }
    EXPECT_FALSE(in_string);
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
}

// -- Histogram quantiles and merging -------------------------------------

TEST(HistogramTest, QuantilesInterpolateAndClamp)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 1; i <= 100; ++i)
        h.sample(static_cast<double>(i));

    EXPECT_NEAR(h.p50(), 50.0, 1.5);
    EXPECT_NEAR(h.p95(), 95.0, 1.5);
    EXPECT_NEAR(h.p99(), 99.0, 1.5);
    // Quantiles never leave the observed range.
    EXPECT_GE(h.quantile(0.0), 1.0);
    EXPECT_LE(h.quantile(1.0), 100.0);
}

TEST(HistogramTest, EmptyAndSingleSample)
{
    Histogram h(0.0, 10.0, 10);
    EXPECT_EQ(h.quantile(0.5), 0.0);
    h.sample(7.25);
    // One sample: every quantile is that sample (clamped to min/max).
    EXPECT_DOUBLE_EQ(h.p50(), 7.25);
    EXPECT_DOUBLE_EQ(h.p99(), 7.25);
}

TEST(HistogramTest, MergeSameShapeIsBinExact)
{
    Histogram a(0.0, 10.0, 10), b(0.0, 10.0, 10), all(0.0, 10.0, 10);
    for (int i = 0; i < 50; ++i) {
        const double v = (i * 7 % 100) / 10.0;
        (i % 2 ? a : b).sample(v);
        all.sample(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_DOUBLE_EQ(a.sum(), all.sum());
    EXPECT_EQ(a.bins(), all.bins());
    EXPECT_DOUBLE_EQ(a.p95(), all.p95());
}

TEST(HistogramTest, MergeMismatchedShapeKeepsMoments)
{
    Histogram a(0.0, 10.0, 10);
    Histogram b(0.0, 100.0, 5);
    a.sample(2.0);
    b.sample(50.0);
    b.sample(90.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.sum(), 142.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 90.0);
}

TEST(StatGroupTest, HistogramsSurviveMergeAndSnapshot)
{
    StatGroup a("a"), b("b");
    a.histogram("lat", 0.0, 10.0, 10).sample(1.0);
    b.histogram("lat", 0.0, 10.0, 10).sample(9.0);
    b.histogram("extra", 0.0, 1.0, 4).sample(0.5);
    a.merge(b);

    ASSERT_TRUE(a.hasHistogram("lat"));
    EXPECT_EQ(a.histogramAt("lat").count(), 2u);
    ASSERT_TRUE(a.hasHistogram("extra"));
    EXPECT_EQ(a.histogramAt("extra").count(), 1u);

    a.scalar("requests").inc();
    const std::string csv = a.toCsv();
    EXPECT_NE(csv.find("scalar,requests"), std::string::npos);
    EXPECT_NE(csv.find("histogram,lat"), std::string::npos);

    const std::string json = a.toJson();
    expectBalancedJson(json);
    EXPECT_NE(json.find("\"lat\""), std::string::npos);
    // Deterministic: serializing twice gives identical bytes.
    EXPECT_EQ(json, a.toJson());
    EXPECT_EQ(csv, a.toCsv());
}

// -- Metrics registry ----------------------------------------------------

TEST(MetricsTest, LabeledNamesAreCanonical)
{
    EXPECT_EQ(obs::labeledName("m", {}), "m");
    EXPECT_EQ(obs::labeledName("m", {{"b", "2"}, {"a", "1"}}),
              "m{a=\"1\",b=\"2\"}");
    // Label order does not create distinct metrics.
    obs::MetricsRegistry reg("r");
    reg.counter("hits", {{"x", "1"}, {"y", "2"}}).inc();
    reg.counter("hits", {{"y", "2"}, {"x", "1"}}).inc();
    EXPECT_DOUBLE_EQ(reg.counterValue("hits", {{"x", "1"}, {"y", "2"}}),
                     2.0);
}

TEST(MetricsTest, CountersAreThreadSafe)
{
    obs::MetricsRegistry reg("r");
    obs::Counter &counter = reg.counter("n");
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&counter] {
            for (int i = 0; i < 10000; ++i)
                counter.inc();
        });
    for (auto &thread : threads)
        thread.join();
    EXPECT_DOUBLE_EQ(counter.value(), 40000.0);
}

TEST(MetricsTest, HandlesSkipTheByNameLookup)
{
    obs::MetricsRegistry reg("r");
    EXPECT_EQ(reg.lookups(), 0u);
    obs::Counter &counter = reg.counter("n", {{"tenant", "a"}});
    Histogram &hist = reg.histogram("lat_ms", 0.0, 10.0, 10, {{"tenant", "a"}});
    EXPECT_EQ(reg.lookups(), 2u);

    // The handle and the by-name path address the same series; the
    // shape of an existing histogram is kept.
    EXPECT_EQ(&reg.histogram("lat_ms", 0.0, 99.0, 3, {{"tenant", "a"}}),
              &hist);
    reg.observe("lat_ms", 3.0, 0.0, 99.0, 3, {{"tenant", "a"}});
    EXPECT_EQ(reg.lookups(), 4u);
    for (int i = 0; i < 5; ++i) {
        counter.inc();
        reg.observe(hist, 7.0);
    }
    EXPECT_EQ(reg.lookups(), 4u);

    const StatGroup snap = reg.snapshot();
    const Histogram &seen = snap.histogramAt("lat_ms{tenant=\"a\"}");
    EXPECT_EQ(seen.count(), 6u);
    EXPECT_EQ(seen.bins().size(), 10u);
    EXPECT_DOUBLE_EQ(seen.sum(), 38.0);
    EXPECT_DOUBLE_EQ(reg.counterValue("n", {{"tenant", "a"}}), 5.0);
}

TEST(MetricsTest, SnapshotAndSerializationAreDeterministic)
{
    obs::MetricsRegistry reg("chipmetrics");
    reg.counter("evals").inc(5);
    reg.gauge("util", {{"layer", "0"}}).set(0.75);
    reg.observe("lat_ms", 3.0, 0.0, 10.0, 10);
    reg.observe("lat_ms", 7.0, 0.0, 10.0, 10);

    const StatGroup snap = reg.snapshot();
    EXPECT_DOUBLE_EQ(snap.scalarAt("evals").sum(), 5.0);
    EXPECT_DOUBLE_EQ(snap.scalarAt("util{layer=\"0\"}").sum(), 0.75);
    ASSERT_TRUE(snap.hasHistogram("lat_ms"));
    EXPECT_EQ(snap.histogramAt("lat_ms").count(), 2u);

    const std::string json = reg.toJson();
    expectBalancedJson(json);
    EXPECT_EQ(json, reg.toJson());
    // Names containing '"' are RFC-4180 quoted in the CSV (inner
    // quotes doubled), so label values cannot break the row format.
    EXPECT_NE(reg.toCsv().find("gauge,\"util{layer=\"\"0\"\"}\",0.75"),
              std::string::npos);

    reg.reset();
    EXPECT_DOUBLE_EQ(reg.counterValue("evals"), 0.0);
    EXPECT_EQ(reg.snapshot().histogramAt("lat_ms").count(), 0u);
}

// -- Leveled logging -----------------------------------------------------

/** Capture std::cerr for the scope of one assertion. */
class CerrCapture
{
  public:
    CerrCapture() : old_(std::cerr.rdbuf(buffer_.rdbuf())) {}
    ~CerrCapture() { std::cerr.rdbuf(old_); }
    std::string text() const { return buffer_.str(); }

  private:
    std::ostringstream buffer_;
    std::streambuf *old_;
};

TEST(LoggingTest, DebugComponentsGateOutput)
{
    setDebugComponents("chip,noc");
    EXPECT_TRUE(debugEnabled("chip"));
    EXPECT_TRUE(debugEnabled("noc"));
    EXPECT_FALSE(debugEnabled("runtime"));

    {
        CerrCapture capture;
        NEBULA_DEBUG("chip", "evals=", 3);
        NEBULA_DEBUG("runtime", "should not appear");
        EXPECT_NE(capture.text().find("debug: [chip] evals=3"),
                  std::string::npos);
        EXPECT_EQ(capture.text().find("should not appear"),
                  std::string::npos);
    }

    setDebugComponents("all");
    EXPECT_TRUE(debugEnabled("anything"));
    setDebugComponents("");
    EXPECT_FALSE(debugEnabled("chip"));
}

TEST(LoggingTest, QuietSilencesEveryLevel)
{
    setDebugComponents("test");
    setLogQuiet(true);
    {
        CerrCapture capture;
        NEBULA_DEBUG("test", "quiet debug");
        NEBULA_INFORM("quiet info");
        NEBULA_WARN("quiet warn");
        EXPECT_TRUE(capture.text().empty()) << capture.text();
    }
    setLogQuiet(false);
    setDebugComponents("");
}

// -- Tracing -------------------------------------------------------------

TEST(TraceTest, SpansPairAndNest)
{
    TraceQuiesce quiesce;
    TraceSession::start();
    {
        TraceSpan outer("test", "outer");
        outer.arg("k", 1.0);
        TraceSpan inner("test", "inner");
        obs::recordInstant("test", "tick");
        obs::recordCounter("depth", 2.0);
    }
    auto session = TraceSession::stop();
    ASSERT_TRUE(session);
    const auto tracks = session->tracks();
    ASSERT_EQ(tracks.size(), 1u);
    expectWellFormed(tracks[0]);
    EXPECT_EQ(tracks[0].events.size(), 6u); // 2 B + 2 E + i + C

    std::ostringstream os;
    session->writeJson(os);
    expectBalancedJson(os.str());
    EXPECT_NE(os.str().find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(os.str().find("\"ph\":\"B\""), std::string::npos);
}

TEST(TraceTest, DisabledSpansRecordNothing)
{
    TraceQuiesce quiesce;
    {
        // No session at all: spans are inert.
        TraceSpan span("test", "noop");
        EXPECT_FALSE(span.active());
    }
    TraceSession::start();
    {
        // Session active but the subsystem toggle is off.
        TraceSpan span("test", "gated", /*enabled=*/false);
        EXPECT_FALSE(span.active());
    }
    auto session = TraceSession::stop();
    EXPECT_EQ(session->eventCount(), 0u);
}

TEST(TraceTest, SamplingSuppressesWholeSubtrees)
{
    TraceQuiesce quiesce;
    obs::TraceConfig config;
    config.sampleEvery = 4;
    TraceSession::start(config);
    for (int i = 0; i < 16; ++i) {
        TraceSpan root("test", "root", true, /*sampled_root=*/true);
        TraceSpan child("test", "child");
        obs::recordInstant("test", "leaf");
    }
    auto session = TraceSession::stop();
    const auto tracks = session->tracks();
    ASSERT_EQ(tracks.size(), 1u);
    expectWellFormed(tracks[0]);
    // 16 roots sampled 1-in-4: 4 kept, each with B/E root, B/E child
    // and one instant.
    EXPECT_EQ(tracks[0].events.size(), 4u * 5u);
}

TEST(TraceTest, BufferCapDropsWholeSpans)
{
    TraceQuiesce quiesce;
    obs::TraceConfig config;
    config.maxEventsPerThread = 8;
    TraceSession::start(config);
    for (int i = 0; i < 100; ++i)
        TraceSpan span("test", "tight");
    auto session = TraceSession::stop();
    const auto tracks = session->tracks();
    ASSERT_EQ(tracks.size(), 1u);
    expectWellFormed(tracks[0]);
    EXPECT_GT(session->droppedEvents(), 0u);
    // End-side admission may overshoot the cap by open-span depth (1).
    EXPECT_LE(tracks[0].events.size(), 9u);
}

TEST(TraceTest, SessionRestartInvalidatesOldSpans)
{
    TraceQuiesce quiesce;
    TraceSession::start();
    {
        TraceSpan span("test", "stale");
        // Restart while the span is open: its End must not leak into
        // the new session.
        TraceSession::start();
    }
    auto session = TraceSession::stop();
    ASSERT_TRUE(session);
    EXPECT_EQ(session->eventCount(), 0u);
}

TEST(TraceTest, MultiWorkerEngineProducesSaneTracks)
{
    TraceQuiesce quiesce;
    SyntheticDigits data(24, 12, /*seed=*/3);
    Network net = buildMlp3(12, 1, 10, /*seed=*/7);
    const auto quant = quantizeNetwork(net, data.firstImages(16));

    TraceSession::start();
    {
        EngineConfig config;
        config.numWorkers = 3;
        InferenceEngine engine(config, makeAnnReplicaFactory(net, quant));
        std::vector<Tensor> images;
        for (int i = 0; i < data.size(); ++i)
            images.push_back(data.image(i));
        for (auto &future : engine.submitBatch(images))
            future.get();
        engine.shutdown();
    }
    auto session = TraceSession::stop();
    ASSERT_TRUE(session);

    const auto tracks = session->tracks();
    int worker_tracks = 0;
    uint64_t requests = 0;
    for (const auto &track : tracks) {
        expectWellFormed(track);
        if (track.name.rfind("worker", 0) == 0) {
            ++worker_tracks;
            for (const TraceEvent &event : track.events)
                requests += event.phase == TraceEvent::Phase::Begin &&
                            std::string(event.name) == "request";
        }
    }
    EXPECT_EQ(worker_tracks, 3);
    EXPECT_EQ(requests, 24u);

    std::ostringstream os;
    session->writeJson(os);
    expectBalancedJson(os.str());
}

} // namespace
} // namespace nebula
