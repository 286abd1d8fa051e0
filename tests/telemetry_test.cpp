/**
 * @file
 * Tests for the live telemetry plane: WindowedHistogram rotation and
 * merge determinism (explicit time points, no wall-clock dependence),
 * SLO burn-rate semantics (client-caused outcomes excluded, over-target
 * successes burn budget), the shared label-escaping rule and the
 * Prometheus text exposition (one TYPE line per family, parseable line
 * grammar), wire-protocol version compatibility (v1 frames decode with
 * trace id 0, v2 round-trips the id, unknown versions are typed),
 * the bulk tensor codec against the per-element reference encoder,
 * per-request energy attribution from the chip model, exact wire
 * billing and a zero by-name-lookup request path, admin-endpoint
 * HTTP behavior and /statusz JSON validity under concurrent load, and
 * cross-process flow events linking client -> server -> worker spans.
 * The suite runs under ThreadSanitizer in CI.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <future>
#include <iterator>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "nn/datasets.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "serving/admin.hpp"
#include "serving/client.hpp"
#include "serving/models.hpp"
#include "serving/protocol.hpp"
#include "serving/registry.hpp"
#include "serving/server.hpp"

namespace nebula {
namespace {

using obs::SloConfig;
using obs::SloSnapshot;
using obs::SloTracker;
using obs::WindowedCounter;
using obs::WindowedHistogram;

using Clock = WindowedHistogram::Clock;

// ---------------------------------------------------------------------------
// WindowedHistogram / WindowedCounter
// ---------------------------------------------------------------------------

TEST(WindowedHistogram, SamplesAgeOutAfterTheWindow)
{
    const auto t0 = Clock::now();
    WindowedHistogram hist(0.0, 100.0, 100, /*sub_windows=*/4,
                           std::chrono::seconds(4), t0);
    EXPECT_EQ(hist.subWindows(), 4);
    EXPECT_EQ(hist.subWindowDuration(), std::chrono::seconds(1));

    hist.record(10.0, t0);
    hist.record(20.0, t0 + std::chrono::milliseconds(500));
    EXPECT_EQ(hist.merged(t0 + std::chrono::milliseconds(900)).count(), 2);

    // Still inside the rolling window: both samples visible.
    EXPECT_EQ(hist.merged(t0 + std::chrono::seconds(3)).count(), 2);

    // 4+ sub-windows later the slot holding them has been recycled.
    EXPECT_EQ(hist.merged(t0 + std::chrono::seconds(5)).count(), 0);
    EXPECT_GT(hist.rotations(), 0);
}

TEST(WindowedHistogram, IdenticalFeedsMergeIdentically)
{
    const auto t0 = Clock::now();
    WindowedHistogram a(0.0, 50.0, 50, 6, std::chrono::seconds(6), t0);
    WindowedHistogram b(0.0, 50.0, 50, 6, std::chrono::seconds(6), t0);
    for (int i = 0; i < 200; ++i) {
        const auto ts = t0 + std::chrono::milliseconds(25 * i);
        const double v = static_cast<double>(i % 50);
        a.record(v, ts);
        b.record(v, ts);
    }
    const auto query = t0 + std::chrono::seconds(5);
    Histogram ha = a.merged(query);
    Histogram hb = b.merged(query);
    ASSERT_EQ(ha.count(), hb.count());
    EXPECT_DOUBLE_EQ(ha.sum(), hb.sum());
    EXPECT_DOUBLE_EQ(ha.p50(), hb.p50());
    EXPECT_DOUBLE_EQ(ha.p99(), hb.p99());
    EXPECT_EQ(ha.bins(), hb.bins());
}

TEST(WindowedHistogram, LongIdleGapClearsEverySubWindow)
{
    const auto t0 = Clock::now();
    WindowedHistogram hist(0.0, 10.0, 10, 3, std::chrono::seconds(3), t0);
    hist.record(5.0, t0);
    // A gap far larger than the ring must not over-rotate (epoch jumps
    // by thousands; only ring-size slots exist to clear).
    EXPECT_EQ(hist.merged(t0 + std::chrono::hours(2)).count(), 0);
    hist.record(7.0, t0 + std::chrono::hours(2));
    EXPECT_EQ(hist.merged(t0 + std::chrono::hours(2)).count(), 1);
}

TEST(WindowedCounter, SumTracksTheRollingWindow)
{
    const auto t0 = Clock::now();
    WindowedCounter counter(4, std::chrono::seconds(4), t0);
    counter.record(1.0, t0);
    counter.record(2.0, t0 + std::chrono::seconds(1));
    counter.record(4.0, t0 + std::chrono::seconds(2));
    EXPECT_DOUBLE_EQ(counter.sum(t0 + std::chrono::seconds(2)), 7.0);
    // The t0 slot ages out first.
    EXPECT_DOUBLE_EQ(counter.sum(t0 + std::chrono::seconds(4)), 6.0);
    EXPECT_DOUBLE_EQ(counter.sum(t0 + std::chrono::seconds(60)), 0.0);
}

// ---------------------------------------------------------------------------
// SloTracker
// ---------------------------------------------------------------------------

TEST(SloTracker, BurnRateReflectsServerOwnedBadness)
{
    SloConfig config;
    config.targetMs = 50.0;
    config.objective = 0.99;
    SloTracker tracker(config);
    const auto t0 = Clock::now();

    // 98 fast successes, 1 server error, 1 over-target success.
    for (int i = 0; i < 98; ++i)
        tracker.record("t0", "m/ann", 5.0, false, false, t0);
    tracker.record("t0", "m/ann", 5.0, /*server_error=*/true, false, t0);
    tracker.record("t0", "m/ann", 200.0, false, false, t0);

    const SloSnapshot snap = tracker.snapshot("t0", "m/ann", t0);
    EXPECT_DOUBLE_EQ(snap.good, 98.0);
    EXPECT_DOUBLE_EQ(snap.bad, 2.0);
    EXPECT_DOUBLE_EQ(snap.errorRate(), 0.02);
    // 2% bad against a 1% budget burns at rate 2.
    EXPECT_NEAR(snap.burnRate, 2.0, 1e-9);
    EXPECT_TRUE(snap.budgetExhausted());
}

TEST(SloTracker, ClientErrorsAreExcludedFromTheBudget)
{
    SloTracker tracker;
    const auto t0 = Clock::now();
    tracker.record("t0", "m/ann", 1.0, false, false, t0);
    for (int i = 0; i < 50; ++i)
        tracker.record("t0", "m/ann", 0.0, false, /*client_error=*/true,
                       t0);
    const SloSnapshot snap = tracker.snapshot("t0", "m/ann", t0);
    EXPECT_DOUBLE_EQ(snap.good, 1.0);
    EXPECT_DOUBLE_EQ(snap.bad, 0.0);
    EXPECT_DOUBLE_EQ(snap.excluded, 50.0);
    EXPECT_DOUBLE_EQ(snap.burnRate, 0.0);
    EXPECT_FALSE(snap.budgetExhausted());
}

TEST(SloTracker, CellsAreIsolatedAndSorted)
{
    SloTracker tracker;
    const auto t0 = Clock::now();
    tracker.record("tb", "m/snn", 1.0, false, false, t0);
    tracker.record("ta", "m/ann", 1.0, true, false, t0);
    const std::vector<SloSnapshot> all = tracker.snapshotAll(t0);
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[0].tenant, "ta");
    EXPECT_DOUBLE_EQ(all[0].bad, 1.0);
    EXPECT_EQ(all[1].tenant, "tb");
    EXPECT_DOUBLE_EQ(all[1].good, 1.0);
}

TEST(SloTracker, ExportToRegistryEmitsLabeledGauges)
{
    obs::MetricsRegistry registry("test");
    SloTracker tracker;
    const auto t0 = Clock::now();
    for (int i = 0; i < 10; ++i)
        tracker.record("acme", "mlp3/ann", 7.0, false, false, t0);
    tracker.exportTo(registry, t0);
    const obs::Labels labels = {{"tenant", "acme"}, {"model", "mlp3/ann"}};
    EXPECT_DOUBLE_EQ(registry.gaugeValue("slo.good", labels), 10.0);
    EXPECT_DOUBLE_EQ(registry.gaugeValue("slo.burn_rate", labels), 0.0);
    EXPECT_GT(registry.gaugeValue("slo.p99_ms", labels), 0.0);
}

// ---------------------------------------------------------------------------
// Label escaping + Prometheus exposition
// ---------------------------------------------------------------------------

TEST(MetricsEscaping, LabelValuesEscapeUnambiguously)
{
    EXPECT_EQ(obs::escapeLabelValue("plain"), "plain");
    EXPECT_EQ(obs::escapeLabelValue("a\"b"), "a\\\"b");
    EXPECT_EQ(obs::escapeLabelValue("a\\b"), "a\\\\b");
    EXPECT_EQ(obs::escapeLabelValue("a\nb"), "a\\nb");

    // Two values that would collide unescaped must produce distinct
    // canonical keys.
    const std::string k1 =
        obs::labeledName("m", {{"k", "v\"},x={\"y"}});
    const std::string k2 = obs::labeledName("m", {{"k", "v"}, {"x", "y"}});
    EXPECT_NE(k1, k2);
}

TEST(MetricsPrometheus, RendersOneTypeLinePerFamilyAndEscapes)
{
    obs::MetricsRegistry registry("test");
    registry.counter("serving.requests", {{"tenant", "a\"b"}}).inc(3.0);
    registry.counter("serving.requests", {{"tenant", "plain"}}).inc(1.0);
    registry.gauge("queue.depth").set(5.0);
    // A family whose sanitized name sorts *between* the bare counter
    // name and its labeled variants ('_' < '{') -- the classic
    // interleaving trap for TYPE-line grouping.
    registry.counter("serving.requests_total_extra").inc();
    for (int i = 0; i < 100; ++i)
        registry.observe("latency.ms", static_cast<double>(i), 0.0, 100.0,
                         100, {{"tenant", "plain"}});

    const std::string text = registry.toPrometheus();

    // Exactly one TYPE line per family, and every sample line parses as
    // name{labels} value (or name value).
    std::set<std::string> type_lines;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        const std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty())
            continue;
        if (line.rfind("# TYPE ", 0) == 0) {
            EXPECT_TRUE(type_lines.insert(line).second)
                << "duplicate TYPE line: " << line;
            continue;
        }
        ASSERT_FALSE(line[0] == '#') << "unexpected comment: " << line;
        const size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        const std::string name_part = line.substr(0, space);
        EXPECT_FALSE(name_part.empty());
        // Metric names contain only [a-zA-Z0-9_:] up to '{'.
        for (char c : name_part) {
            if (c == '{')
                break;
            EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) ||
                        c == '_' || c == ':')
                << "bad name char in: " << line;
        }
    }

    EXPECT_NE(text.find("# TYPE serving_requests counter"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE serving_requests_total_extra counter"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE latency_ms summary"), std::string::npos);
    EXPECT_NE(text.find("tenant=\"a\\\"b\""), std::string::npos);
    EXPECT_NE(text.find("latency_ms_count"), std::string::npos);
    EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);

    // TYPE precedes its first sample for each family.
    EXPECT_LT(text.find("# TYPE serving_requests counter"),
              text.find("serving_requests{"));
}

// ---------------------------------------------------------------------------
// Wire protocol versioning
// ---------------------------------------------------------------------------

TEST(WireCompat, UntracedFramesAreByteIdenticalV1)
{
    using namespace serving;
    const std::vector<uint8_t> body = {1, 2, 3, 4};
    const std::vector<uint8_t> frame =
        encodeFrame(FrameType::Request, body, /*trace_id=*/0);
    ASSERT_EQ(frame.size(), kHeaderBytes + body.size());
    EXPECT_EQ(frame[4], kWireVersion);

    FrameHeader header;
    ASSERT_EQ(decodeHeader(frame.data(), kHeaderBytes, 1 << 20, header),
              WireStatus::Ok);
    EXPECT_EQ(header.version, kWireVersion);
    EXPECT_EQ(headerExtraBytes(header.version), 0u);
    EXPECT_EQ(header.traceId, 0u);
    EXPECT_EQ(header.bodyLen, body.size());
}

TEST(WireCompat, TracedFramesRoundTripTheTraceId)
{
    using namespace serving;
    const uint64_t trace_id = 0xDEADBEEFCAFEF00Dull;
    const std::vector<uint8_t> body = {9, 9};
    const std::vector<uint8_t> frame =
        encodeFrame(FrameType::Response, body, trace_id);
    ASSERT_EQ(frame.size(),
              kHeaderBytes + kTraceContextBytes + body.size());
    EXPECT_EQ(frame[4], kWireVersionTrace);

    FrameHeader header;
    ASSERT_EQ(decodeHeader(frame.data(), kHeaderBytes, 1 << 20, header),
              WireStatus::Ok);
    ASSERT_EQ(headerExtraBytes(header.version), kTraceContextBytes);
    ASSERT_EQ(decodeHeaderExtra(frame.data() + kHeaderBytes,
                                kTraceContextBytes, header),
              WireStatus::Ok);
    EXPECT_EQ(header.traceId, trace_id);
    EXPECT_EQ(header.bodyLen, body.size());
}

TEST(WireCompat, UnknownVersionsStayTyped)
{
    using namespace serving;
    std::vector<uint8_t> frame =
        encodeFrame(serving::FrameType::Request, {1, 2, 3});
    frame[4] = 4; // a future version this build does not know
                  // (3 is kWireVersionIntegrity, the ABFT verdict frame)
    FrameHeader header;
    EXPECT_EQ(decodeHeader(frame.data(), kHeaderBytes, 1 << 20, header),
              WireStatus::UnsupportedVersion);

    // Wrong-size extension bytes are BadFrame, not a crash.
    FrameHeader v2;
    v2.version = kWireVersionTrace;
    uint8_t short_extra[4] = {0};
    EXPECT_EQ(decodeHeaderExtra(short_extra, sizeof(short_extra), v2),
              WireStatus::BadFrame);
}

/** The per-element tensor encoder the bulk codec replaced: the byte
 *  layout reference. */
void
referenceWriteTensor(serving::ByteWriter &w, const Tensor &t)
{
    w.u8(static_cast<uint8_t>(t.rank()));
    for (int i = 0; i < t.rank(); ++i)
        w.i32(t.dim(i));
    for (long long i = 0; i < t.size(); ++i)
        w.u32(std::bit_cast<uint32_t>(t[i]));
}

std::vector<uint8_t>
referenceRequestFrame(const serving::WireRequest &request)
{
    std::vector<uint8_t> body;
    serving::ByteWriter w(body);
    w.u64(request.corrId);
    w.u8(static_cast<uint8_t>(request.mode));
    w.u32(request.timesteps);
    w.u64(request.deadlineNs);
    w.u64(request.seed);
    for (const std::string *s : {&request.tenant, &request.model}) {
        const size_t n = std::min<size_t>(s->size(), 255);
        w.u8(static_cast<uint8_t>(n));
        w.bytes(s->data(), n);
    }
    referenceWriteTensor(w, request.image);
    return serving::encodeFrame(serving::FrameType::Request, body,
                                request.traceId);
}

std::vector<uint8_t>
referenceResponseFrame(const serving::WireResponse &response)
{
    std::vector<uint8_t> body;
    serving::ByteWriter w(body);
    w.u64(response.corrId);
    w.u16(static_cast<uint16_t>(response.status));
    w.i32(response.predictedClass);
    w.f64(response.serverMs);
    const size_t n = std::min<size_t>(response.message.size(), 65535);
    w.u16(static_cast<uint16_t>(n));
    w.bytes(response.message.data(), n);
    referenceWriteTensor(w, response.logits);
    return serving::encodeFrame(serving::FrameType::Response, body,
                                /*trace_id=*/0, response.integrity);
}

/** Body of an encoded frame (after the header and its extension). */
std::pair<const uint8_t *, size_t>
frameBody(const std::vector<uint8_t> &frame)
{
    serving::FrameHeader header;
    EXPECT_EQ(serving::decodeHeader(frame.data(), serving::kHeaderBytes,
                                    1 << 24, header),
              serving::WireStatus::Ok);
    const size_t offset =
        serving::kHeaderBytes + serving::headerExtraBytes(header.version);
    EXPECT_EQ(frame.size(), offset + header.bodyLen);
    return {frame.data() + offset, header.bodyLen};
}

/** Same rank, dims and float bits. A decoded rank-0 tensor is checked
 *  for rank only: rank 0 carries no payload on the wire. */
bool
sameTensorBits(const Tensor &decoded, const Tensor &sent)
{
    if (decoded.rank() != sent.rank())
        return false;
    if (sent.rank() == 0)
        return true;
    return decoded.shape() == sent.shape() &&
           std::memcmp(decoded.data(), sent.data(),
                       4 * static_cast<size_t>(sent.size())) == 0;
}

TEST(WireCompat, BulkTensorCodecIsByteIdentical)
{
    using namespace serving;
    std::mt19937_64 rng(0xB0C0DECull);
    const uint32_t specials[] = {
        0x80000000u, // -0.0
        0x7f800000u, // +inf
        0xff800000u, // -inf
        0x7fc00000u, // quiet NaN
        0x7fa5a5a5u, // signalling NaN with payload bits
        0xffc12345u, // negative quiet NaN with payload bits
        0x00000001u, // smallest denormal
        0x807fffffu, // largest negative denormal
    };
    auto randomTensor = [&] {
        const int rank = static_cast<int>(rng() % 5);
        if (rank == 0)
            return Tensor();
        std::vector<int> shape(static_cast<size_t>(rank));
        for (int &d : shape)
            d = 1 + static_cast<int>(rng() % 5);
        Tensor t(shape);
        for (long long i = 0; i < t.size(); ++i) {
            const uint64_t pick = rng() % 4;
            const uint32_t bits =
                pick == 0 ? specials[rng() % std::size(specials)]
                          : static_cast<uint32_t>(rng());
            t[i] = std::bit_cast<float>(bits);
        }
        return t;
    };
    auto randomString = [&](size_t max_len) {
        std::string s(1 + rng() % max_len, ' ');
        for (char &c : s)
            c = static_cast<char>(rng());
        return s;
    };

    for (int trial = 0; trial < 1000; ++trial) {
        WireRequest request;
        request.corrId = rng();
        request.mode = static_cast<WireMode>(rng() % 3);
        request.timesteps = static_cast<uint32_t>(rng());
        request.deadlineNs = rng();
        request.seed = rng();
        request.traceId = trial % 2 ? rng() : 0;
        request.tenant = randomString(trial % 50 == 0 ? 300 : 24);
        request.model = randomString(trial % 70 == 0 ? 300 : 16);
        request.image = randomTensor();

        const std::vector<uint8_t> frame = encodeRequestFrame(request);
        ASSERT_EQ(frame, referenceRequestFrame(request)) << "trial " << trial;
        const auto [body, size] = frameBody(frame);
        WireRequest decoded;
        ASSERT_EQ(decodeRequestBody(body, size, decoded), WireStatus::Ok);
        EXPECT_EQ(decoded.corrId, request.corrId);
        EXPECT_EQ(decoded.seed, request.seed);
        EXPECT_EQ(decoded.tenant, request.tenant.substr(0, 255));
        EXPECT_EQ(decoded.model, request.model.substr(0, 255));
        ASSERT_TRUE(sameTensorBits(decoded.image, request.image))
            << "trial " << trial;

        WireResponse response;
        response.corrId = rng();
        response.status = static_cast<WireStatus>(rng() % 6);
        response.predictedClass = static_cast<int32_t>(rng());
        response.serverMs = std::bit_cast<double>(rng());
        response.integrity = static_cast<uint8_t>(rng() % 8);
        response.message =
            trial % 100 == 0 ? std::string(70000, 'm') : randomString(40);
        response.logits = randomTensor();

        const std::vector<uint8_t> reply = encodeResponseFrame(response);
        ASSERT_EQ(reply, referenceResponseFrame(response))
            << "trial " << trial;
        const auto [reply_body, reply_size] = frameBody(reply);
        WireResponse back;
        ASSERT_EQ(decodeResponseBody(reply_body, reply_size, back),
                  WireStatus::Ok);
        EXPECT_EQ(back.corrId, response.corrId);
        EXPECT_EQ(std::bit_cast<uint64_t>(back.serverMs),
                  std::bit_cast<uint64_t>(response.serverMs));
        EXPECT_EQ(back.message, response.message.substr(0, 65535));
        ASSERT_TRUE(sameTensorBits(back.logits, response.logits))
            << "trial " << trial;
    }
}

// ---------------------------------------------------------------------------
// Energy attribution
// ---------------------------------------------------------------------------

TEST(EnergyAttribution, ChipReplicasReportPerRequestJoules)
{
    serving::ServableModelSpec spec;
    ASSERT_TRUE(serving::parseServableId("mlp3/ann", spec));
    spec.epochs = 0;
    spec.trainImages = 64;
    ReplicaFactory factory =
        serving::ServableLoader::global().makeFactory(spec, {});
    std::unique_ptr<ChipReplica> replica = factory(0);

    SyntheticDigits data(1, spec.imageSize, /*seed=*/3);
    InferenceRequest request;
    request.image = data.image(0);
    const InferenceResult result = replica->run(request);
    ASSERT_TRUE(result.ok());
    EXPECT_GT(result.energy.crossbarJ, 0.0);
    EXPECT_GT(result.energy.adcJ, 0.0);
    EXPECT_GT(result.energy.driverJ, 0.0);
    EXPECT_GT(result.energy.total(), 0.0);
    EXPECT_NEAR(result.energy.total(),
                result.energy.crossbarJ + result.energy.driverJ +
                    result.energy.adcJ + result.energy.neuronJ +
                    result.energy.nocJ,
                1e-18);

    // A second request bills only its own energy, not the cumulative
    // chip counters.
    const InferenceResult second = replica->run(request);
    ASSERT_TRUE(second.ok());
    EXPECT_NEAR(second.energy.total(), result.energy.total(),
                0.5 * result.energy.total());
}

TEST(EnergyAttribution, FunctionalReplicasReportZero)
{
    serving::ServableModelSpec spec;
    ASSERT_TRUE(serving::parseServableId("mlp3/ann", spec));
    spec.epochs = 0;
    spec.trainImages = 64;
    auto [net, quant] = serving::ServableLoader::global().quantized(spec);
    (void)quant;
    std::unique_ptr<ChipReplica> replica =
        makeFunctionalAnnReplicaFactory(net)(0);
    SyntheticDigits data(1, spec.imageSize, /*seed=*/3);
    InferenceRequest request;
    request.image = data.image(0);
    const InferenceResult result = replica->run(request);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result.energy.empty());
}

// ---------------------------------------------------------------------------
// Admin endpoint
// ---------------------------------------------------------------------------

/** Blocking HTTP/1.0 GET against 127.0.0.1:@p port; returns status and
 *  body (empty body + status 0 on connection failure). */
std::pair<int, std::string>
httpGet(uint16_t port, const std::string &path)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return {0, ""};
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd);
        return {0, ""};
    }
    const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
    ::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
    std::string raw;
    char buf[4096];
    ssize_t got;
    while ((got = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        raw.append(buf, static_cast<size_t>(got));
    ::close(fd);

    int status = 0;
    const size_t space = raw.find(' ');
    if (space != std::string::npos)
        status = std::atoi(raw.c_str() + space + 1);
    const size_t blank = raw.find("\r\n\r\n");
    return {status,
            blank == std::string::npos ? "" : raw.substr(blank + 4)};
}

/**
 * Minimal structural JSON validation: quotes and escapes tracked,
 * braces/brackets balanced, no trailing garbage. Not a full parser --
 * enough to catch unescaped quotes, truncation and comma damage.
 */
bool
looksLikeValidJson(const std::string &text)
{
    std::vector<char> stack;
    bool in_string = false;
    bool escaped = false;
    for (char c : text) {
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            continue;
        }
        switch (c) {
        case '"': in_string = true; break;
        case '{': stack.push_back('}'); break;
        case '[': stack.push_back(']'); break;
        case '}':
        case ']':
            if (stack.empty() || stack.back() != c)
                return false;
            stack.pop_back();
            break;
        default: break;
        }
    }
    return !in_string && stack.empty() && !text.empty();
}

TEST(AdminEndpoint, ServesDefaultsAndTypedErrors)
{
    obs::MetricsRegistry::global().counter("telemetry.test.counter").inc();
    serving::AdminServer admin;
    admin.start();
    ASSERT_GT(admin.port(), 0);

    auto [metrics_status, metrics_body] = httpGet(admin.port(), "/metrics");
    EXPECT_EQ(metrics_status, 200);
    EXPECT_NE(metrics_body.find("telemetry_test_counter"),
              std::string::npos);

    auto [statusz_status, statusz_body] = httpGet(admin.port(), "/statusz");
    EXPECT_EQ(statusz_status, 200);
    EXPECT_TRUE(looksLikeValidJson(statusz_body));

    auto [healthz_status, healthz_body] = httpGet(admin.port(), "/healthz");
    EXPECT_EQ(healthz_status, 200);
    EXPECT_EQ(healthz_body, "ok\n");

    EXPECT_EQ(httpGet(admin.port(), "/nope").first, 404);
    EXPECT_GE(admin.requestsServed(), 4u);
    admin.stop();
}

// ---------------------------------------------------------------------------
// Full serving stack: statusz under load, SLO + energy via the server
// ---------------------------------------------------------------------------

serving::RegistryConfig
fastRegistry(const std::vector<std::string> &ids, size_t capacity)
{
    serving::RegistryConfig cfg;
    for (const std::string &id : ids) {
        serving::ServableModelSpec spec;
        EXPECT_TRUE(serving::parseServableId(id, spec));
        spec.epochs = 0;
        spec.trainImages = 64;
        cfg.catalog.push_back(spec);
    }
    cfg.residentCapacity = capacity;
    cfg.workersPerModel = 1;
    cfg.engine.queueCapacity = 64;
    cfg.engine.defaultTimesteps = 6;
    return cfg;
}

TEST(ServingTelemetry, StatuszStaysValidUnderConcurrentLoad)
{
    auto registry = std::make_shared<serving::ModelRegistry>(
        fastRegistry({"mlp3/ann"}, 1));
    serving::ServerConfig cfg;
    cfg.adminEnabled = true;
    cfg.slo.targetMs = 1000.0; // generous: outcomes should be "good"
    serving::ServingServer server(cfg, registry);
    server.start();
    ASSERT_GT(server.adminPort(), 0);

    SyntheticDigits data(4, 16, /*seed=*/3);
    std::atomic<bool> stop{false};
    std::thread traffic([&] {
        serving::ServingClient client;
        ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
        // At least one request completes even when the statusz loop
        // finishes before the first swap-in does.
        int i = 0;
        do {
            const serving::WireResponse reply = client.infer(
                "tenant-load", "mlp3", serving::WireMode::Ann,
                data.image(i++ % data.size()));
            EXPECT_EQ(reply.status, serving::WireStatus::Ok);
        } while (!stop.load());
        client.close();
    });

    for (int i = 0; i < 10; ++i) {
        auto [status, body] = httpGet(server.adminPort(), "/statusz");
        ASSERT_EQ(status, 200);
        EXPECT_TRUE(looksLikeValidJson(body)) << body;
        EXPECT_NE(body.find("\"models\""), std::string::npos);
        EXPECT_NE(body.find("\"tenants\""), std::string::npos);
        EXPECT_NE(body.find("\"slo\""), std::string::npos);
    }
    stop.store(true);
    traffic.join();

    // After traffic: the SLO cell exists and energy was attributed.
    const std::string statusz = server.statuszJson();
    EXPECT_TRUE(looksLikeValidJson(statusz));
    EXPECT_NE(statusz.find("\"tenant\":\"tenant-load\""),
              std::string::npos);

    const SloSnapshot snap =
        server.slo().snapshot("tenant-load", "mlp3/ann");
    EXPECT_GT(snap.good, 0.0);
    EXPECT_DOUBLE_EQ(snap.bad, 0.0);

    const double joules = obs::MetricsRegistry::global().counterValue(
        "telemetry.tenant.energy_j", {{"tenant", "tenant-load"}});
    const double inferences = obs::MetricsRegistry::global().counterValue(
        "telemetry.tenant.inferences", {{"tenant", "tenant-load"}});
    EXPECT_GT(inferences, 0.0);
    EXPECT_GT(joules, 0.0);

    // /metrics carries both the slo gauges and the energy counters.
    auto [m_status, m_body] = httpGet(server.adminPort(), "/metrics");
    EXPECT_EQ(m_status, 200);
    EXPECT_NE(m_body.find("slo_p99_ms"), std::string::npos);
    EXPECT_NE(m_body.find("telemetry_energy_j"), std::string::npos);

    server.stop();
    registry->shutdown();
}

TEST(ServingTelemetry, ClientErrorsLandExcludedInTheSlo)
{
    auto registry = std::make_shared<serving::ModelRegistry>(
        fastRegistry({"mlp3/ann"}, 1));
    serving::ServerConfig cfg;
    serving::ServingServer server(cfg, registry);
    server.start();

    serving::ServingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    SyntheticDigits data(1, 16, /*seed=*/3);
    const serving::WireResponse reply = client.infer(
        "tenant-x", "nosuch", serving::WireMode::Ann, data.image(0));
    EXPECT_EQ(reply.status, serving::WireStatus::UnknownModel);
    client.close();

    const SloSnapshot snap =
        server.slo().snapshot("tenant-x", "nosuch/ann");
    EXPECT_DOUBLE_EQ(snap.excluded, 1.0);
    EXPECT_DOUBLE_EQ(snap.bad, 0.0);
    EXPECT_FALSE(snap.budgetExhausted());

    server.stop();
    registry->shutdown();
}

/** True if a /metrics sample of family @p family carries
 *  `tenant="<tenant>"`. */
bool
promFamilyHasTenant(const std::string &text, const std::string &family,
                    const std::string &tenant)
{
    const std::string label = "tenant=\"" + tenant + "\"";
    size_t pos = 0;
    while (pos < text.size()) {
        size_t end = text.find('\n', pos);
        if (end == std::string::npos)
            end = text.size();
        const std::string line = text.substr(pos, end - pos);
        pos = end + 1;
        if (line.rfind(family, 0) == 0 &&
            line.find(label) != std::string::npos)
            return true;
    }
    return false;
}

TEST(ServingTelemetry, WireBillingIsExact)
{
    constexpr int kRequests = 128;
    constexpr int kPipelined = 8;
    const std::string tenant = "tenant-billing";
    const std::string refused = "tenant-billing-refused";

    auto registry = std::make_shared<serving::ModelRegistry>(
        fastRegistry({"mlp3/ann"}, 1));
    serving::ServingServer server(serving::ServerConfig{}, registry);
    server.start();

    SyntheticDigits data(16, 16, /*seed=*/5);
    serving::ServingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

    // A tenant whose every request fails validation leaves no billing
    // series behind.
    EXPECT_EQ(client
                  .infer(refused, "mlp3", serving::WireMode::Ann,
                         Tensor({1, 1, 4, 4}))
                  .status,
              serving::WireStatus::BadRequest);
    EXPECT_EQ(client
                  .infer(refused, "nosuch", serving::WireMode::Ann,
                         data.image(0))
                  .status,
              serving::WireStatus::UnknownModel);

    for (int base = 0; base < kRequests; base += kPipelined) {
        std::vector<std::future<serving::WireResponse>> replies;
        for (int i = base; i < base + kPipelined; ++i)
            replies.push_back(client.inferAsync(tenant, "mlp3",
                                                serving::WireMode::Ann,
                                                data.image(i % data.size())));
        for (auto &reply : replies)
            ASSERT_EQ(reply.get().status, serving::WireStatus::Ok);
    }
    client.close();
    server.stop();
    registry->shutdown();

    // Replay the same images, in the same order, on a fresh replica of
    // the servable the registry programmed: per-request joules depend
    // on the chip's cumulative history, so the order matters.
    serving::ServableModelSpec spec;
    ASSERT_TRUE(serving::parseServableId("mlp3/ann", spec));
    spec.epochs = 0;
    spec.trainImages = 64;
    std::unique_ptr<ChipReplica> replica =
        serving::ServableLoader::global().makeFactory(spec, {})(0);
    EnergyBreakdown sum;
    double total = 0.0;
    for (int i = 0; i < kRequests; ++i) {
        InferenceRequest request;
        request.image = data.image(i % data.size());
        const InferenceResult result = replica->run(request);
        ASSERT_TRUE(result.ok());
        sum.crossbarJ += result.energy.crossbarJ;
        sum.driverJ += result.energy.driverJ;
        sum.adcJ += result.energy.adcJ;
        sum.neuronJ += result.energy.neuronJ;
        sum.nocJ += result.energy.nocJ;
        total += result.energy.total();
    }
    ASSERT_GT(total, 0.0);

    auto &metrics = obs::MetricsRegistry::global();
    const obs::Labels cell = {{"tenant", tenant}, {"model", "mlp3/ann"}};
    const double n = kRequests;
    EXPECT_EQ(metrics.counterValue("serving.requests", {{"tenant", tenant}}),
              n);
    EXPECT_EQ(metrics.counterValue("serving.responses",
                                   {{"tenant", tenant}, {"status", "ok"}}),
              n);
    EXPECT_EQ(metrics.counterValue("telemetry.inferences", cell), n);
    EXPECT_EQ(
        metrics.counterValue("telemetry.tenant.inferences",
                             {{"tenant", tenant}}),
        n);
    const StatGroup snapshot = metrics.snapshot();
    const std::string latency =
        obs::labeledName("serving.latency_ms", {{"tenant", tenant}});
    ASSERT_TRUE(snapshot.hasHistogram(latency));
    EXPECT_EQ(snapshot.histogramAt(latency).count(),
              static_cast<uint64_t>(kRequests));

    // Joules are billed bit for bit: the counters add each request's
    // energy in response order, exactly as the replay sums it.
    const std::pair<const char *, double> components[] = {
        {"crossbar", sum.crossbarJ}, {"driver", sum.driverJ},
        {"adc", sum.adcJ},           {"neuron", sum.neuronJ},
        {"noc", sum.nocJ},
    };
    for (const auto &[component, joules] : components) {
        obs::Labels labels = cell;
        labels.emplace_back("component", component);
        EXPECT_EQ(metrics.counterValue("telemetry.energy_j", labels), joules)
            << component;
    }
    EXPECT_EQ(metrics.counterValue("telemetry.tenant.energy_j",
                                   {{"tenant", tenant}}),
              total);

    const std::string text = metrics.toPrometheus();
    EXPECT_TRUE(promFamilyHasTenant(text, "serving_requests", tenant));
    for (const char *family : {"serving_requests", "serving_responses",
                               "serving_latency_ms", "telemetry_"})
        EXPECT_FALSE(promFamilyHasTenant(text, family, refused)) << family;
}

TEST(ServingTelemetry, RequestPathResolvesNoMetricByName)
{
    constexpr int kMore = 200;
    constexpr int kPipelined = 8;
    auto &metrics = obs::MetricsRegistry::global();
    SyntheticDigits data(8, 16, /*seed=*/9);

    auto registry = std::make_shared<serving::ModelRegistry>(
        fastRegistry({"mlp3/ann"}, 1));
    serving::ServingServer server(serving::ServerConfig{}, registry);
    server.start();
    serving::ServingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    // The first request of the connection and (tenant, model) resolves
    // every handle its later requests use.
    ASSERT_EQ(client
                  .infer("tenant-handles", "mlp3", serving::WireMode::Ann,
                         data.image(0))
                  .status,
              serving::WireStatus::Ok);
    const uint64_t before_wire = metrics.lookups();
    for (int base = 0; base < kMore; base += kPipelined) {
        std::vector<std::future<serving::WireResponse>> replies;
        for (int i = base; i < base + kPipelined; ++i)
            replies.push_back(client.inferAsync(
                "tenant-handles", "mlp3", serving::WireMode::Ann,
                data.image(i % data.size())));
        for (auto &reply : replies)
            ASSERT_EQ(reply.get().status, serving::WireStatus::Ok);
    }
    EXPECT_EQ(metrics.lookups() - before_wire, 0u);
    client.close();
    server.stop();
    registry->shutdown();

    serving::ServableModelSpec spec;
    ASSERT_TRUE(serving::parseServableId("mlp3/ann", spec));
    spec.epochs = 0;
    spec.trainImages = 64;
    std::unique_ptr<ChipReplica> replica =
        serving::ServableLoader::global().makeFactory(spec, {})(0);
    InferenceRequest request;
    request.image = data.image(1);
    ASSERT_TRUE(replica->run(request).ok());
    const uint64_t before_chip = metrics.lookups();
    for (int i = 0; i < kMore; ++i) {
        request.image = data.image(i % data.size());
        ASSERT_TRUE(replica->run(request).ok());
    }
    EXPECT_EQ(metrics.lookups() - before_chip, 0u);
}

// ---------------------------------------------------------------------------
// Cross-process trace flow
// ---------------------------------------------------------------------------

TEST(TraceFlow, ClientServerWorkerSpansShareOneFlowId)
{
    // Quiesce any session a prior test / NEBULA_TRACE left behind.
    obs::TraceSession::stop();

    auto registry = std::make_shared<serving::ModelRegistry>(
        fastRegistry({"mlp3/ann"}, 1));
    serving::ServerConfig cfg;
    serving::ServingServer server(cfg, registry);
    server.start();

    obs::TraceSession::start();
    {
        serving::ServingClient client;
        ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
        SyntheticDigits data(1, 16, /*seed=*/3);
        const serving::WireResponse reply = client.infer(
            "tenant-t", "mlp3", serving::WireMode::Ann, data.image(0));
        EXPECT_EQ(reply.status, serving::WireStatus::Ok);
        client.close();
    }
    server.stop();
    registry->shutdown();
    auto session = obs::TraceSession::stop();
    ASSERT_TRUE(session);

    std::set<uint64_t> start_ids;
    std::set<uint64_t> step_ids;
    std::set<uint64_t> end_ids;
    for (const auto &track : session->tracks()) {
        for (const auto &event : track.events) {
            if (event.phase == obs::TraceEvent::Phase::FlowStart)
                start_ids.insert(event.flowId);
            else if (event.phase == obs::TraceEvent::Phase::FlowStep)
                step_ids.insert(event.flowId);
            else if (event.phase == obs::TraceEvent::Phase::FlowEnd)
                end_ids.insert(event.flowId);
        }
    }
    ASSERT_EQ(start_ids.size(), 1u) << "one traced request, one flow";
    const uint64_t flow = *start_ids.begin();
    EXPECT_NE(flow, 0u);
    EXPECT_TRUE(step_ids.count(flow))
        << "server/worker must emit a flow step under the same id";
    EXPECT_TRUE(end_ids.count(flow))
        << "client must close the flow on the response";

    // The flow ids serialize with binding-point annotations.
    const std::string json = [&] {
        const std::string path = "/tmp/nebula_telemetry_flow_test.json";
        EXPECT_TRUE(session->writeJson(path));
        std::string text;
        FILE *f = std::fopen(path.c_str(), "rb");
        if (f) {
            char buf[4096];
            size_t got;
            while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
                text.append(buf, got);
            std::fclose(f);
        }
        std::remove(path.c_str());
        return text;
    }();
    EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
    EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
}

} // namespace
} // namespace nebula
