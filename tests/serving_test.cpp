/**
 * @file
 * Tests for the serving front-end: wire-protocol round trips and
 * fail-soft decoding (truncation at every prefix length, seeded random
 * corruption, bad magic/version/length -- always a typed WireStatus,
 * never a crash or an over-read), a live server surviving raw garbage
 * and mid-frame disconnects while answering typed errors, end-to-end
 * bit-exactness of wire logits against a local replica run with the
 * same explicit seed, the LRU weight-swap scheduler's write-verify
 * accounting and millisecond-resolved swap histogram, the servable
 * cache (quantize/convert once per process, independent clones, every
 * residency programmed and answering identically, exact learning-rate
 * keys), tenant quota isolation (a greedy tenant cannot consume
 * another tenant's service), client pipelining, frames in bursts (many
 * per write, split anywhere, a settled response sent while the next
 * request runs) and server config validation. The suite runs under
 * ThreadSanitizer in CI next to runtime_test.
 *
 * Every servable here uses epochs == 0 (seeded, untrained weights):
 * the serving plumbing under test is training-agnostic and this keeps
 * the suite fast and TSan-friendly. The exceptions are the
 * learning-rate key test, which trains two tiny one-epoch prototypes,
 * and the weight-artifact tests, which train the default mlp3
 * prototype to compare an artifact hit, a key miss and every refused
 * artifact against training.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <future>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "nn/datasets.hpp"
#include "nn/models.hpp"
#include "obs/metrics.hpp"
#include "runtime/replica.hpp"
#include "runtime/request.hpp"
#include "serving/client.hpp"
#include "serving/models.hpp"
#include "serving/protocol.hpp"
#include "serving/quota.hpp"
#include "serving/registry.hpp"
#include "serving/server.hpp"
#include "serving/socket_io.hpp"

namespace nebula {
namespace serving {
namespace {

/** Fast catalog spec: no training, tiny geometry-probe path. */
ServableModelSpec
fastSpec(const std::string &id)
{
    ServableModelSpec spec;
    EXPECT_TRUE(parseServableId(id, spec));
    spec.epochs = 0;
    spec.trainImages = 64;
    return spec;
}

RegistryConfig
fastRegistry(const std::vector<std::string> &ids, size_t capacity)
{
    RegistryConfig cfg;
    for (const std::string &id : ids)
        cfg.catalog.push_back(fastSpec(id));
    cfg.residentCapacity = capacity;
    cfg.workersPerModel = 1;
    cfg.engine.queueCapacity = 64;
    cfg.engine.defaultTimesteps = 6;
    return cfg;
}

Tensor
testImage(uint64_t seed = 3)
{
    SyntheticDigits data(1, 16, seed);
    return data.image(0);
}

WireRequest
sampleRequest()
{
    WireRequest request;
    request.corrId = 0xABCDEF0123456789ull;
    request.mode = WireMode::Hybrid;
    request.timesteps = 12;
    request.deadlineNs = 5'000'000'000ull;
    request.seed = 77;
    request.tenant = "tenant-a";
    request.model = "lenet5";
    request.image = testImage();
    return request;
}

// ---------------------------------------------------------------------------
// Protocol: round trips
// ---------------------------------------------------------------------------

TEST(ServingProtocol, RequestRoundTripIsBitExact)
{
    const WireRequest request = sampleRequest();
    const std::vector<uint8_t> frame = encodeRequestFrame(request);

    FrameHeader header;
    ASSERT_EQ(decodeHeader(frame.data(), kHeaderBytes, 1 << 24, header),
              WireStatus::Ok);
    EXPECT_EQ(header.type, FrameType::Request);
    ASSERT_EQ(frame.size(), kHeaderBytes + header.bodyLen);

    WireRequest decoded;
    ASSERT_EQ(decodeRequestBody(frame.data() + kHeaderBytes, header.bodyLen,
                                decoded),
              WireStatus::Ok);
    EXPECT_EQ(decoded.corrId, request.corrId);
    EXPECT_EQ(decoded.mode, request.mode);
    EXPECT_EQ(decoded.timesteps, request.timesteps);
    EXPECT_EQ(decoded.deadlineNs, request.deadlineNs);
    EXPECT_EQ(decoded.seed, request.seed);
    EXPECT_EQ(decoded.tenant, request.tenant);
    EXPECT_EQ(decoded.model, request.model);
    ASSERT_EQ(decoded.image.shape(), request.image.shape());
    // Floats travel as raw IEEE-754 bits: bit-exact, not approximately.
    ASSERT_EQ(std::memcmp(decoded.image.data(), request.image.data(),
                          sizeof(float) *
                              static_cast<size_t>(request.image.size())),
              0);
}

TEST(ServingProtocol, ResponseRoundTripIsBitExact)
{
    WireResponse response;
    response.corrId = 99;
    response.status = WireStatus::Shed;
    response.predictedClass = 7;
    response.serverMs = 1.25;
    response.message = "queue full";
    response.logits = testImage(11);

    const std::vector<uint8_t> frame = encodeResponseFrame(response);
    FrameHeader header;
    ASSERT_EQ(decodeHeader(frame.data(), kHeaderBytes, 1 << 24, header),
              WireStatus::Ok);
    EXPECT_EQ(header.type, FrameType::Response);

    WireResponse decoded;
    ASSERT_EQ(decodeResponseBody(frame.data() + kHeaderBytes,
                                 header.bodyLen, decoded),
              WireStatus::Ok);
    EXPECT_EQ(decoded.corrId, response.corrId);
    EXPECT_EQ(decoded.status, response.status);
    EXPECT_EQ(decoded.predictedClass, response.predictedClass);
    EXPECT_EQ(decoded.serverMs, response.serverMs);
    EXPECT_EQ(decoded.message, response.message);
    ASSERT_EQ(decoded.logits.shape(), response.logits.shape());
    ASSERT_EQ(std::memcmp(decoded.logits.data(), response.logits.data(),
                          sizeof(float) *
                              static_cast<size_t>(response.logits.size())),
              0);
}

// ---------------------------------------------------------------------------
// Protocol: fail-soft decoding
// ---------------------------------------------------------------------------

TEST(ServingProtocol, TruncationAtEveryPrefixLengthIsTyped)
{
    const std::vector<uint8_t> frame = encodeRequestFrame(sampleRequest());
    FrameHeader header;
    ASSERT_EQ(decodeHeader(frame.data(), kHeaderBytes, 1 << 24, header),
              WireStatus::Ok);

    // Every proper prefix of the body must decode to a typed failure --
    // not Ok, not a crash, not an over-read.
    for (size_t len = 0; len < header.bodyLen; ++len) {
        WireRequest decoded;
        const WireStatus status =
            decodeRequestBody(frame.data() + kHeaderBytes, len, decoded);
        EXPECT_NE(status, WireStatus::Ok) << "prefix length " << len;
    }
    // Truncated headers too.
    for (size_t len = 0; len < kHeaderBytes; ++len) {
        FrameHeader h;
        EXPECT_NE(decodeHeader(frame.data(), len, 1 << 24, h),
                  WireStatus::Ok)
            << "header prefix " << len;
    }
}

TEST(ServingProtocol, SeededCorruptionFuzzNeverCrashes)
{
    const std::vector<uint8_t> clean = encodeRequestFrame(sampleRequest());

    // Deterministic xorshift so CI failures reproduce exactly.
    uint64_t state = 0x5eed5eed5eedull;
    auto next = [&state]() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };

    for (int trial = 0; trial < 2000; ++trial) {
        std::vector<uint8_t> fuzzed = clean;
        const int flips = 1 + static_cast<int>(next() % 16);
        for (int f = 0; f < flips; ++f)
            fuzzed[next() % fuzzed.size()] ^=
                static_cast<uint8_t>(1u << (next() % 8));
        // Sometimes also truncate.
        if (next() % 4 == 0)
            fuzzed.resize(next() % (fuzzed.size() + 1));

        FrameHeader header;
        if (fuzzed.size() < kHeaderBytes)
            continue; // framing layer would just keep reading
        if (decodeHeader(fuzzed.data(), kHeaderBytes, 1 << 24, header) !=
            WireStatus::Ok)
            continue; // typed header rejection -- fine
        const size_t body =
            std::min(fuzzed.size() - kHeaderBytes,
                     static_cast<size_t>(header.bodyLen));
        WireRequest decoded;
        // Must return *some* typed status without crashing; Ok is
        // acceptable (the flip may have hit payload bytes only).
        (void)decodeRequestBody(fuzzed.data() + kHeaderBytes, body,
                                decoded);
        WireResponse response;
        (void)decodeResponseBody(fuzzed.data() + kHeaderBytes, body,
                                 response);
    }
    SUCCEED();
}

TEST(ServingProtocol, HeaderValidationIsTyped)
{
    const std::vector<uint8_t> frame = encodeRequestFrame(sampleRequest());
    FrameHeader header;

    std::vector<uint8_t> bad_magic = frame;
    bad_magic[0] ^= 0xFF;
    EXPECT_EQ(decodeHeader(bad_magic.data(), kHeaderBytes, 1 << 24, header),
              WireStatus::BadFrame);

    std::vector<uint8_t> bad_version = frame;
    bad_version[4] = 99;
    EXPECT_EQ(
        decodeHeader(bad_version.data(), kHeaderBytes, 1 << 24, header),
        WireStatus::UnsupportedVersion);

    std::vector<uint8_t> bad_type = frame;
    bad_type[5] = 42;
    EXPECT_EQ(decodeHeader(bad_type.data(), kHeaderBytes, 1 << 24, header),
              WireStatus::BadFrame);

    // Oversized length prefix: typed PayloadTooLarge, never an attempt
    // to allocate/read 4 GiB.
    std::vector<uint8_t> huge = frame;
    huge[8] = huge[9] = huge[10] = huge[11] = 0xFF;
    EXPECT_EQ(decodeHeader(huge.data(), kHeaderBytes, 1 << 20, header),
              WireStatus::PayloadTooLarge);
}

TEST(ServingProtocol, OversizedTensorDimsAreRejected)
{
    // Hand-build bodies whose tensor prefix claims more than the
    // decoder's caps allow; it must fail typed rather than trusting the
    // rank/dim product.
    WireRequest decoded;
    std::vector<uint8_t> raw;
    {
        ByteWriter w(raw);
        w.u64(1);          // corrId
        w.u8(0);           // mode
        w.u32(0);          // timesteps
        w.u64(0);          // deadline
        w.u64(0);          // seed
        w.u8(1); w.u8('t');
        w.u8(1); w.u8('m');
        w.u8(kMaxTensorRank + 1); // bogus rank
    }
    EXPECT_NE(decodeRequestBody(raw.data(), raw.size(), decoded),
              WireStatus::Ok);

    raw.clear();
    {
        ByteWriter w(raw);
        w.u64(1);
        w.u8(0);
        w.u32(0);
        w.u64(0);
        w.u64(0);
        w.u8(1); w.u8('t');
        w.u8(1); w.u8('m');
        w.u8(2);                // rank 2
        w.i32(1 << 24);         // dim > kMaxTensorDim
        w.i32(4);
    }
    EXPECT_NE(decodeRequestBody(raw.data(), raw.size(), decoded),
              WireStatus::Ok);
}

// ---------------------------------------------------------------------------
// Quota
// ---------------------------------------------------------------------------

TEST(ServingQuota, TokenBucketRefillsAndCaps)
{
    TenantTable table(TenantQuota{/*ratePerSec=*/1e9, /*burst=*/1e9});
    // Unlimited default: always admits.
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(table.admit("any"));

    TenantTable capped(TenantQuota{/*ratePerSec=*/0.0, /*burst=*/3.0});
    EXPECT_TRUE(capped.admit("t"));
    EXPECT_TRUE(capped.admit("t"));
    EXPECT_TRUE(capped.admit("t"));
    EXPECT_FALSE(capped.admit("t")) << "burst of 3 must cap at 3";
    // Buckets are per-tenant: a different tenant has its own burst.
    EXPECT_TRUE(capped.admit("u"));
}

// ---------------------------------------------------------------------------
// Registry / weight-swap scheduler
// ---------------------------------------------------------------------------

TEST(ServingRegistry, LruSwapAccountsWriteVerifyCost)
{
    ModelRegistry registry(
        fastRegistry({"mlp3/ann", "mlp3/snn"}, /*capacity=*/1));

    EXPECT_EQ(registry.residentCount(), 0u);
    auto a = registry.acquire("mlp3/ann");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(registry.swapIns(), 1u);
    EXPECT_EQ(registry.evictions(), 0u);
    EXPECT_EQ(registry.residentIds(),
              std::vector<std::string>({"mlp3/ann"}));

    // Second model with capacity 1: swap-in + eviction.
    auto b = registry.acquire("mlp3/snn");
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(registry.swapIns(), 2u);
    EXPECT_EQ(registry.evictions(), 1u);
    EXPECT_EQ(registry.residentIds(),
              std::vector<std::string>({"mlp3/snn"}));

    // The evicted instance's engine is quiesced and stopped; a holder
    // that submits late gets the typed stop, not a race.
    EXPECT_TRUE(a->engine().isShutdown());
    EXPECT_FALSE(b->engine().isShutdown());

    // Alternate: every acquire is a swap now.
    registry.acquire("mlp3/ann");
    registry.acquire("mlp3/snn");
    EXPECT_EQ(registry.swapIns(), 4u);
    EXPECT_EQ(registry.evictions(), 3u);

    // Swap-ins are costed through write-verify programming.
    const ProgramReport cost = registry.totalSwapCost();
    EXPECT_GT(cost.pulses, 0u);
    EXPECT_GT(cost.programEnergy, 0.0);
    EXPECT_GT(cost.cells, 0u);

    // Unknown id: null, no crash, counters untouched.
    EXPECT_EQ(registry.acquire("vgg16/ann"), nullptr);
    EXPECT_EQ(registry.swapIns(), 4u);
    registry.shutdown();
}

TEST(ServingRegistry, AcquireTouchesLru)
{
    ModelRegistry registry(
        fastRegistry({"mlp3/ann", "mlp3/snn", "mlp3/hybrid"},
                     /*capacity=*/2));
    registry.acquire("mlp3/ann");
    registry.acquire("mlp3/snn");
    // Touch ann so snn becomes LRU; the third model must evict snn.
    registry.acquire("mlp3/ann");
    registry.acquire("mlp3/hybrid");
    const std::vector<std::string> resident = registry.residentIds();
    ASSERT_EQ(resident.size(), 2u);
    EXPECT_EQ(resident[0], "mlp3/hybrid");
    EXPECT_EQ(resident[1], "mlp3/ann");
    registry.shutdown();
}

TEST(ServingRegistry, SwapHistogramResolvesMillisecondSwaps)
{
    // One real swap registers serving.swap.ms with the registry's shape;
    // reset() zeroes the samples but keeps that shape.
    {
        ModelRegistry registry(fastRegistry({"mlp3/ann"}, /*capacity=*/1));
        ASSERT_NE(registry.acquire("mlp3/ann"), nullptr);
        registry.shutdown();
    }
    auto &metrics = obs::MetricsRegistry::global();
    metrics.reset();
    for (double ms : {1.0, 1.0, 1.0, 12.0, 12.0})
        metrics.observe("serving.swap.ms", ms);

    const Histogram swaps =
        metrics.snapshot().histogramAt("serving.swap.ms");
    ASSERT_EQ(swaps.count(), 5u);
    EXPECT_DOUBLE_EQ(swaps.max(), 12.0);
    // A bucket wider than the swaps themselves would put all five in
    // bucket 0 and report p50 as the slowest swap.
    EXPECT_LT(swaps.p50(), swaps.max());
    EXPECT_LT(swaps.p50(), 2.0);
}

// ---------------------------------------------------------------------------
// Servable cache: quantize and convert once, program on every swap-in
// ---------------------------------------------------------------------------

bool
bitEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       sizeof(float) * static_cast<size_t>(a.size())) == 0;
}

/** Every parameter tensor of @p a bit-equal to the same one of @p b. */
bool
sameParameters(Network &a, Network &b)
{
    const std::vector<Tensor *> pa = a.parameters();
    const std::vector<Tensor *> pb = b.parameters();
    if (pa.size() != pb.size())
        return false;
    for (size_t i = 0; i < pa.size(); ++i)
        if (!bitEqual(*pa[i], *pb[i]))
            return false;
    return true;
}

bool
sameQuantization(const QuantizationResult &a, const QuantizationResult &b)
{
    if (a.layers.size() != b.layers.size())
        return false;
    for (size_t i = 0; i < a.layers.size(); ++i) {
        const LayerQuantInfo &x = a.layers[i];
        const LayerQuantInfo &y = b.layers[i];
        if (x.layerIndex != y.layerIndex || x.weightMax != y.weightMax ||
            x.actCeiling != y.actCeiling ||
            x.weightLevels != y.weightLevels || x.actLevels != y.actLevels)
            return false;
    }
    return true;
}

TEST(ServingRegistry, EveryResidencyProgramsAndAnswersIdentically)
{
    ModelRegistry registry(
        fastRegistry({"mlp3/ann", "mlp3/snn"}, /*capacity=*/1));
    InferenceRequest request;
    request.image = testImage(9);
    request.timesteps = 6;
    request.seed = 4242;

    std::map<std::string, std::vector<ProgramReport>> reports;
    std::map<std::string, std::vector<Tensor>> logits;
    for (int residency = 0; residency < 3; ++residency)
        for (const std::string id : {"mlp3/ann", "mlp3/snn"}) {
            auto instance = registry.acquire(id);
            ASSERT_NE(instance, nullptr);
            reports[id].push_back(instance->swapCost());
            const InferenceResult result =
                instance->engine().submit(request).get();
            ASSERT_TRUE(result.ok());
            logits[id].push_back(result.logits);
        }
    EXPECT_EQ(registry.swapIns(), 6u);

    // Every swap-in re-programs under write-verify at full cost, and the
    // replicas it programs answer bit-identically.
    for (const auto &[id, costs] : reports) {
        EXPECT_GT(costs.front().pulses, 0) << id;
        for (size_t k = 1; k < costs.size(); ++k) {
            EXPECT_EQ(costs[k].pulses, costs.front().pulses) << id;
            EXPECT_EQ(costs[k].cells, costs.front().cells) << id;
            EXPECT_EQ(costs[k].failedCells, costs.front().failedCells)
                << id;
            EXPECT_EQ(costs[k].programEnergy, costs.front().programEnergy)
                << id;
            EXPECT_TRUE(bitEqual(logits[id][k], logits[id].front()))
                << id << " residency " << k;
        }
    }
    registry.shutdown();
}

TEST(ServableLoader, HandsOutIndependentClones)
{
    auto &loader = ServableLoader::global();
    ServableModelSpec spec = fastSpec("mlp3/ann");
    spec.seed = 101; // a prototype no other test shares

    QuantizedServable mutated = loader.quantized(spec);
    QuantizedServable pristine{mutated.net.clone(), mutated.quant};
    for (Tensor *p : mutated.net.parameters())
        p->fill(7.0f);
    ASSERT_FALSE(mutated.quant.layers.empty());
    mutated.quant.layers.front().weightMax = -1.0f;

    QuantizedServable next = loader.quantized(spec);
    EXPECT_TRUE(sameParameters(next.net, pristine.net));
    EXPECT_TRUE(sameQuantization(next.quant, pristine.quant));
    EXPECT_FALSE(sameParameters(next.net, mutated.net));

    SpikingModel spiking = loader.spiking(spec);
    SpikingModel spikingPristine = spiking.clone();
    for (Tensor *p : spiking.net.parameters())
        p->fill(7.0f);
    ASSERT_FALSE(spiking.lambdas.empty());
    spiking.lambdas.front() = -1.0f;

    SpikingModel spikingNext = loader.spiking(spec);
    EXPECT_TRUE(sameParameters(spikingNext.net, spikingPristine.net));
    EXPECT_EQ(spikingNext.lambdas, spikingPristine.lambdas);
    EXPECT_EQ(spikingNext.ifLayerIndices, spikingPristine.ifLayerIndices);
}

TEST(ServableLoader, ConcurrentFirstUseGivesIdenticalProducts)
{
    auto &loader = ServableLoader::global();
    ServableModelSpec spec = fastSpec("lenet5/ann");
    spec.seed = 202; // fresh key: both threads race the first build

    std::atomic<bool> go{false};
    auto build = [&] {
        while (!go.load())
            std::this_thread::yield();
        QuantizedServable q = loader.quantized(spec);
        SpikingModel s = loader.spiking(spec);
        return std::make_pair(std::move(q), std::move(s));
    };
    auto first = std::async(std::launch::async, build);
    auto second = std::async(std::launch::async, build);
    go = true;
    auto a = first.get();
    auto b = second.get();

    EXPECT_TRUE(sameParameters(a.first.net, b.first.net));
    EXPECT_TRUE(sameQuantization(a.first.quant, b.first.quant));
    EXPECT_TRUE(sameParameters(a.second.net, b.second.net));
    EXPECT_EQ(a.second.lambdas, b.second.lambdas);
}

TEST(ServableLoader, LearningRateIsKeyedExactly)
{
    auto &loader = ServableLoader::global();
    ServableModelSpec coarse = fastSpec("mlp3/ann");
    coarse.epochs = 1;
    coarse.seed = 303;
    ServableModelSpec fine = coarse;
    fine.learningRate = 0.08000001; // prints as 0.08 at 6 digits

    Network a = loader.trainedNetwork(coarse);
    Network b = loader.trainedNetwork(fine);
    EXPECT_FALSE(sameParameters(a, b))
        << "specs differing past the 6th digit shared one prototype";
}

/** The default mlp3 prototype: the spec its shipped artifact is keyed by. */
ServableModelSpec
shippedMlp3()
{
    ServableModelSpec spec;
    EXPECT_TRUE(parseServableId("mlp3/ann", spec));
    return spec;
}

/** The first 64 images of @p spec's training set. */
Tensor
trainingSetPrefix(const ServableModelSpec &spec)
{
    return SyntheticDigits(spec.trainImages, spec.imageSize, 1)
        .firstImages(64);
}

double
loaderCount(const char *name)
{
    return obs::MetricsRegistry::global().counterValue(
        std::string("serving.loader.") + name);
}

TEST(ServableLoader, ArtifactHitMatchesTraining)
{
    const ServableModelSpec spec = shippedMlp3();
    const ArtifactView artifact = findArtifact(trainingKey(spec));
    ASSERT_NE(artifact.data, nullptr) << "no artifact for the default mlp3";

    ArtifactStatus status = ArtifactStatus::Missing;
    Network loaded = servablePrototype(spec, artifact, status);
    EXPECT_EQ(status, ArtifactStatus::Loaded);
    Network trained = trainServable(spec);
    EXPECT_EQ(loaded.save(), trained.save());

    ServableLoader loader; // empty cache: this lookup is a miss
    const double loads = loaderCount("artifact_loads");
    const double trainings = loaderCount("trained");
    Network served = loader.trainedNetwork(spec);
    EXPECT_EQ(served.save(), trained.save());
    EXPECT_EQ(loaderCount("artifact_loads"), loads + 1);
    EXPECT_EQ(loaderCount("trained"), trainings);
    // A loaded prototype calibrates on the batch training would have.
    EXPECT_TRUE(bitEqual(loader.calibration(spec), trainingSetPrefix(spec)));
}

TEST(ServableLoader, OneTrainingFieldOffTrains)
{
    ServableModelSpec spec = shippedMlp3();
    spec.learningRate = 0.08000001; // prints as 0.08 at 6 digits
    EXPECT_EQ(findArtifact(trainingKey(spec)).data, nullptr);

    ServableLoader loader;
    const double loads = loaderCount("artifact_loads");
    const double trainings = loaderCount("trained");
    const double rejects = loaderCount("artifact_rejects");
    Network served = loader.trainedNetwork(spec);
    EXPECT_EQ(loaderCount("trained"), trainings + 1);
    EXPECT_EQ(loaderCount("artifact_loads"), loads);
    EXPECT_EQ(loaderCount("artifact_rejects"), rejects);

    Network trained = trainServable(spec);
    EXPECT_EQ(served.save(), trained.save());
    EXPECT_NE(served.save(), loader.trainedNetwork(shippedMlp3()).save());
    EXPECT_TRUE(bitEqual(loader.calibration(spec), trainingSetPrefix(spec)));
}

TEST(ServableLoader, HitReturnsWhileAnotherSpecBuilds)
{
    // The build of `slow` parks inside the loader until the main
    // thread's hit on the already cached default mlp3 has returned. A
    // loader that builds under its lookup lock never lets that hit
    // through, so the park runs into its deadlock guard and the test
    // fails; the guard is no timing margin a correct loader relies on.
    ServableModelSpec slow = shippedMlp3();
    slow.seed = 404;
    slow.epochs = 0; // seeded weights: no artifact, a quick build
    std::promise<void> entered;
    std::promise<void> hit_done;
    std::shared_future<void> released = hit_done.get_future().share();
    std::atomic<bool> released_before_guard{false};
    ServableLoader loader(
        [&](const ServableModelSpec &spec, ArtifactStatus &status) {
            if (spec.seed == slow.seed) {
                entered.set_value();
                released_before_guard =
                    released.wait_for(std::chrono::seconds(30)) ==
                    std::future_status::ready;
            }
            return servablePrototype(spec, findArtifact(trainingKey(spec)),
                                     status);
        });

    const ServableModelSpec hit_spec = shippedMlp3();
    const Tensor first = loader.calibration(hit_spec); // now cached
    std::future<void> building = entered.get_future();
    auto builder = std::async(std::launch::async,
                              [&] { return loader.trainedNetwork(slow); });
    building.wait();
    const Tensor hit = loader.calibration(hit_spec);
    hit_done.set_value();
    Network built = builder.get();

    EXPECT_TRUE(released_before_guard)
        << "a cache hit waited for another spec's build";
    EXPECT_TRUE(bitEqual(hit, first));
    EXPECT_EQ(built.save(), trainServable(slow).save());
}

TEST(ServableLoader, RefusedArtifactsAreTypedAndTrain)
{
    const ServableModelSpec spec = shippedMlp3();
    const std::string key = trainingKey(spec);
    const ArtifactView artifact = findArtifact(key);
    ASSERT_NE(artifact.data, nullptr);
    const std::vector<uint8_t> good(artifact.data,
                                    artifact.data + artifact.size);

    std::vector<uint8_t> flipped = good;
    flipped.back() ^= 0x01; // one payload bit
    std::vector<uint8_t> truncated(good.begin(), good.end() - 1);
    std::vector<uint8_t> bad_magic = good;
    bad_magic.front() ^= 0xff;
    std::vector<uint8_t> renamed = good;
    renamed[8] ^= 0x20; // first key byte: "mlp3 ..." -> "Mlp3 ..."

    // What training gives: ArtifactHitMatchesTraining pins that the
    // intact artifact holds exactly these weights.
    ArtifactStatus status = ArtifactStatus::Missing;
    const std::vector<uint8_t> trained =
        servablePrototype(spec, artifact, status).save();
    ASSERT_EQ(status, ArtifactStatus::Loaded);

    struct Case
    {
        const char *name;
        const std::vector<uint8_t> &bytes;
        ArtifactStatus expected;
    };
    const Case cases[] = {
        {"flipped payload byte", flipped, ArtifactStatus::DigestMismatch},
        {"truncated tail", truncated, ArtifactStatus::LengthMismatch},
        {"bad magic", bad_magic, ArtifactStatus::BadHeader},
        {"renamed header key", renamed, ArtifactStatus::KeyMismatch},
    };
    Network seeded = buildMlp3(spec.imageSize, 1, spec.classes, spec.seed);
    const std::vector<uint8_t> untouched = seeded.save();
    for (const Case &c : cases) {
        const ArtifactView view{c.bytes.data(), c.bytes.size()};
        EXPECT_EQ(loadArtifact(view, key, seeded), c.expected) << c.name;
        EXPECT_EQ(seeded.save(), untouched) << c.name << " touched the net";

        Network fallback = servablePrototype(spec, view, status);
        EXPECT_EQ(status, c.expected) << c.name;
        EXPECT_EQ(fallback.save(), trained)
            << c.name << " did not fall back to training";
    }

    // The intact artifact offered under another spec's key.
    ServableModelSpec other = spec;
    other.learningRate = 0.08000001;
    EXPECT_EQ(loadArtifact(artifact, trainingKey(other), seeded),
              ArtifactStatus::KeyMismatch);

    // A payload that verifies but does not fit the topology.
    Network lenet = buildLenet5(spec.imageSize, 1, spec.classes, spec.seed);
    EXPECT_EQ(loadArtifact(artifact, key, lenet),
              ArtifactStatus::LayoutMismatch);
    EXPECT_EQ(loadArtifact({}, key, lenet), ArtifactStatus::Missing);
}

// ---------------------------------------------------------------------------
// Engine accessors (satellite)
// ---------------------------------------------------------------------------

TEST(ServingEngine, InflightTracksSubmittedMinusCompleted)
{
    auto &loader = ServableLoader::global();
    const ServableModelSpec spec = fastSpec("mlp3/ann");
    EngineConfig cfg;
    cfg.numWorkers = 0; // inline: deterministic counter behaviour
    InferenceEngine engine(cfg, loader.makeFactory(spec));
    EXPECT_EQ(engine.inflight(), 0u);
    auto future = engine.submit(testImage());
    future.get();
    EXPECT_EQ(engine.inflight(), 0u);
    EXPECT_EQ(engine.submitted(), 1u);
    EXPECT_EQ(engine.completed(), 1u);
    EXPECT_EQ(engine.queueDepth(), 0u);
    engine.shutdown();
}

// ---------------------------------------------------------------------------
// Live server: robustness + end-to-end
// ---------------------------------------------------------------------------

class ServingServerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        auto cfg = fastRegistry({"mlp3/ann", "mlp3/snn"}, /*capacity=*/2);
        registry_ = std::make_shared<ModelRegistry>(cfg);
        ServerConfig server_cfg;
        server_cfg.port = 0;
        server_cfg.tenantQuotas["greedy"] =
            TenantQuota{/*ratePerSec=*/0.0, /*burst=*/2.0};
        server_ = std::make_unique<ServingServer>(server_cfg, registry_);
        server_->start();
    }

    void
    TearDown() override
    {
        server_->stop();
        registry_->shutdown();
    }

    /** Raw loopback socket to the server (for malformed traffic). */
    int
    rawConnect()
    {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(server_->port());
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
        return fd;
    }

    /** Read one full response frame off a raw socket. */
    bool
    rawReadResponse(int fd, WireResponse &out)
    {
        uint8_t raw_header[kHeaderBytes];
        size_t got = 0;
        while (got < sizeof(raw_header)) {
            const ssize_t n =
                ::recv(fd, raw_header + got, sizeof(raw_header) - got, 0);
            if (n <= 0)
                return false;
            got += static_cast<size_t>(n);
        }
        FrameHeader header;
        if (decodeHeader(raw_header, sizeof(raw_header), 1 << 24,
                         header) != WireStatus::Ok)
            return false;
        std::vector<uint8_t> body(header.bodyLen);
        got = 0;
        while (got < body.size()) {
            const ssize_t n =
                ::recv(fd, body.data() + got, body.size() - got, 0);
            if (n <= 0)
                return false;
            got += static_cast<size_t>(n);
        }
        return decodeResponseBody(body.data(), body.size(), out) ==
               WireStatus::Ok;
    }

    std::shared_ptr<ModelRegistry> registry_;
    std::unique_ptr<ServingServer> server_;
};

TEST_F(ServingServerTest, GarbageGetsTypedErrorThenNextConnectionWorks)
{
    // Raw garbage that cannot be a valid header.
    {
        const int fd = rawConnect();
        const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
        ASSERT_GT(::send(fd, garbage, sizeof(garbage) - 1, MSG_NOSIGNAL),
                  0);
        WireResponse response;
        ASSERT_TRUE(rawReadResponse(fd, response))
            << "server must answer a typed error before closing";
        EXPECT_EQ(response.status, WireStatus::BadFrame);
        // Stream closes after an unsyncable framing error.
        char byte;
        EXPECT_LE(::recv(fd, &byte, 1, 0), 0);
        ::close(fd);
    }

    // Oversized length prefix: typed PayloadTooLarge.
    {
        const int fd = rawConnect();
        std::vector<uint8_t> frame;
        ByteWriter w(frame);
        w.u32(kWireMagic);
        w.u8(kWireVersion);
        w.u8(static_cast<uint8_t>(FrameType::Request));
        w.u16(0);
        w.u32(0xFFFFFFFFu);
        ASSERT_GT(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL), 0);
        WireResponse response;
        ASSERT_TRUE(rawReadResponse(fd, response));
        EXPECT_EQ(response.status, WireStatus::PayloadTooLarge);
        ::close(fd);
    }

    // The server survived both: a clean client still gets served.
    ServingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
    const WireResponse reply =
        client.infer("tenant-x", "mlp3", WireMode::Ann, testImage());
    EXPECT_EQ(reply.status, WireStatus::Ok);
    EXPECT_GE(reply.predictedClass, 0);
}

TEST_F(ServingServerTest, MidFrameDisconnectIsTolerated)
{
    // Send a valid header promising a body, then vanish mid-frame.
    const int fd = rawConnect();
    WireRequest request = sampleRequest();
    request.model = "mlp3";
    const std::vector<uint8_t> frame = encodeRequestFrame(request);
    ASSERT_GT(::send(fd, frame.data(), frame.size() / 2, MSG_NOSIGNAL), 0);
    ::close(fd);

    // And a torn header too.
    const int fd2 = rawConnect();
    ASSERT_GT(::send(fd2, frame.data(), 3, MSG_NOSIGNAL), 0);
    ::close(fd2);

    // Server is unharmed.
    ServingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
    EXPECT_EQ(client.infer("tenant-x", "mlp3", WireMode::Ann, testImage())
                  .status,
              WireStatus::Ok);
}

TEST_F(ServingServerTest, UnknownModelAndBadModeAreTyped)
{
    ServingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
    EXPECT_EQ(client.infer("t", "vgg16", WireMode::Ann, testImage()).status,
              WireStatus::UnknownModel);
    // Known family, mode not in catalog (only ann/snn are).
    EXPECT_EQ(
        client.infer("t", "mlp3", WireMode::Hybrid, testImage()).status,
        WireStatus::UnknownModel);
    // Wrong input shape: typed BadRequest, stream stays usable.
    EXPECT_EQ(client
                  .infer("t", "mlp3", WireMode::Ann,
                         Tensor({1, 4, 4}))
                  .status,
              WireStatus::BadRequest);
    EXPECT_EQ(client.infer("t", "mlp3", WireMode::Ann, testImage()).status,
              WireStatus::Ok);
}

TEST_F(ServingServerTest, WireLogitsBitExactAgainstLocalReplica)
{
    const uint64_t seed = 12345;
    const int timesteps = 6;
    const Tensor image = testImage(21);

    // Wire run: explicit seed, SNN mode (seed-sensitive path).
    ServingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
    ServeOptions options;
    options.timesteps = timesteps;
    options.seed = seed;
    const WireResponse reply =
        client.infer("tenant-x", "mlp3", WireMode::Snn, image, options);
    ASSERT_EQ(reply.status, WireStatus::Ok);

    // Local reference: same spec, same reliability scenario (the
    // registry programs under defaultSwapAccounting), same seed.
    const ServableModelSpec spec = fastSpec("mlp3/snn");
    auto factory = ServableLoader::global().makeFactory(
        spec, defaultSwapAccounting());
    auto replica = factory(0);
    InferenceRequest request;
    request.image = image;
    request.timesteps = timesteps;
    request.seed = seed;
    const InferenceResult local = replica->run(request);

    ASSERT_TRUE(local.ok());
    EXPECT_EQ(reply.predictedClass, local.predictedClass);
    ASSERT_EQ(reply.logits.shape(), local.logits.shape());
    ASSERT_EQ(std::memcmp(reply.logits.data(), local.logits.data(),
                          sizeof(float) *
                              static_cast<size_t>(local.logits.size())),
              0)
        << "wire round trip must preserve raw float bits";
}

TEST_F(ServingServerTest, GreedyTenantCannotStarveAnother)
{
    // "greedy" has a burst-2, zero-refill quota; "polite" runs on the
    // unlimited default. Outcome-based (no timing): greedy gets exactly
    // its burst served, every other greedy request resolves
    // QuotaExceeded, and polite's requests all succeed.
    ServingClient greedy;
    ServingClient polite;
    ASSERT_TRUE(greedy.connect("127.0.0.1", server_->port()));
    ASSERT_TRUE(polite.connect("127.0.0.1", server_->port()));

    const int n = 12;
    std::vector<std::future<WireResponse>> greedy_futures;
    std::vector<std::future<WireResponse>> polite_futures;
    for (int i = 0; i < n; ++i)
        greedy_futures.push_back(greedy.inferAsync(
            "greedy", "mlp3", WireMode::Ann, testImage()));
    for (int i = 0; i < n; ++i)
        polite_futures.push_back(polite.inferAsync(
            "polite", "mlp3", WireMode::Ann, testImage()));

    int greedy_ok = 0, greedy_quota = 0;
    for (auto &f : greedy_futures) {
        const WireResponse r = f.get();
        if (r.status == WireStatus::Ok)
            ++greedy_ok;
        else if (r.status == WireStatus::QuotaExceeded)
            ++greedy_quota;
        else
            FAIL() << "unexpected greedy status " << toString(r.status);
    }
    EXPECT_EQ(greedy_ok, 2) << "burst of 2, zero refill";
    EXPECT_EQ(greedy_quota, n - 2);

    for (auto &f : polite_futures)
        EXPECT_EQ(f.get().status, WireStatus::Ok)
            << "polite tenant must be untouched by greedy's pressure";
}

TEST_F(ServingServerTest, PipelinedRequestsAllResolveInOrder)
{
    ServingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
    const int n = 16;
    std::vector<std::future<WireResponse>> futures;
    for (int i = 0; i < n; ++i)
        futures.push_back(client.inferAsync(
            "tenant-x", i % 2 == 0 ? "mlp3" : "mlp3",
            i % 2 == 0 ? WireMode::Ann : WireMode::Snn, testImage(i)));
    for (auto &f : futures) {
        const WireResponse r = f.get();
        EXPECT_EQ(r.status, WireStatus::Ok);
        EXPECT_GE(r.predictedClass, 0);
    }
    // Determinism: identical request (explicit seed) twice -> identical
    // logits, pipelined or not.
    ServeOptions options;
    options.seed = 5;
    options.timesteps = 6;
    const WireResponse a =
        client.infer("tenant-x", "mlp3", WireMode::Snn, testImage(), options);
    const WireResponse b =
        client.infer("tenant-x", "mlp3", WireMode::Snn, testImage(), options);
    ASSERT_EQ(a.status, WireStatus::Ok);
    ASSERT_EQ(b.status, WireStatus::Ok);
    ASSERT_EQ(a.logits.shape(), b.logits.shape());
    EXPECT_EQ(std::memcmp(a.logits.data(), b.logits.data(),
                          sizeof(float) *
                              static_cast<size_t>(a.logits.size())),
              0);
}

// ---------------------------------------------------------------------------
// Frames in bursts: buffered reads, coalesced writes
// ---------------------------------------------------------------------------

/** An mlp3 request frame on @p model/@p mode for corr id @p corr_id. */
WireRequest
burstRequest(uint64_t corr_id, const std::string &model = "mlp3",
             WireMode mode = WireMode::Ann)
{
    WireRequest request;
    request.corrId = corr_id;
    request.mode = mode;
    request.seed = 1000 + corr_id;
    request.tenant = "tenant-burst";
    request.model = model;
    request.image = testImage(corr_id);
    return request;
}

bool
sendAll(int fd, const std::vector<uint8_t> &bytes)
{
    return ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
}

TEST_F(ServingServerTest, BurstInOneWriteIsAnsweredInOrder)
{
    // Seven request frames in a single write; the middle one names a
    // model outside the catalog but is well framed, so it is answered
    // typed and the frames behind it are still served.
    const int n = 7;
    std::vector<uint8_t> burst;
    for (int i = 0; i < n; ++i)
        appendRequestFrame(burst, burstRequest(static_cast<uint64_t>(i + 1),
                                               i == n / 2 ? "vgg16"
                                                          : "mlp3"));
    const int fd = rawConnect();
    ASSERT_TRUE(sendAll(fd, burst));

    ServingClient solo;
    ASSERT_TRUE(solo.connect("127.0.0.1", server_->port()));
    for (int i = 0; i < n; ++i) {
        WireResponse response;
        ASSERT_TRUE(rawReadResponse(fd, response)) << "frame " << i;
        EXPECT_EQ(response.corrId, static_cast<uint64_t>(i + 1));
        if (i == n / 2) {
            EXPECT_EQ(response.status, WireStatus::UnknownModel);
            continue;
        }
        ASSERT_EQ(response.status, WireStatus::Ok) << "frame " << i;
        const WireRequest request = burstRequest(static_cast<uint64_t>(i + 1));
        ServeOptions options;
        options.seed = request.seed;
        const WireResponse alone =
            solo.infer(request.tenant, request.model, request.mode,
                       request.image, options);
        ASSERT_EQ(alone.status, WireStatus::Ok);
        EXPECT_TRUE(bitEqual(response.logits, alone.logits)) << "frame " << i;
    }
    ::close(fd);
}

TEST_F(ServingServerTest, TrailingBadHeaderIsAnsweredAfterEarlierFrames)
{
    std::vector<uint8_t> burst;
    for (uint64_t id = 1; id <= 3; ++id)
        appendRequestFrame(burst, burstRequest(id));
    const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
    burst.insert(burst.end(), garbage, garbage + sizeof(garbage) - 1);
    const int fd = rawConnect();
    ASSERT_TRUE(sendAll(fd, burst));

    for (uint64_t id = 1; id <= 3; ++id) {
        WireResponse response;
        ASSERT_TRUE(rawReadResponse(fd, response)) << "frame " << id;
        EXPECT_EQ(response.corrId, id);
        EXPECT_EQ(response.status, WireStatus::Ok);
    }
    WireResponse rejected;
    ASSERT_TRUE(rawReadResponse(fd, rejected));
    EXPECT_EQ(rejected.status, WireStatus::BadFrame);
    char byte;
    EXPECT_LE(::recv(fd, &byte, 1, 0), 0) << "stream must close";
    ::close(fd);
}

TEST_F(ServingServerTest, FrameWrittenAByteAtATimeIsServed)
{
    const int fd = rawConnect();
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const std::vector<uint8_t> frame = encodeRequestFrame(burstRequest(9));
    for (const uint8_t byte : frame)
        ASSERT_EQ(::send(fd, &byte, 1, MSG_NOSIGNAL), 1);
    WireResponse response;
    ASSERT_TRUE(rawReadResponse(fd, response));
    EXPECT_EQ(response.corrId, 9u);
    EXPECT_EQ(response.status, WireStatus::Ok);
    ::close(fd);
}

TEST_F(ServingServerTest, PayloadTooLargeIsDecidedFromTheHeader)
{
    // A body cap far below an mlp3 request, and a header whose length
    // prefix is only just above it: the verdict comes from the header
    // alone, though no body byte is ever sent.
    ServerConfig config;
    config.maxBodyBytes = 64;
    ServingServer small(config, registry_);
    small.start();
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(small.port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)),
              0);
    std::vector<uint8_t> header;
    ByteWriter w(header);
    w.u32(kWireMagic);
    w.u8(kWireVersion);
    w.u8(static_cast<uint8_t>(FrameType::Request));
    w.u16(0);
    w.u32(65);
    ASSERT_TRUE(sendAll(fd, header));

    WireResponse response;
    ASSERT_TRUE(rawReadResponse(fd, response));
    EXPECT_EQ(response.status, WireStatus::PayloadTooLarge);
    char byte;
    EXPECT_LE(::recv(fd, &byte, 1, 0), 0) << "stream must close";
    ::close(fd);
    small.stop();
}

TEST_F(ServingServerTest, WrongFrameTypeIsRejectedFromTheHeader)
{
    // A response header promising a body that never comes: the type is
    // wrong, so the server answers from the header without waiting.
    const int fd = rawConnect();
    std::vector<uint8_t> frame = encodeRequestFrame(burstRequest(3));
    frame[5] = static_cast<uint8_t>(FrameType::Response);
    frame.resize(kHeaderBytes);
    ASSERT_TRUE(sendAll(fd, frame));

    WireResponse response;
    ASSERT_TRUE(rawReadResponse(fd, response));
    EXPECT_EQ(response.status, WireStatus::BadFrame);
    char byte;
    EXPECT_LE(::recv(fd, &byte, 1, 0), 0) << "stream must close";
    ::close(fd);
}

TEST_F(ServingServerTest, ResponseStreamIsTheConcatenatedFrames)
{
    // Pipelined requests, then the raw reply bytes: they must be exactly
    // the response frames back to back in request order -- coalescing
    // changes how many sends carry them, never a byte.
    const int n = 12;
    const int fd = rawConnect();
    for (int i = 0; i < n; ++i)
        ASSERT_TRUE(sendAll(
            fd, encodeRequestFrame(burstRequest(
                    static_cast<uint64_t>(i + 1), "mlp3",
                    i % 3 == 2 ? WireMode::Snn : WireMode::Ann))));

    std::vector<uint8_t> raw;
    std::vector<uint8_t> expected;
    StreamBuffer in;
    Frame frame;
    for (int i = 0; i < n; ++i) {
        ASSERT_EQ(readFrame(fd, in, 1 << 24, FrameType::Response, frame),
                  WireStatus::Ok);
        raw.insert(raw.end(), in.data(), in.data() + frame.bytes);
        WireResponse response;
        ASSERT_EQ(decodeResponseBody(frame.body, frame.header.bodyLen,
                                     response),
                  WireStatus::Ok);
        response.integrity = frame.header.integrity;
        in.consume(frame.bytes);
        EXPECT_EQ(response.corrId, static_cast<uint64_t>(i + 1));
        EXPECT_EQ(response.status, WireStatus::Ok);
        appendResponseFrame(expected, response);
    }
    EXPECT_EQ(in.size(), 0u) << "bytes beyond the last response";
    EXPECT_EQ(raw, expected);
    ::close(fd);
}

TEST_F(ServingServerTest, ResponseIsSentWhileTheNextRequestRuns)
{
    // Two SNN requests on the one-worker mlp3/snn engine: a short one,
    // then one held back by a long evidence window. The model is
    // resident first, so the reader queues both long before the first
    // settles. The first response must arrive while the second still
    // runs: a writer never holds a settled response for a later one.
    auto snn = registry_->acquire("mlp3/snn");
    ASSERT_NE(snn, nullptr);
    const int fd = rawConnect();
    std::vector<uint8_t> pair;
    WireRequest quick = burstRequest(1, "mlp3", WireMode::Snn);
    quick.timesteps = 2000;
    appendRequestFrame(pair, quick);
    WireRequest slow = burstRequest(2, "mlp3", WireMode::Snn);
    slow.timesteps = 50000;
    appendRequestFrame(pair, slow);
    ASSERT_TRUE(sendAll(fd, pair));

    WireResponse first;
    ASSERT_TRUE(rawReadResponse(fd, first));
    EXPECT_EQ(first.corrId, 1u);
    EXPECT_EQ(first.status, WireStatus::Ok);
    EXPECT_LT(snn->engine().completed(), 2u)
        << "the held request settled before the first response was read";

    WireResponse second;
    ASSERT_TRUE(rawReadResponse(fd, second));
    EXPECT_EQ(second.corrId, 2u);
    EXPECT_EQ(second.status, WireStatus::Ok);
    ::close(fd);
}

/**
 * A scripted peer for the client: accepts one connection, reads @p n
 * request frames, and answers each with logits equal to its image, in
 * whatever write pattern @p writes cuts the concatenated responses into.
 */
void
fakeServer(int listen_fd, int n,
           const std::function<std::vector<size_t>(size_t)> &writes)
{
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(fd, 0);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    StreamBuffer in;
    Frame frame;
    std::vector<uint8_t> out;
    for (int i = 0; i < n; ++i) {
        ASSERT_EQ(readFrame(fd, in, 1 << 24, FrameType::Request, frame),
                  WireStatus::Ok);
        WireRequest request;
        ASSERT_EQ(decodeRequestBody(frame.body, frame.header.bodyLen,
                                    request),
                  WireStatus::Ok);
        in.consume(frame.bytes);
        WireResponse response;
        response.corrId = request.corrId;
        response.predictedClass = i;
        response.logits = request.image;
        appendResponseFrame(out, response);
    }
    size_t at = 0;
    for (const size_t cut : writes(out.size())) {
        ASSERT_TRUE(
            writeFully(fd, out.data() + at, cut - at));
        at = cut;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(at, out.size());
    char byte;
    ::recv(fd, &byte, 1, 0); // hold the stream open until the client closes
    ::close(fd);
}

TEST(ServingClientFraming, PackedAndSplitResponsesAllResolve)
{
    const int n = 6;
    // Cut points into the concatenated response bytes: all in one write,
    // and one split anywhere (including inside headers) per trial.
    std::vector<std::function<std::vector<size_t>(size_t)>> patterns = {
        [](size_t total) { return std::vector<size_t>{total}; },
        [](size_t total) {
            std::vector<size_t> cuts;
            for (size_t at = 5; at < total; at += 97)
                cuts.push_back(at);
            cuts.push_back(total);
            return cuts;
        },
    };
    for (size_t split = 1; split < 40; split += 3)
        patterns.push_back([split](size_t total) {
            return std::vector<size_t>{split, total};
        });

    for (size_t p = 0; p < patterns.size(); ++p) {
        const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)),
                  0);
        ASSERT_EQ(::listen(listen_fd, 1), 0);
        socklen_t len = sizeof(addr);
        ::getsockname(listen_fd, reinterpret_cast<sockaddr *>(&addr), &len);
        std::thread peer(fakeServer, listen_fd, n, patterns[p]);

        ServingClient client;
        ASSERT_TRUE(client.connect("127.0.0.1", ntohs(addr.sin_port)));
        std::vector<Tensor> images;
        std::vector<std::future<WireResponse>> futures;
        for (int i = 0; i < n; ++i) {
            images.push_back(testImage(static_cast<uint64_t>(40 + i)));
            futures.push_back(
                client.inferAsync("t", "mlp3", WireMode::Ann, images.back()));
        }
        for (int i = 0; i < n; ++i) {
            const WireResponse response = futures[i].get();
            ASSERT_EQ(response.status, WireStatus::Ok)
                << "pattern " << p << " response " << i;
            EXPECT_EQ(response.predictedClass, i);
            EXPECT_TRUE(bitEqual(response.logits, images[i]));
        }
        client.close();
        peer.join();
        ::close(listen_fd);
    }
}

// ---------------------------------------------------------------------------
// Server config validation
// ---------------------------------------------------------------------------

void
expectRejected(const ServerConfig &config)
{
    auto registry =
        std::make_shared<ModelRegistry>(fastRegistry({"mlp3/ann"}, 1));
    EXPECT_THROW(ServingServer(config, registry), std::invalid_argument);
}

TEST(ServingServerConfig, ZeroPipelineDepthIsRejected)
{
    ServerConfig config;
    config.pipelineDepth = 0;
    expectRejected(config);
}

TEST(ServingServerConfig, NoConnectionsIsRejected)
{
    ServerConfig config;
    config.maxConnections = 0;
    expectRejected(config);
}

TEST(ServingServerConfig, NoBacklogIsRejected)
{
    ServerConfig config;
    config.backlog = 0;
    expectRejected(config);
}

TEST(ServingServerConfig, ZeroBodyCapIsRejected)
{
    ServerConfig config;
    config.maxBodyBytes = 0;
    expectRejected(config);
}

TEST_F(ServingServerTest, ClientSurvivesServerStop)
{
    ServingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
    ASSERT_EQ(client.infer("t", "mlp3", WireMode::Ann, testImage()).status,
              WireStatus::Ok);
    server_->stop();
    // Requests after the server is gone resolve client-locally typed --
    // never hang, never throw.
    const WireResponse reply =
        client.infer("t", "mlp3", WireMode::Ann, testImage());
    EXPECT_TRUE(reply.status == WireStatus::ConnectionLost ||
                reply.status == WireStatus::SendFailed)
        << toString(reply.status);
}

} // namespace
} // namespace serving
} // namespace nebula
