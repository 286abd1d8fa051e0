/**
 * @file
 * Tests for the concurrent inference runtime: queue backpressure,
 * bit-exact determinism of the worker pool against sequential chip
 * runs (ANN, SNN, hybrid, inline mode), a multi-producer concurrency
 * stress run, shutdown-while-busy semantics and stats aggregation.
 * The suite is run under ThreadSanitizer in CI (NEBULA_SANITIZE=thread).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "arch/chip.hpp"
#include "nn/datasets.hpp"
#include "nn/models.hpp"
#include "nn/quantize.hpp"
#include "runtime/engine.hpp"
#include "runtime/replica.hpp"
#include "runtime/request_queue.hpp"
#include "snn/convert.hpp"

namespace nebula {
namespace {

constexpr int kImageSize = 12;
constexpr int kClasses = 10;

/** Shared prototypes: untrained MLP (bit-exactness needs no accuracy). */
struct Prototypes
{
    SyntheticDigits data{48, kImageSize, /*seed=*/9}; // before the nets:
                                                      // init order matters
    Network floatNet;         //!< pre-quantization clone (SNN/hybrid src)
    Network quantNet;         //!< quantized, ready for programAnn
    QuantizationResult quant;
    SpikingModel snn;

    Prototypes()
        : floatNet(buildMlp3(kImageSize, 1, kClasses, /*seed=*/3)),
          quantNet(floatNet.clone()),
          quant(quantizeNetwork(quantNet, data.firstImages(16))),
          snn(convertToSnn(floatNet, data.firstImages(16)))
    {
    }
};

Prototypes &
protos()
{
    static Prototypes p;
    return p;
}

bool
bitIdentical(const Tensor &a, const Tensor &b)
{
    if (a.size() != b.size())
        return false;
    for (long long i = 0; i < a.size(); ++i)
        if (a[i] != b[i])
            return false;
    return true;
}

TEST(BoundedQueue, BackpressureAndTryPush)
{
    BoundedQueue<int> queue(2);
    int a = 1, b = 2, c = 3;
    EXPECT_TRUE(queue.tryPush(a));
    EXPECT_TRUE(queue.tryPush(b));
    EXPECT_FALSE(queue.tryPush(c)); // full: refused, item kept
    EXPECT_EQ(c, 3);
    EXPECT_EQ(queue.size(), 2u);
    EXPECT_EQ(queue.highWater(), 2u);

    // A blocking push parks until a consumer makes room.
    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        int d = 4;
        queue.push(std::move(d));
        pushed.store(true);
    });
    EXPECT_EQ(queue.pop().value(), 1);
    producer.join();
    EXPECT_TRUE(pushed.load());
    EXPECT_EQ(queue.pop().value(), 2);
    EXPECT_EQ(queue.pop().value(), 4);
}

TEST(BoundedQueue, CloseDrainsThenEndsStream)
{
    BoundedQueue<int> queue(8);
    for (int i = 0; i < 3; ++i) {
        int v = i;
        queue.tryPush(v);
    }
    queue.close();
    int w = 7;
    EXPECT_FALSE(queue.tryPush(w)); // closed: refused
    EXPECT_EQ(queue.pop().value(), 0);
    EXPECT_EQ(queue.pop().value(), 1);
    EXPECT_EQ(queue.pop().value(), 2);
    EXPECT_FALSE(queue.pop().has_value());
}

TEST(Runtime, AnnPoolBitIdenticalToSequentialChip)
{
    Prototypes &p = protos();
    const int n = 12;

    // Sequential reference on one chip.
    NebulaChip reference;
    reference.programAnn(p.quantNet, p.quant);
    std::vector<Tensor> expected;
    for (int i = 0; i < n; ++i)
        expected.push_back(reference.runAnn(p.data.image(i)));

    EngineConfig cfg;
    cfg.numWorkers = 4;
    cfg.queueCapacity = 4; // exercises backpressure in submitBatch
    InferenceEngine engine(cfg, makeAnnReplicaFactory(p.quantNet, p.quant));

    std::vector<Tensor> images;
    for (int i = 0; i < n; ++i)
        images.push_back(p.data.image(i));
    auto futures = engine.submitBatch(images);
    ASSERT_EQ(futures.size(), static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        const InferenceResult result = futures[static_cast<size_t>(i)].get();
        EXPECT_EQ(result.id, static_cast<uint64_t>(i));
        EXPECT_TRUE(bitIdentical(result.logits,
                                 expected[static_cast<size_t>(i)]))
            << "ANN logits diverged on image " << i;
        EXPECT_EQ(result.predictedClass,
                  expected[static_cast<size_t>(i)].argmaxRow(0));
        EXPECT_GE(result.workerId, 0);
        EXPECT_LT(result.workerId, 4);
    }
    engine.shutdown();
}

TEST(Runtime, SnnPoolBitIdenticalToSequentialChip)
{
    Prototypes &p = protos();
    const int n = 8, timesteps = 6;

    EngineConfig cfg;
    cfg.numWorkers = 4;
    cfg.defaultTimesteps = timesteps;
    InferenceEngine engine(cfg, makeSnnReplicaFactory(p.snn));

    // Sequential reference replays the exact per-request seeds the
    // engine derives from the request ids.
    SpikingModel ref_model = p.snn.clone();
    NebulaChip reference;
    reference.programSnn(ref_model);

    std::vector<std::future<InferenceResult>> futures;
    for (int i = 0; i < n; ++i)
        futures.push_back(engine.submit(p.data.image(i)));
    for (int i = 0; i < n; ++i) {
        const InferenceResult result = futures[static_cast<size_t>(i)].get();
        const SnnRunResult expected = reference.runSnn(
            p.data.image(i), timesteps,
            engine.seedFor(static_cast<uint64_t>(i)));
        EXPECT_TRUE(bitIdentical(result.logits, expected.logits))
            << "SNN logits diverged on image " << i;
        EXPECT_EQ(result.spikes, expected.totalSpikes);
        EXPECT_EQ(result.timesteps, timesteps);
    }
    engine.shutdown();
}

TEST(Runtime, PerRequestEnergySumsToChipDelta)
{
    // The per-request joules a replica reports, summed over a run, are
    // the component joules of its chip's whole delta: no request's
    // energy is dropped or billed twice. ABFT on, so the checksum
    // conversions reach the ADC term in both modes.
    Prototypes &p = protos();
    NebulaConfig config;
    config.abft = true;
    AnnChipReplica ann(p.quantNet, p.quant, config, 0.0, 7);
    SnnChipReplica snn(p.snn, config, 0.0, 7);
    const std::pair<ChipReplica *, Mode> replicas[] = {{&ann, Mode::ANN},
                                                       {&snn, Mode::SNN}};
    for (const auto &[replica, mode] : replicas) {
        EnergyBreakdown sum;
        for (int i = 0; i < 16; ++i) {
            InferenceRequest request;
            request.image = p.data.image(i);
            request.timesteps = 6;
            request.seed = deriveRequestSeed(1, static_cast<uint64_t>(i));
            sum.merge(replica->run(request).energy);
        }
        const EnergyBreakdown whole =
            estimateEnergyBreakdown(ChipStats{}, *replica->chipStats(), mode);
        const std::pair<double, double> parts[] = {
            {sum.crossbarJ, whole.crossbarJ}, {sum.driverJ, whole.driverJ},
            {sum.adcJ, whole.adcJ},           {sum.neuronJ, whole.neuronJ},
            {sum.nocJ, whole.nocJ}};
        for (const auto &[got, want] : parts) {
            EXPECT_GT(want, 0.0) << replica->mode();
            EXPECT_NEAR(got, want, 1e-12 * want) << replica->mode();
        }
    }
}

TEST(Runtime, InlineModeMatchesWorkerPool)
{
    Prototypes &p = protos();
    const int n = 6;

    EngineConfig inline_cfg;
    inline_cfg.numWorkers = 0; // deterministic inline fallback
    InferenceEngine inline_engine(
        inline_cfg, makeAnnReplicaFactory(p.quantNet, p.quant));

    EngineConfig pool_cfg;
    pool_cfg.numWorkers = 2;
    InferenceEngine pool_engine(pool_cfg,
                                makeAnnReplicaFactory(p.quantNet, p.quant));

    for (int i = 0; i < n; ++i) {
        auto inline_future = inline_engine.submit(p.data.image(i));
        auto pool_future = pool_engine.submit(p.data.image(i));
        const InferenceResult a = inline_future.get();
        const InferenceResult b = pool_future.get();
        EXPECT_TRUE(bitIdentical(a.logits, b.logits));
        EXPECT_EQ(a.workerId, -1);
    }
    // Inline mode serves from the calling thread: nothing ever queued.
    EXPECT_EQ(inline_engine.queueDepth(), 0u);
    EXPECT_EQ(inline_engine.completed(), static_cast<uint64_t>(n));
}

TEST(Runtime, HybridPoolBitIdenticalToDirectRun)
{
    Prototypes &p = protos();
    const int n = 4, timesteps = 6;

    EngineConfig cfg;
    cfg.numWorkers = 2;
    cfg.defaultTimesteps = timesteps;
    InferenceEngine engine(
        cfg, makeHybridReplicaFactory(p.floatNet, p.data.firstImages(16),
                                      /*ann_layers=*/1));

    Network ref_source = p.floatNet.clone();
    HybridNetwork reference(ref_source, p.data.firstImages(16), 1);

    std::vector<std::future<InferenceResult>> futures;
    for (int i = 0; i < n; ++i)
        futures.push_back(engine.submit(p.data.image(i)));
    for (int i = 0; i < n; ++i) {
        const InferenceResult result = futures[static_cast<size_t>(i)].get();
        const HybridRunResult expected = reference.run(
            p.data.image(i), timesteps,
            engine.seedFor(static_cast<uint64_t>(i)));
        EXPECT_TRUE(bitIdentical(result.logits, expected.logits))
            << "hybrid logits diverged on image " << i;
        EXPECT_EQ(result.spikes, expected.prefixSpikes);
    }
    engine.shutdown();
}

TEST(Runtime, ConcurrencyStressManyProducers)
{
    Prototypes &p = protos();
    const int producers = 3, per_producer = 80;
    const int total = producers * per_producer;

    // Sequential reference logits per dataset image.
    NebulaChip reference;
    reference.programAnn(p.quantNet, p.quant);
    std::vector<Tensor> expected;
    for (int i = 0; i < p.data.size(); ++i)
        expected.push_back(reference.runAnn(p.data.image(i)));
    const long long evals_per_image =
        reference.stats().crossbarEvals / p.data.size();
    reference.clearStats();

    EngineConfig cfg;
    cfg.numWorkers = 4;
    cfg.queueCapacity = 8; // small: producers hit backpressure
    InferenceEngine engine(cfg, makeAnnReplicaFactory(p.quantNet, p.quant));

    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < producers; ++t) {
        threads.emplace_back([&, t] {
            for (int j = 0; j < per_producer; ++j) {
                const int image = (t * per_producer + j) % p.data.size();
                auto future = engine.submit(p.data.image(image));
                const InferenceResult result = future.get();
                if (!bitIdentical(result.logits,
                                  expected[static_cast<size_t>(image)]))
                    mismatches.fetch_add(1);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(mismatches.load(), 0);

    engine.waitIdle();
    EXPECT_EQ(engine.submitted(), static_cast<uint64_t>(total));
    EXPECT_EQ(engine.completed(), static_cast<uint64_t>(total));

    // Worker-local chip stats merge to the sequential totals.
    const ChipStats chip = engine.chipStats();
    EXPECT_EQ(chip.crossbarEvals, evals_per_image * total);

    StatGroup stats = engine.runtimeStats();
    EXPECT_EQ(stats.scalarAt("requests").sum(), total);
    EXPECT_EQ(stats.scalarAt("latency_ms").count(),
              static_cast<uint64_t>(total));
    EXPECT_GE(stats.scalarAt("queue.high_water").sum(), 1.0);
    double per_worker = 0.0;
    for (int w = 0; w < 4; ++w) {
        const std::string name =
            "worker" + std::to_string(w) + ".requests";
        if (stats.hasScalar(name))
            per_worker += stats.scalarAt(name).sum();
    }
    EXPECT_EQ(per_worker, total);
    engine.shutdown();
}

TEST(Runtime, ShutdownWhileBusyDrainsEveryFuture)
{
    Prototypes &p = protos();
    const int n = 24;

    EngineConfig cfg;
    cfg.numWorkers = 2;
    cfg.queueCapacity = 32;
    InferenceEngine engine(cfg, makeAnnReplicaFactory(p.quantNet, p.quant));

    std::vector<std::future<InferenceResult>> futures;
    for (int i = 0; i < n; ++i)
        futures.push_back(engine.submit(p.data.image(i % p.data.size())));

    engine.shutdown(); // while the queue is still full of work
    EXPECT_TRUE(engine.isShutdown());
    for (auto &future : futures) {
        const InferenceResult result = future.get(); // no broken promises
        EXPECT_EQ(result.logits.size(), kClasses);
    }
    EXPECT_EQ(engine.completed(), static_cast<uint64_t>(n));
    EXPECT_THROW(engine.submit(p.data.image(0)), std::runtime_error);
}

TEST(Runtime, ShutdownNowResolvesPendingToTypedEngineStopped)
{
    Prototypes &p = protos();
    const int n = 24;

    EngineConfig cfg;
    cfg.numWorkers = 2;
    cfg.queueCapacity = 32;
    cfg.defaultTimesteps = 12; // slow-ish SNN requests keep workers busy
    InferenceEngine engine(cfg, makeSnnReplicaFactory(p.snn));

    std::vector<std::future<InferenceResult>> futures;
    for (int i = 0; i < n; ++i)
        futures.push_back(engine.submit(p.data.image(i % p.data.size())));

    engine.shutdownNow();
    // Every future resolves to a typed terminal outcome -- evaluated
    // requests carry logits, discarded ones carry EngineStopped; no
    // promise is broken and nothing throws from get().
    int delivered = 0, discarded = 0;
    for (auto &future : futures) {
        const InferenceResult result = future.get();
        if (result.ok()) {
            EXPECT_EQ(result.logits.size(), kClasses);
            ++delivered;
        } else {
            EXPECT_EQ(result.error, RuntimeErrorKind::EngineStopped);
            EXPECT_FALSE(result.errorMessage.empty());
            ++discarded;
        }
    }
    EXPECT_EQ(delivered + discarded, n);
    EXPECT_EQ(engine.completed(), static_cast<uint64_t>(n));
    // Submitting after shutdown still throws the typed exception, which
    // remains catchable as the pre-taxonomy std::runtime_error.
    EXPECT_THROW(engine.submit(p.data.image(0)), EngineStoppedError);
}

TEST(Runtime, TrySubmitRefusesWhenFull)
{
    Prototypes &p = protos();

    EngineConfig cfg;
    cfg.numWorkers = 1;
    cfg.queueCapacity = 1;
    InferenceEngine engine(cfg, makeAnnReplicaFactory(p.quantNet, p.quant));

    // Saturate: keep try-submitting until the queue refuses one, which
    // proves the backpressure path; everything accepted must complete.
    std::vector<std::future<InferenceResult>> accepted;
    bool refused = false;
    for (int i = 0; i < 64 && !refused; ++i) {
        std::future<InferenceResult> future;
        if (engine.trySubmit(p.data.image(i % p.data.size()), future))
            accepted.push_back(std::move(future));
        else
            refused = true;
    }
    EXPECT_TRUE(refused); // capacity-1 queue must push back
    for (auto &future : accepted)
        EXPECT_EQ(future.get().logits.size(), kClasses);
    engine.shutdown();
    EXPECT_EQ(engine.completed(), engine.submitted());
}

// ---------------------------------------------------------------------------
// Engine config validation
// ---------------------------------------------------------------------------

/** The engine refuses @p cfg with a typed error, before building a replica. */
void
expectRejected(const EngineConfig &cfg)
{
    Prototypes &p = protos();
    const ReplicaFactory inner = makeAnnReplicaFactory(p.quantNet, p.quant);
    int built = 0;
    const ReplicaFactory counting = [&](int id) {
        ++built;
        return inner(id);
    };
    EXPECT_THROW(InferenceEngine(cfg, counting), std::invalid_argument);
    EXPECT_EQ(built, 0);
}

TEST(RuntimeEngineConfig, NegativeWorkerCountIsRejected)
{
    EngineConfig cfg;
    cfg.numWorkers = -1;
    expectRejected(cfg);
}

TEST(RuntimeEngineConfig, ZeroDefaultTimestepsIsRejected)
{
    EngineConfig cfg;
    cfg.defaultTimesteps = 0;
    expectRejected(cfg);
}

TEST(RuntimeEngineConfig, InlineModeWithOneTimestepIsAccepted)
{
    // The bounds themselves are valid: inline mode, one SNN step.
    Prototypes &p = protos();
    EngineConfig cfg;
    cfg.numWorkers = 0;
    cfg.defaultTimesteps = 1;
    InferenceEngine engine(cfg, makeSnnReplicaFactory(p.snn));
    EXPECT_EQ(engine.submit(p.data.image(0)).get().timesteps, 1);
    engine.shutdown();
}

} // namespace
} // namespace nebula
