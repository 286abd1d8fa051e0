/**
 * @file
 * Tests for the resilience layer: seeded-backoff properties (bit-exact
 * reproducibility, monotone saturation, zero allocations per step),
 * typed terminal outcomes for shed / timeout / cancelled / faulted
 * requests, deadline-aware admission control, supervisor restarts under
 * a chaos load that poisons replicas mid-run, and the closed-loop
 * health monitor recovering bit-exact accuracy from a retention-decay
 * ramp (with a monitor-off control that stays degraded) plus its full
 * escalation ladder: failed repair -> in-situ fine-tune -> demote. The
 * suite runs under ThreadSanitizer in CI next to runtime_test.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "arch/chip.hpp"
#include "nn/datasets.hpp"
#include "nn/models.hpp"
#include "nn/quantize.hpp"
#include "nn/trainer.hpp"
#include "reliability/fault_model.hpp"
#include "reliability/health.hpp"
#include "runtime/backoff.hpp"
#include "runtime/engine.hpp"
#include "runtime/replica.hpp"

// ---------------------------------------------------------------------------
// Counting global allocator: lets the backoff test assert that
// nextDelayNs() performs zero heap allocations per step. Only the
// plain (unaligned) forms are replaced; their aligned counterparts
// keep the default implementation, so new/delete pairing stays intact.
// ---------------------------------------------------------------------------

// GCC pairs call sites of the replaced operator new (which it inlines
// down to malloc) with the default-looking sized delete and reports a
// mismatch; the pairing is in fact exact (new -> malloc, delete -> free).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

static std::atomic<long long> g_allocations{0};

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace nebula {
namespace {

constexpr int kImageSize = 12;
constexpr int kClasses = 10;

struct Prototypes
{
    SyntheticDigits data{48, kImageSize, /*seed=*/9};
    Network quantNet;
    QuantizationResult quant;

    Prototypes()
        : quantNet(buildMlp3(kImageSize, 1, kClasses, /*seed=*/3)),
          quant(quantizeNetwork(quantNet, data.firstImages(16)))
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

/**
 * Request conservation: every completed request ended in exactly one of
 * the worker outcomes (evaluated, faulted, timed out, cancelled).
 */
void
expectRequestsConserved(InferenceEngine &engine)
{
    const StatGroup stats = engine.runtimeStats();
    double outcomes = 0.0;
    for (const char *name : {"requests", "failures", "timeouts", "cancelled"})
        if (stats.hasScalar(name))
            outcomes += stats.scalarAt(name).sum();
    EXPECT_EQ(static_cast<double>(engine.completed()), outcomes);
}

// ---------------------------------------------------------------------------
// Test replicas wrapping a real chip replica.
// ---------------------------------------------------------------------------

/** Parks in run() until released; lets tests pin the worker pool. */
class GatedReplica : public ChipReplica
{
  public:
    GatedReplica(std::unique_ptr<ChipReplica> base,
                 std::atomic<int> *entered, std::atomic<bool> *release)
        : base_(std::move(base)), entered_(entered), release_(release)
    {
    }

    InferenceResult
    run(const InferenceRequest &request) override
    {
        entered_->fetch_add(1);
        while (!release_->load())
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        return base_->run(request);
    }

    const char *mode() const override { return base_->mode(); }

  private:
    std::unique_ptr<ChipReplica> base_;
    std::atomic<int> *entered_;
    std::atomic<bool> *release_;
};

/** Sleeps a fixed time per request (gives the EWMA a known scale). */
class SleepyReplica : public ChipReplica
{
  public:
    SleepyReplica(std::unique_ptr<ChipReplica> base,
                  std::chrono::microseconds nap)
        : base_(std::move(base)), nap_(nap)
    {
    }

    InferenceResult
    run(const InferenceRequest &request) override
    {
        std::this_thread::sleep_for(nap_);
        return base_->run(request);
    }

    const char *mode() const override { return base_->mode(); }

  private:
    std::unique_ptr<ChipReplica> base_;
    std::chrono::microseconds nap_;
};

/** Serves @p healthy requests, then throws on every later one. */
class PoisonedReplica : public ChipReplica
{
  public:
    PoisonedReplica(std::unique_ptr<ChipReplica> base, int healthy)
        : base_(std::move(base)), remaining_(healthy)
    {
    }

    InferenceResult
    run(const InferenceRequest &request) override
    {
        if (remaining_ <= 0)
            throw std::runtime_error("replica poisoned");
        --remaining_;
        return base_->run(request);
    }

    const char *mode() const override { return base_->mode(); }

  private:
    std::unique_ptr<ChipReplica> base_;
    int remaining_; //!< worker-thread-local
};

/** Throws on the first @p failures requests, then recovers. */
class FlakyStartReplica : public ChipReplica
{
  public:
    FlakyStartReplica(std::unique_ptr<ChipReplica> base, int failures)
        : base_(std::move(base)), failures_(failures)
    {
    }

    InferenceResult
    run(const InferenceRequest &request) override
    {
        if (failures_ > 0) {
            --failures_;
            throw std::runtime_error("transient replica fault");
        }
        return base_->run(request);
    }

    const char *mode() const override { return base_->mode(); }

  private:
    std::unique_ptr<ChipReplica> base_;
    int failures_;
};

// ---------------------------------------------------------------------------
// Backoff properties
// ---------------------------------------------------------------------------

TEST(Backoff, SeededJitterIsReproducible)
{
    BackoffConfig cfg;
    cfg.initialNs = 500'000;
    cfg.capNs = 50'000'000;
    cfg.multiplier = 2.0;
    cfg.jitter = 0.25;

    ExponentialBackoff a(cfg, /*seed=*/42), b(cfg, /*seed=*/42);
    ExponentialBackoff c(cfg, /*seed=*/43);
    bool diverged = false;
    for (int i = 0; i < 32; ++i) {
        const uint64_t da = a.nextDelayNs();
        EXPECT_EQ(da, b.nextDelayNs()) << "same seed diverged at step " << i;
        if (da != c.nextDelayNs())
            diverged = true;
    }
    EXPECT_TRUE(diverged) << "distinct seeds produced identical jitter";
    EXPECT_EQ(a.attempt(), 32);
}

TEST(Backoff, MonotoneGrowthSaturatesAtCapWithoutJitter)
{
    BackoffConfig cfg;
    cfg.initialNs = 1'000'000;
    cfg.capNs = 16'000'000;
    cfg.multiplier = 2.0;
    cfg.jitter = 0.0;

    ExponentialBackoff backoff(cfg, /*seed=*/7);
    uint64_t previous = 0;
    for (int i = 0; i < 20; ++i) {
        const uint64_t delay = backoff.nextDelayNs();
        EXPECT_GE(delay, previous) << "delay shrank at step " << i;
        EXPECT_LE(delay, cfg.capNs);
        previous = delay;
    }
    EXPECT_EQ(previous, cfg.capNs); // saturated
    // The exact doubling prefix: 1, 2, 4, 8, 16, 16, ... ms.
    backoff.reset();
    EXPECT_EQ(backoff.nextDelayNs(), 1'000'000u);
    EXPECT_EQ(backoff.nextDelayNs(), 2'000'000u);
    EXPECT_EQ(backoff.nextDelayNs(), 4'000'000u);
    EXPECT_EQ(backoff.attempt(), 3);
}

TEST(Backoff, JitteredDelaysStayWithinBounds)
{
    BackoffConfig cfg;
    cfg.initialNs = 2'000'000;
    cfg.capNs = 64'000'000;
    cfg.multiplier = 2.0;
    cfg.jitter = 0.2;

    ExponentialBackoff backoff(cfg, /*seed=*/11);
    double base = static_cast<double>(cfg.initialNs);
    for (int i = 0; i < 24; ++i) {
        const double delay = static_cast<double>(backoff.nextDelayNs());
        EXPECT_GE(delay, base * (1.0 - cfg.jitter) - 1.0);
        EXPECT_LE(delay, base * (1.0 + cfg.jitter) + 1.0);
        base = std::min(static_cast<double>(cfg.capNs),
                        base * cfg.multiplier);
    }
}

TEST(Backoff, ZeroAllocationsPerStep)
{
    ExponentialBackoff backoff({}, /*seed=*/5);
    (void)backoff.nextDelayNs(); // warm up outside the window
    const long long before = g_allocations.load();
    uint64_t sink = 0;
    for (int i = 0; i < 1000; ++i)
        sink += backoff.nextDelayNs();
    const long long after = g_allocations.load();
    EXPECT_GT(sink, 0u);
    EXPECT_EQ(after, before) << "nextDelayNs() touched the allocator";
}

// ---------------------------------------------------------------------------
// Typed terminal outcomes: shed, timeout, cancel, queue-full trySubmit
// ---------------------------------------------------------------------------

TEST(Resilience, RejectWhenFullShedsWithTypedOutcome)
{
    Prototypes &p = protos();
    std::atomic<int> entered{0};
    std::atomic<bool> release{false};

    EngineConfig cfg;
    cfg.numWorkers = 1;
    cfg.queueCapacity = 1;
    cfg.shedPolicy = ShedPolicy::RejectWhenFull;
    auto base = makeAnnReplicaFactory(p.quantNet, p.quant);
    InferenceEngine engine(cfg, [&](int id) {
        return std::make_unique<GatedReplica>(base(id), &entered, &release);
    });

    // Pin the single worker inside request A, then fill the queue with
    // B; C now has nowhere to go and must shed immediately.
    auto a = engine.submit(p.data.image(0));
    while (entered.load() == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    auto b = engine.submit(p.data.image(1));
    auto c = engine.submit(p.data.image(2));
    ASSERT_EQ(c.wait_for(std::chrono::seconds(0)),
              std::future_status::ready); // resolved at admission

    // The non-blocking probe is refused outright in the same state.
    std::future<InferenceResult> d;
    EXPECT_FALSE(engine.trySubmit(p.data.image(3), d));

    release.store(true);
    const InferenceResult shed = c.get();
    EXPECT_EQ(shed.error, RuntimeErrorKind::Shed);
    EXPECT_EQ(shed.errorMessage, "queue full");
    EXPECT_TRUE(a.get().ok());
    EXPECT_TRUE(b.get().ok());
    EXPECT_EQ(engine.shedCount(), 1u);

    engine.shutdown();
    // Shed requests are refusals: they never enter submitted/completed.
    EXPECT_EQ(engine.submitted(), 2u);
    EXPECT_EQ(engine.completed(), 2u);
}

TEST(Resilience, DeadlineExpiryInQueueResolvesToTimeout)
{
    Prototypes &p = protos();
    std::atomic<int> entered{0};
    std::atomic<bool> release{false};

    EngineConfig cfg;
    cfg.numWorkers = 1;
    cfg.queueCapacity = 4;
    auto base = makeAnnReplicaFactory(p.quantNet, p.quant);
    InferenceEngine engine(cfg, [&](int id) {
        return std::make_unique<GatedReplica>(base(id), &entered, &release);
    });

    auto a = engine.submit(p.data.image(0)); // no deadline, gated
    while (entered.load() == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(100));

    InferenceRequest tight;
    tight.image = p.data.image(1);
    tight.deadlineNs = 2'000'000; // 2 ms budget, spent behind the gate
    auto b = engine.submit(std::move(tight));

    InferenceRequest roomy;
    roomy.image = p.data.image(2);
    roomy.deadlineNs = 10'000'000'000ull; // 10 s: cannot expire
    auto c = engine.submit(std::move(roomy));

    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    release.store(true);

    EXPECT_TRUE(a.get().ok());
    const InferenceResult timed_out = b.get();
    EXPECT_EQ(timed_out.error, RuntimeErrorKind::Timeout);
    EXPECT_GT(timed_out.queueSeconds, 0.0);
    EXPECT_EQ(timed_out.logits.size(), 0);
    EXPECT_TRUE(c.get().ok());

    StatGroup stats = engine.runtimeStats();
    EXPECT_EQ(stats.scalarAt("timeouts").sum(), 1.0);
    engine.shutdown();
    EXPECT_EQ(engine.completed(), 3u); // timeout counts as completed
}

TEST(Resilience, DeadlineAwareAdmissionShedsPredictedMisses)
{
    Prototypes &p = protos();

    EngineConfig cfg;
    cfg.numWorkers = 1;
    cfg.queueCapacity = 8;
    cfg.shedPolicy = ShedPolicy::DeadlineAware;
    auto base = makeAnnReplicaFactory(p.quantNet, p.quant);
    InferenceEngine engine(cfg, [&](int id) {
        return std::make_unique<SleepyReplica>(
            base(id), std::chrono::microseconds(2000));
    });

    // Teach the EWMA that requests cost ~2 ms.
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(engine.submit(p.data.image(i)).get().ok());
    engine.waitIdle();
    EXPECT_GT(engine.serviceEstimateSeconds(), 0.0);

    // A 1 us budget cannot survive a ~2 ms predicted wait: shed at
    // submit, before the request ever occupies queue space.
    InferenceRequest doomed;
    doomed.image = p.data.image(5);
    doomed.deadlineNs = 1'000;
    const InferenceResult shed = engine.submit(std::move(doomed)).get();
    EXPECT_EQ(shed.error, RuntimeErrorKind::Shed);
    EXPECT_GE(engine.shedCount(), 1u);

    // Deadline-free requests pass through untouched under this policy.
    EXPECT_TRUE(engine.submit(p.data.image(6)).get().ok());
    engine.shutdown();
}

TEST(Resilience, CancelFlagResolvesToCancelledWithoutEvaluation)
{
    Prototypes &p = protos();
    std::atomic<int> entered{0};
    std::atomic<bool> release{false};

    EngineConfig cfg;
    cfg.numWorkers = 1;
    cfg.queueCapacity = 4;
    auto base = makeAnnReplicaFactory(p.quantNet, p.quant);
    InferenceEngine engine(cfg, [&](int id) {
        return std::make_unique<GatedReplica>(base(id), &entered, &release);
    });

    auto a = engine.submit(p.data.image(0)); // gated
    while (entered.load() == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(100));

    InferenceRequest cancellable;
    cancellable.image = p.data.image(1);
    cancellable.cancel = std::make_shared<std::atomic<bool>>(false);
    CancelFlag flag = cancellable.cancel;
    auto b = engine.submit(std::move(cancellable));
    flag->store(true); // while still queued behind the gate
    release.store(true);

    EXPECT_TRUE(a.get().ok());
    const InferenceResult cancelled = b.get();
    EXPECT_EQ(cancelled.error, RuntimeErrorKind::Cancelled);
    EXPECT_EQ(cancelled.logits.size(), 0);

    // A pre-cancelled request never reaches the replica either (the
    // gate would park the worker forever if it did).
    InferenceRequest dead;
    dead.image = p.data.image(2);
    dead.cancel = std::make_shared<std::atomic<bool>>(true);
    EXPECT_EQ(engine.submit(std::move(dead)).get().error,
              RuntimeErrorKind::Cancelled);
    engine.shutdown();
}

// ---------------------------------------------------------------------------
// Retry and supervision
// ---------------------------------------------------------------------------

TEST(Resilience, SubmitWithRetryRecoversFromTransientFaults)
{
    Prototypes &p = protos();

    EngineConfig cfg;
    cfg.numWorkers = 1;
    cfg.maxConsecutiveFaults = 0; // retries, not the supervisor, recover
    auto base = makeAnnReplicaFactory(p.quantNet, p.quant);
    InferenceEngine engine(cfg, [&](int id) {
        return std::make_unique<FlakyStartReplica>(base(id), /*failures=*/2);
    });

    BackoffConfig fast;
    fast.initialNs = 1000; // keep the test quick
    fast.capNs = 10'000;
    const InferenceResult result =
        submitWithRetry(engine, p.data.image(0), /*max_attempts=*/4, fast);
    EXPECT_TRUE(result.ok()) << result.errorMessage;
    EXPECT_EQ(result.logits.size(), kClasses);

    StatGroup stats = engine.runtimeStats();
    EXPECT_EQ(stats.scalarAt("failures").sum(), 2.0);
    engine.shutdown();
}

TEST(Resilience, RetryBudgetExhaustionReturnsTheFault)
{
    Prototypes &p = protos();

    EngineConfig cfg;
    cfg.numWorkers = 1;
    cfg.maxConsecutiveFaults = 0;
    auto base = makeAnnReplicaFactory(p.quantNet, p.quant);
    InferenceEngine engine(cfg, [&](int id) {
        return std::make_unique<FlakyStartReplica>(base(id),
                                                   /*failures=*/1000000);
    });

    BackoffConfig fast;
    fast.initialNs = 1000;
    fast.capNs = 10'000;
    const InferenceResult result =
        submitWithRetry(engine, p.data.image(0), /*max_attempts=*/3, fast);
    EXPECT_EQ(result.error, RuntimeErrorKind::ReplicaFault);
    EXPECT_FALSE(result.errorMessage.empty());
    engine.shutdown();
}

TEST(Resilience, ChaosLoadResolvesEveryFutureToTypedOutcome)
{
    Prototypes &p = protos();
    const int producers = 4, per_producer = 40;
    const int total = producers * per_producer;

    EngineConfig cfg;
    cfg.numWorkers = 3;
    cfg.queueCapacity = 8;
    cfg.maxConsecutiveFaults = 2; // supervisor restarts poisoned replicas
    auto base = makeAnnReplicaFactory(p.quantNet, p.quant);
    InferenceEngine engine(cfg, [&](int id) {
        return std::make_unique<PoisonedReplica>(base(id), /*healthy=*/5);
    });

    std::vector<std::vector<std::future<InferenceResult>>> futures(
        static_cast<size_t>(producers));
    std::vector<std::thread> threads;
    for (int t = 0; t < producers; ++t) {
        threads.emplace_back([&, t] {
            auto &mine = futures[static_cast<size_t>(t)];
            mine.reserve(static_cast<size_t>(per_producer));
            for (int j = 0; j < per_producer; ++j) {
                InferenceRequest request;
                request.image = p.data.image((t * per_producer + j) %
                                             p.data.size());
                if (j % 11 == 3) // a few requests that must time out
                    request.deadlineNs = 1;
                if (j % 13 == 7) // and a few born cancelled
                    request.cancel =
                        std::make_shared<std::atomic<bool>>(true);
                mine.push_back(engine.submit(std::move(request)));
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    engine.shutdown();

    int ok = 0, faults = 0, timeouts = 0, cancelled = 0, other = 0;
    for (auto &lane : futures) {
        for (auto &future : lane) {
            const InferenceResult result = future.get(); // never hangs
            switch (result.error) {
            case RuntimeErrorKind::None:
                EXPECT_EQ(result.logits.size(), kClasses);
                ++ok;
                break;
            case RuntimeErrorKind::ReplicaFault: ++faults; break;
            case RuntimeErrorKind::Timeout: ++timeouts; break;
            case RuntimeErrorKind::Cancelled: ++cancelled; break;
            default: ++other; break;
            }
        }
    }
    EXPECT_EQ(ok + faults + timeouts + cancelled + other, total);
    EXPECT_EQ(other, 0) << "unexpected outcome kind under chaos";
    EXPECT_GT(ok, 0);
    EXPECT_GT(faults, 0) << "poisoned replicas should have faulted";
    EXPECT_GT(cancelled, 0);
    EXPECT_EQ(engine.completed(), static_cast<uint64_t>(total));
    EXPECT_GE(engine.workerRestarts(), 1u);
    // Quarantine retains the newest replicas up to its capacity.
    EXPECT_EQ(engine.quarantinedCount(),
              std::min(static_cast<size_t>(engine.workerRestarts()),
                       engine.config().quarantineCapacity));
    expectRequestsConserved(engine);
}

TEST(Resilience, QuarantineRetentionIsCapped)
{
    Prototypes &p = protos();

    // One pool worker, then inline mode: both run the same supervised
    // request lifecycle.
    for (const int workers : {1, 0}) {
        SCOPED_TRACE("numWorkers " + std::to_string(workers));
        EngineConfig cfg;
        cfg.numWorkers = workers;
        cfg.maxConsecutiveFaults = 1; // restart after every fault
        cfg.quarantineCapacity = 2;
        auto base = makeAnnReplicaFactory(p.quantNet, p.quant);
        InferenceEngine engine(cfg, [&](int id) {
            return std::make_unique<PoisonedReplica>(base(id),
                                                     /*healthy=*/0);
        });

        // Every request faults and every fault restarts the worker, the
        // pathological case where an unbounded quarantine would retain
        // one poisoned replica per request forever.
        for (int i = 0; i < 5; ++i)
            EXPECT_EQ(engine.submit(p.data.image(i)).get().error,
                      RuntimeErrorKind::ReplicaFault);
        engine.waitIdle();
        EXPECT_EQ(engine.workerRestarts(), 5u);
        EXPECT_EQ(engine.quarantinedCount(), 2u);
        expectRequestsConserved(engine);
        engine.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Closed-loop health management
// ---------------------------------------------------------------------------

/** Retention-decay ramp: conductances relaxed well past tolerance. */
ReliabilityConfig
decayRamp()
{
    ReliabilityConfig rel;
    rel.faults = std::make_shared<RetentionDecayFaultModel>(
        /*elapsed=*/5.0, /*tau=*/1.0, /*sigma=*/0.3);
    return rel;
}

TEST(Health, ClosedLoopRecoversBitExactFromRetentionDecay)
{
    Prototypes &p = protos();
    const int probe_every = 4;

    // Clean sequential reference.
    NebulaChip reference;
    reference.programAnn(p.quantNet, p.quant);
    std::vector<Tensor> expected;
    for (int i = 0; i < 16; ++i)
        expected.push_back(reference.runAnn(p.data.image(i)));

    HealthConfig hc;
    hc.probeEvery = probe_every;
    hc.tolerance = 1e-6;
    hc.maxRepairAttempts = 1;
    hc.repairWith = ReliabilityConfig{}; // re-programming resets decay
    std::vector<Tensor> canaries{p.data.image(40), p.data.image(41)};
    auto health = std::make_shared<HealthMonitor>(hc, canaries);

    EngineConfig cfg;
    cfg.numWorkers = 1; // serial worker: deterministic request order
    cfg.health = health;
    InferenceEngine engine(cfg, makeAnnReplicaFactory(p.quantNet, p.quant));

    // Pristine phase: bit-exact, and the first probe passes.
    for (int i = 0; i < probe_every; ++i)
        EXPECT_TRUE(bitIdentical(engine.submit(p.data.image(i)).get().logits,
                                 expected[static_cast<size_t>(i)]));
    engine.waitIdle();
    EXPECT_EQ(health->probes(), 1);
    EXPECT_EQ(health->degradations(), 0);
    EXPECT_EQ(health->health(0), ReplicaHealth::Healthy);

    // Age the crossbars in place: a decay ramp silently corrupts the
    // programmed conductances (no fault is *reported* anywhere).
    engine.withReplicas(
        [&](ChipReplica &replica) { EXPECT_TRUE(replica.reprogram(decayRamp())); });

    // The decayed replica now serves wrong logits...
    bool deviated = false;
    for (int i = 0; i < probe_every; ++i) {
        const InferenceResult result = engine.submit(p.data.image(i)).get();
        EXPECT_TRUE(result.ok());
        if (!bitIdentical(result.logits, expected[static_cast<size_t>(i)]))
            deviated = true;
    }
    EXPECT_TRUE(deviated) << "decay ramp failed to perturb the logits";
    engine.waitIdle();

    // ...until the canary probe caught it and re-programmed in place.
    EXPECT_EQ(health->degradations(), 1);
    EXPECT_EQ(health->repairs(), 1);
    EXPECT_EQ(health->demotions(), 0);
    EXPECT_EQ(health->health(0), ReplicaHealth::Repaired);
    EXPECT_LE(health->lastDeviation(0), hc.tolerance);

    // Recovered phase: bit-exact against the clean reference again.
    for (int i = 0; i < 8; ++i) {
        const InferenceResult result = engine.submit(p.data.image(i)).get();
        EXPECT_TRUE(result.ok());
        EXPECT_TRUE(bitIdentical(result.logits,
                                 expected[static_cast<size_t>(i)]))
            << "post-repair logits diverged on image " << i;
    }
    engine.shutdown();
}

TEST(Health, MonitorOffControlStaysDegraded)
{
    Prototypes &p = protos();

    NebulaChip reference;
    reference.programAnn(p.quantNet, p.quant);
    std::vector<Tensor> expected;
    for (int i = 0; i < 8; ++i)
        expected.push_back(reference.runAnn(p.data.image(i)));

    EngineConfig cfg;
    cfg.numWorkers = 1; // same shape as the monitored run, health off
    InferenceEngine engine(cfg, makeAnnReplicaFactory(p.quantNet, p.quant));

    engine.withReplicas(
        [&](ChipReplica &replica) { EXPECT_TRUE(replica.reprogram(decayRamp())); });

    // Serve well past the monitored engine's probe cadence: with nobody
    // probing, the degradation never heals.
    int deviant = 0;
    for (int round = 0; round < 3; ++round)
        for (int i = 0; i < 8; ++i) {
            const InferenceResult result =
                engine.submit(p.data.image(i)).get();
            EXPECT_TRUE(result.ok());
            if (!bitIdentical(result.logits,
                              expected[static_cast<size_t>(i)]))
                ++deviant;
        }
    EXPECT_GT(deviant, 0) << "control run unexpectedly self-healed";
    engine.shutdown();
}

TEST(Health, FailedRepairDemotesToFunctionalBackend)
{
    Prototypes &p = protos();
    const int probe_every = 2;

    HealthConfig hc;
    hc.probeEvery = probe_every;
    hc.tolerance = 1e-6;
    hc.maxRepairAttempts = 1;
    hc.repairWith = decayRamp(); // "repair" that cannot clear the decay
    std::vector<Tensor> canaries{p.data.image(40), p.data.image(41)};
    auto health = std::make_shared<HealthMonitor>(hc, canaries);
    health->setFallback(makeFunctionalAnnReplicaFactory(p.quantNet));

    EngineConfig cfg;
    cfg.numWorkers = 0; // inline mode: the probe ladder runs unthreaded
    cfg.health = health;
    InferenceEngine engine(cfg, makeAnnReplicaFactory(p.quantNet, p.quant));

    engine.withReplicas(
        [&](ChipReplica &replica) { EXPECT_TRUE(replica.reprogram(decayRamp())); });

    // Serve to the probe point: probe fails, the in-place repair also
    // fails (it re-applies the ramp), and the slot demotes.
    for (int i = 0; i < probe_every; ++i)
        EXPECT_TRUE(engine.submit(p.data.image(i)).get().ok());
    EXPECT_EQ(health->degradations(), 1);
    EXPECT_EQ(health->repairs(), 0);
    EXPECT_EQ(health->demotions(), 1);
    EXPECT_EQ(health->health(0), ReplicaHealth::Demoted);

    // The functional fallback keeps answering, and demoted slots are
    // never probed again (their logits are not canary-comparable).
    for (int i = 0; i < 4 * probe_every; ++i) {
        const InferenceResult result = engine.submit(p.data.image(i)).get();
        EXPECT_TRUE(result.ok());
        EXPECT_GE(result.predictedClass, 0);
        EXPECT_LT(result.predictedClass, kClasses);
    }
    EXPECT_EQ(health->demotions(), 1);
    EXPECT_EQ(health->health(0), ReplicaHealth::Demoted);
    engine.shutdown();
}

// Repair that cannot clear the damage, but a fine-tune escalation that
// can learn around it: the ladder must stop at Tuned, never reaching
// the armed demotion fallback. Uses a *trained* network (the shared
// untrained prototypes have no accuracy for the tuner to recover) and
// a retention ramp as both the damage and the futile "repair" flow.
TEST(Health, FailedRepairEscalatesToFineTuneBeforeDemotion)
{
    SyntheticDigits train(500, kImageSize, /*seed=*/61);
    Network net = buildMlp3(kImageSize, 1, kClasses, /*seed=*/71);
    TrainConfig tc;
    tc.epochs = 6;
    SgdTrainer(tc).train(net, train);
    const QuantizationResult quant =
        quantizeNetwork(net, train.firstImages(64));

    ReliabilityConfig decay;
    decay.faults = std::make_shared<RetentionDecayFaultModel>(
        /*elapsed=*/0.8, /*tau=*/1.0, /*sigma=*/0.4);
    decay.faultSeed = 99;

    HealthConfig hc;
    hc.probeEvery = 2;
    hc.tolerance = 1e-6;
    hc.maxRepairAttempts = 1;
    hc.repairWith = decay; // "repair" that re-applies the ramp
    hc.fineTune.enabled = true;
    hc.fineTune.tuning.epochs = 2;
    hc.fineTune.passRatio = 0.5;
    for (int i = 0; i < 96; ++i) {
        hc.fineTune.images.push_back(train.image(i));
        hc.fineTune.labels.push_back(train.label(i));
    }
    // Canaries outside the calibration set: agreement measures learned
    // recovery, not memorization of the tuning images.
    std::vector<Tensor> canaries;
    for (int i = 100; i < 108; ++i)
        canaries.push_back(train.image(i));
    auto health = std::make_shared<HealthMonitor>(hc, canaries);
    health->setFallback(makeFunctionalAnnReplicaFactory(net));

    EngineConfig cfg;
    cfg.numWorkers = 0; // inline mode: the probe ladder runs unthreaded
    cfg.health = health;
    InferenceEngine engine(cfg, makeAnnReplicaFactory(net, quant));

    engine.withReplicas([&](ChipReplica &replica) {
        EXPECT_TRUE(replica.reprogram(decay));
    });

    // Serve to the probe point: probe fails, the repair pass re-applies
    // the ramp and fails too, and the fine-tune escalation recovers the
    // slot in place.
    for (int i = 0; i < hc.probeEvery; ++i)
        EXPECT_EQ(engine.submit(train.image(i)).get().error,
                  RuntimeErrorKind::None);
    EXPECT_EQ(health->degradations(), 1);
    EXPECT_EQ(health->repairs(), 0);
    EXPECT_EQ(health->fineTunes(), 1);
    EXPECT_EQ(health->demotions(), 0) << "escalation fell through to demote";
    EXPECT_EQ(health->health(0), ReplicaHealth::Tuned);

    // Tuned slots are exempt from further deviation probes (their
    // logits are permanently offset from the pristine canaries) and
    // every later future still resolves to a typed outcome.
    std::vector<std::future<InferenceResult>> futures;
    for (int i = 0; i < 6 * hc.probeEvery; ++i)
        futures.push_back(engine.submit(train.image(i)));
    for (auto &future : futures) {
        const InferenceResult result = future.get();
        EXPECT_EQ(result.error, RuntimeErrorKind::None);
        EXPECT_GE(result.predictedClass, 0);
        EXPECT_LT(result.predictedClass, kClasses);
    }
    EXPECT_EQ(health->fineTunes(), 1);
    EXPECT_EQ(health->demotions(), 0);
    EXPECT_EQ(health->health(0), ReplicaHealth::Tuned);
    engine.shutdown();
}

// The canary probe runs on the worker thread after the request's
// promise is already satisfied. A replica that faults *during the
// probe* must not crash the worker (std::terminate via a second
// set_value on the settled promise) -- the probe failure is absorbed
// and later requests still resolve to typed outcomes.
TEST(Health, ThrowingProbeNeverTouchesTheSettledPromise)
{
    Prototypes &p = protos();

    HealthConfig hc;
    hc.probeEvery = 1; // probe after every request
    std::vector<Tensor> canaries{p.data.image(40)};

    EngineConfig cfg;
    cfg.numWorkers = 1;
    cfg.maxConsecutiveFaults = 0; // keep the poisoned replica in place
    cfg.health = std::make_shared<HealthMonitor>(hc, canaries);
    auto base = makeAnnReplicaFactory(p.quantNet, p.quant);
    InferenceEngine engine(cfg, [&](int id) {
        // Healthy budget 2: one run for the canary capture at engine
        // start, one for the first request. The probe that follows the
        // first request then throws inside the worker.
        return std::make_unique<PoisonedReplica>(base(id), /*healthy=*/2);
    });

    EXPECT_TRUE(engine.submit(p.data.image(0)).get().ok());
    // The worker survived the throwing probe: the next request reaches
    // the (now poisoned) replica and resolves to a typed fault instead
    // of hanging on a dead thread.
    EXPECT_EQ(engine.submit(p.data.image(1)).get().error,
              RuntimeErrorKind::ReplicaFault);

    StatGroup stats = engine.runtimeStats();
    EXPECT_EQ(stats.scalarAt("probe_failures").sum(), 1.0);
    engine.shutdown();
}

// Same hazard on the inline (numWorkers == 0) path: a throwing probe
// used to land in the inline path's catch block, whose second
// set_value threw std::future_error at the submitter instead of
// returning the future.
TEST(Health, ThrowingProbeInlineStillReturnsTypedResults)
{
    Prototypes &p = protos();

    HealthConfig hc;
    hc.probeEvery = 1;
    std::vector<Tensor> canaries{p.data.image(40)};

    EngineConfig cfg;
    cfg.numWorkers = 0;
    cfg.health = std::make_shared<HealthMonitor>(hc, canaries);
    auto base = makeAnnReplicaFactory(p.quantNet, p.quant);
    InferenceEngine engine(cfg, [&](int id) {
        return std::make_unique<PoisonedReplica>(base(id), /*healthy=*/2);
    });

    EXPECT_TRUE(engine.submit(p.data.image(0)).get().ok());
    EXPECT_EQ(engine.submit(p.data.image(1)).get().error,
              RuntimeErrorKind::ReplicaFault);
    engine.shutdown();
}

} // namespace
} // namespace nebula
