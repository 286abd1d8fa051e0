#include "runtime/engine.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "reliability/health.hpp"

namespace nebula {

namespace {

// Same shape as the worker-side histograms so merges stay bin-exact.
constexpr double kLatencyLoMs = 0.0;
constexpr double kLatencyHiMs = 250.0;
constexpr int kLatencyBuckets = 500;

} // namespace

InferenceEngine::InferenceEngine(EngineConfig config,
                                 const ReplicaFactory &factory)
    : config_(std::move(config)), factory_(factory),
      queue_(config_.queueCapacity)
{
    NEBULA_ASSERT(config_.numWorkers >= 0, "negative worker count");
    NEBULA_ASSERT(factory_, "null replica factory");

    HealthMonitor *health = config_.health.get();
    const bool health_on = health && health->config().enabled;

    if (config_.numWorkers == 0) {
        inlineReplica_ = factory_(0);
        NEBULA_ASSERT(inlineReplica_, "factory returned null replica");
        if (health_on) {
            health->resizeSlots(1);
            if (!health->hasExpected())
                health->captureExpected(*inlineReplica_,
                                        config_.defaultTimesteps);
        }
        NEBULA_DEBUG("runtime", "engine up in inline mode");
        return;
    }

    std::vector<std::unique_ptr<ChipReplica>> replicas;
    replicas.reserve(static_cast<size_t>(config_.numWorkers));
    for (int i = 0; i < config_.numWorkers; ++i) {
        replicas.push_back(factory_(i));
        NEBULA_ASSERT(replicas.back(), "factory returned null replica");
    }
    if (health_on) {
        health->resizeSlots(config_.numWorkers);
        // Capture the golden canary logits from replica 0 while it is
        // still pristine -- replicas are programmed identically, so one
        // expectation covers every slot.
        if (!health->hasExpected())
            health->captureExpected(*replicas.front(),
                                    config_.defaultTimesteps);
    }

    WorkerHooks hooks;
    hooks.onComplete = [this](double service) { noteCompleted(service); };
    hooks.health = health_on ? health : nullptr;
    hooks.maxConsecutiveFaults = config_.maxConsecutiveFaults;
    hooks.traceRequests = config_.traceRequests;
    hooks.abftReExecute = config_.abft.reExecute;
    hooks.abftFallback = config_.abft.fallback;
    if (config_.maxConsecutiveFaults > 0) {
        hooks.superviseRestart =
            [this](int id, std::unique_ptr<ChipReplica> old) {
                {
                    // Bounded retention: a permanently bad worker
                    // re-trips the fault threshold forever, so keep
                    // only the newest quarantineCapacity replicas.
                    std::lock_guard<std::mutex> lock(quarantineMutex_);
                    quarantined_.push_back(std::move(old));
                    while (quarantined_.size() > config_.quarantineCapacity)
                        quarantined_.erase(quarantined_.begin());
                }
                restarts_.fetch_add(1);
                obs::MetricsRegistry::global()
                    .counter("runtime.worker_restart")
                    .inc();
                obs::recordInstant("runtime", "worker.restart",
                                   config_.traceRequests);
                return factory_(id);
            };
    }

    workers_.reserve(replicas.size());
    for (int i = 0; i < config_.numWorkers; ++i)
        workers_.push_back(std::make_unique<Worker>(
            i, std::move(replicas[static_cast<size_t>(i)]), &queue_,
            hooks));
    for (auto &worker : workers_)
        worker->start();
    NEBULA_DEBUG("runtime", "engine up with ", config_.numWorkers,
                 " workers, queue capacity ", config_.queueCapacity);
}

InferenceEngine::~InferenceEngine()
{
    shutdown();
}

void
InferenceEngine::finalizeRequest(InferenceRequest &request)
{
    request.id = nextId_.fetch_add(1);
    if (request.timesteps == 0)
        request.timesteps = config_.defaultTimesteps;
    if (request.seed == 0)
        request.seed = seedFor(request.id);
    if (request.deadlineNs == 0)
        request.deadlineNs = config_.defaultDeadlineNs;
}

std::future<InferenceResult>
InferenceEngine::submit(const Tensor &image)
{
    InferenceRequest request;
    request.image = image;
    return submit(std::move(request));
}

std::future<InferenceResult>
InferenceEngine::shedRequest(InferenceRequest request, const char *why)
{
    shed_.fetch_add(1);
    obs::MetricsRegistry::global().counter("runtime.shed").inc();
    obs::recordInstant("runtime", "request.shed", config_.traceRequests);
    InferenceResult result;
    result.id = request.id;
    result.error = RuntimeErrorKind::Shed;
    result.errorMessage = why;
    std::promise<InferenceResult> promise;
    promise.set_value(std::move(result));
    return promise.get_future();
}

bool
InferenceEngine::predictsDeadlineMiss(const InferenceRequest &request) const
{
    const double ewma = serviceEwmaSec_.load(std::memory_order_relaxed);
    if (ewma <= 0.0)
        return false; // no service-time evidence yet: admit
    const int workers = std::max(1, static_cast<int>(workers_.size()));
    const double predicted_wait_ns =
        1e9 * ewma * static_cast<double>(queue_.size() + 1) / workers;
    return predicted_wait_ns > static_cast<double>(request.deadlineNs);
}

std::future<InferenceResult>
InferenceEngine::submit(InferenceRequest request)
{
    if (!accepting_.load())
        throw EngineStoppedError("InferenceEngine is shut down");
    finalizeRequest(request);

    if (inlineReplica_)
        return runInline(std::move(request));

    // Admission control. Shed requests resolve immediately and are
    // never counted in submitted_/completed_ -- they were refused, not
    // accepted-then-failed.
    if (config_.shedPolicy == ShedPolicy::DeadlineAware &&
        request.deadlineNs > 0 && predictsDeadlineMiss(request))
        return shedRequest(std::move(request),
                           "predicted queue wait exceeds deadline");

    QueueItem item;
    item.request = std::move(request);
    item.enqueued = std::chrono::steady_clock::now();
    if (item.request.deadlineNs > 0) {
        item.hasDeadline = true;
        item.deadline = item.enqueued +
                        std::chrono::nanoseconds(item.request.deadlineNs);
    }
    std::future<InferenceResult> future = item.promise.get_future();

    // Count *before* the push so the quiesce invariant holds: any item
    // a worker can possibly be evaluating is already reflected in
    // submitted_, and waitIdle (completed_ >= submitted_) cannot return
    // while that worker still touches its replica or stats. Refusal
    // paths below (shed / closed) roll the increment back -- refused
    // requests were never accepted, so they stay uncounted.
    submitted_.fetch_add(1);
    if (config_.shedPolicy == ShedPolicy::RejectWhenFull) {
        if (!queue_.tryPush(item)) {
            rollbackSubmitted();
            if (queue_.closed()) {
                InferenceResult result;
                result.id = item.request.id;
                result.error = RuntimeErrorKind::EngineStopped;
                result.errorMessage = "engine shut down during admission";
                item.promise.set_value(std::move(result));
                return future;
            }
            shed_.fetch_add(1);
            obs::MetricsRegistry::global().counter("runtime.shed").inc();
            obs::recordInstant("runtime", "request.shed",
                               config_.traceRequests);
            InferenceResult result;
            result.id = item.request.id;
            result.error = RuntimeErrorKind::Shed;
            result.errorMessage = "queue full";
            item.promise.set_value(std::move(result));
            return future;
        }
    } else if (!queue_.push(std::move(item))) {
        // Closed while we were blocked on a full queue: the item came
        // back untouched only conceptually (push consumed it), but its
        // promise was moved with it -- so we cannot fulfil it here.
        // push() only fails after close(), which shutdown() performs
        // strictly after accepting_ went false, so report typed stop.
        rollbackSubmitted();
        throw EngineStoppedError("InferenceEngine shut down during submit");
    }

    obs::recordCounter("queue.depth", static_cast<double>(queue_.size()),
                       config_.traceRequests);
    return future;
}

bool
InferenceEngine::trySubmit(const Tensor &image,
                           std::future<InferenceResult> &out)
{
    if (!accepting_.load())
        throw EngineStoppedError("InferenceEngine is shut down");

    InferenceRequest request;
    request.image = image;
    finalizeRequest(request);
    if (inlineReplica_) {
        out = runInline(std::move(request));
        return true;
    }

    QueueItem item;
    item.request = std::move(request);
    item.enqueued = std::chrono::steady_clock::now();
    if (item.request.deadlineNs > 0) {
        item.hasDeadline = true;
        item.deadline = item.enqueued +
                        std::chrono::nanoseconds(item.request.deadlineNs);
    }
    std::future<InferenceResult> future = item.promise.get_future();

    // A refused trySubmit burns the id it drew: rolling the *id*
    // counter back would race with concurrent producers. submitted_ is
    // different -- it is bumped before the enqueue (quiesce invariant,
    // see submit) and rolled back on refusal, which is safe because a
    // transiently inflated submitted_ only makes waitIdle conservative.
    submitted_.fetch_add(1);
    if (!queue_.tryPush(item)) {
        rollbackSubmitted();
        return false;
    }
    out = std::move(future);
    return true;
}

std::vector<std::future<InferenceResult>>
InferenceEngine::submitBatch(const std::vector<Tensor> &images)
{
    std::vector<std::future<InferenceResult>> futures;
    futures.reserve(images.size());
    for (const Tensor &image : images)
        futures.push_back(submit(image));
    return futures;
}

std::future<InferenceResult>
InferenceEngine::runInline(InferenceRequest request)
{
    submitted_.fetch_add(1);
    std::promise<InferenceResult> promise;
    std::future<InferenceResult> future = promise.get_future();
    const auto start = std::chrono::steady_clock::now();
    obs::TraceSpan span("runtime", "request", config_.traceRequests,
                        /*sampled_root=*/true);
    span.arg("id", static_cast<double>(request.id));
    obs::recordFlowStep("runtime", "request.flow", request.traceId,
                        config_.traceRequests);

    if (request.cancel && request.cancel->load(std::memory_order_acquire)) {
        inlineStats_.scalar("cancelled").inc();
        obs::MetricsRegistry::global().counter("runtime.cancelled").inc();
        InferenceResult result;
        result.id = request.id;
        result.error = RuntimeErrorKind::Cancelled;
        result.errorMessage = "request cancelled before evaluation";
        promise.set_value(std::move(result));
        noteCompleted(-1.0);
        return future;
    }

    double service = -1.0;
    bool violated = false;
    try {
        InferenceResult result = inlineReplica_->run(request);
        // Inline-mode mirror of the worker's hedged re-execution: a
        // flagged result is re-run once on the lazily built fallback
        // before the promise settles (see Worker::handleViolation).
        if (result.integrity.violations > 0 && result.ok()) {
            violated = true;
            inlineStats_.scalar("abft.violations").inc();
            obs::MetricsRegistry::global()
                .counter("abft.request_violations")
                .inc();
            obs::recordInstant("runtime", "abft.violation",
                               config_.traceRequests);
            if (config_.abft.reExecute && config_.abft.fallback) {
                if (!inlineAbftFallback_)
                    inlineAbftFallback_ = config_.abft.fallback(0);
                if (inlineAbftFallback_) {
                    try {
                        InferenceResult redo =
                            inlineAbftFallback_->run(request);
                        // Keep the original's detection verdict (see
                        // Worker::handleViolation).
                        redo.integrity.checks += result.integrity.checks;
                        redo.integrity.violations +=
                            result.integrity.violations;
                        redo.integrity.reExecuted = true;
                        result = std::move(redo);
                        inlineStats_.scalar("abft.reexecutions").inc();
                        obs::MetricsRegistry::global()
                            .counter("abft.reexecutions")
                            .inc();
                        obs::recordInstant("runtime", "abft.reexecute",
                                           config_.traceRequests);
                    } catch (...) {
                        // Keep the flagged original; a faulting
                        // fallback must not unseat a typed answer.
                        obs::MetricsRegistry::global()
                            .counter("abft.reexec_fault")
                            .inc();
                    }
                }
            }
        }
        const auto end = std::chrono::steady_clock::now();
        result.id = request.id;
        result.workerId = -1;
        result.serviceSeconds =
            std::chrono::duration<double>(end - start).count();
        span.arg("service_ms", 1e3 * result.serviceSeconds);
        inlineStats_.scalar("requests").inc();
        inlineStats_.scalar("latency_ms").sample(1e3 *
                                                 result.serviceSeconds);
        inlineStats_.scalar("service_ms").sample(1e3 *
                                                 result.serviceSeconds);
        inlineStats_.scalar("wait_ms").sample(0.0);
        inlineStats_
            .histogram("latency_ms.hist", kLatencyLoMs, kLatencyHiMs,
                       kLatencyBuckets)
            .sample(1e3 * result.serviceSeconds);
        inlineStats_
            .histogram("service_ms.hist", kLatencyLoMs, kLatencyHiMs,
                       kLatencyBuckets)
            .sample(1e3 * result.serviceSeconds);
        inlineStats_
            .histogram("wait_ms.hist", kLatencyLoMs, kLatencyHiMs,
                       kLatencyBuckets)
            .sample(0.0);
        inlineStats_.scalar("spikes").add(
            static_cast<double>(result.spikes));
        service = result.serviceSeconds;
        promise.set_value(std::move(result));
    } catch (const std::exception &e) {
        inlineStats_.scalar("failures").inc();
        obs::MetricsRegistry::global().counter("runtime.replica_fault").inc();
        obs::recordInstant("runtime", "request.failed",
                           config_.traceRequests);
        InferenceResult result;
        result.id = request.id;
        result.workerId = -1;
        result.error = RuntimeErrorKind::ReplicaFault;
        result.errorMessage = e.what();
        promise.set_value(std::move(result));
    } catch (...) {
        inlineStats_.scalar("failures").inc();
        obs::MetricsRegistry::global().counter("runtime.replica_fault").inc();
        obs::recordInstant("runtime", "request.failed",
                           config_.traceRequests);
        InferenceResult result;
        result.id = request.id;
        result.workerId = -1;
        result.error = RuntimeErrorKind::ReplicaFault;
        result.errorMessage = "replica threw a non-std exception";
        promise.set_value(std::move(result));
    }

    // A violation escalates the health probe immediately (promise
    // already settled), mirroring the worker path: no waiting for the
    // probeEvery cadence once detection has flagged the replica.
    if (violated && config_.health && config_.health->config().enabled) {
        try {
            config_.health->probeNow(0, inlineReplica_);
        } catch (...) {
            inlineStats_.scalar("probe_failures").inc();
            obs::MetricsRegistry::global()
                .counter("health.probe_fault")
                .inc();
            obs::recordInstant("runtime", "health.probe_fault",
                               config_.traceRequests);
        }
    }

    // Probe after a successful request, with the promise already
    // settled and outside the try/catch above: a throwing probe is
    // absorbed and counted here -- re-entering the catch would call
    // set_value on a satisfied promise and throw std::future_error at
    // the submitter instead of returning the typed-result future.
    if (service >= 0.0 && config_.health &&
        config_.health->config().enabled) {
        try {
            config_.health->afterRequest(0, inlineReplica_);
        } catch (...) {
            inlineStats_.scalar("probe_failures").inc();
            obs::MetricsRegistry::global()
                .counter("health.probe_fault")
                .inc();
            obs::recordInstant("runtime", "health.probe_fault",
                               config_.traceRequests);
        }
    }
    noteCompleted(service);
    return future;
}

void
InferenceEngine::noteServiceTime(double seconds)
{
    double current = serviceEwmaSec_.load(std::memory_order_relaxed);
    double next;
    do {
        next = current <= 0.0
                   ? seconds
                   : current + config_.serviceEwmaAlpha * (seconds - current);
    } while (!serviceEwmaSec_.compare_exchange_weak(
        current, next, std::memory_order_relaxed));
}

void
InferenceEngine::noteCompleted(double service_seconds)
{
    if (service_seconds >= 0.0)
        noteServiceTime(service_seconds);
    completed_.fetch_add(1);
    {
        std::lock_guard<std::mutex> lock(idleMutex_);
    }
    idleCv_.notify_all();
}

void
InferenceEngine::rollbackSubmitted()
{
    submitted_.fetch_sub(1);
    // The decrement can flip waitIdle's predicate true, so wake any
    // waiter the same way noteCompleted does.
    {
        std::lock_guard<std::mutex> lock(idleMutex_);
    }
    idleCv_.notify_all();
}

void
InferenceEngine::waitIdle()
{
    std::unique_lock<std::mutex> lock(idleMutex_);
    idleCv_.wait(lock,
                 [&] { return completed_.load() >= submitted_.load(); });
}

void
InferenceEngine::shutdown()
{
    std::lock_guard<std::mutex> lock(shutdownMutex_);
    accepting_.store(false);
    if (joined_)
        return;
    NEBULA_DEBUG("runtime", "engine shutdown: waiting for ",
                 submitted_.load() - completed_.load(),
                 " in-flight requests");
    waitIdle();
    queue_.close();
    joinWorkers();
}

void
InferenceEngine::shutdownNow()
{
    std::lock_guard<std::mutex> lock(shutdownMutex_);
    accepting_.store(false);
    if (joined_)
        return;
    auto pending = queue_.drain();
    queue_.close();
    for (QueueItem &item : pending) {
        InferenceResult result;
        result.id = item.request.id;
        result.error = RuntimeErrorKind::EngineStopped;
        result.errorMessage = "request discarded: engine shut down";
        item.promise.set_value(std::move(result));
        noteCompleted(-1.0);
    }
    waitIdle();
    joinWorkers();
}

void
InferenceEngine::joinWorkers()
{
    for (auto &worker : workers_)
        worker->join();
    joined_ = true;
}

ChipStats
InferenceEngine::chipStats()
{
    waitIdle();
    ChipStats total;
    if (inlineReplica_ && inlineReplica_->chipStats())
        total.merge(*inlineReplica_->chipStats());
    for (const auto &worker : workers_)
        if (const ChipStats *stats = worker->replica().chipStats())
            total.merge(*stats);
    return total;
}

void
InferenceEngine::withReplicas(const std::function<void(ChipReplica &)> &fn)
{
    NEBULA_ASSERT(fn, "null replica function");
    // Quiesce first: workers blocked in pop() are not touching their
    // replica, and the completed_ handshake in noteCompleted gives this
    // thread a happens-before edge over each worker's last replica use.
    // The caller must not submit concurrently with this call.
    waitIdle();
    if (inlineReplica_)
        fn(*inlineReplica_);
    for (auto &worker : workers_)
        fn(*worker->replicaSlot());
}

size_t
InferenceEngine::quarantinedCount() const
{
    std::lock_guard<std::mutex> lock(quarantineMutex_);
    return quarantined_.size();
}

StatGroup
InferenceEngine::runtimeStats()
{
    waitIdle();
    StatGroup group("runtime");
    if (inlineReplica_)
        group.merge(inlineStats_);
    for (const auto &worker : workers_) {
        group.merge(worker->stats());
        if (worker->stats().hasScalar("requests"))
            group
                .scalar("worker" + std::to_string(worker->id()) +
                        ".requests")
                .add(worker->stats().scalarAt("requests").sum());
    }
    group.scalar("queue.capacity").add(
        static_cast<double>(queue_.capacity()));
    group.scalar("queue.high_water").add(
        static_cast<double>(queue_.highWater()));
    group.scalar("submitted").add(static_cast<double>(submitted_.load()));
    group.scalar("completed").add(static_cast<double>(completed_.load()));
    group.scalar("shed").add(static_cast<double>(shed_.load()));
    group.scalar("worker_restarts").add(
        static_cast<double>(restarts_.load()));
    return group;
}

InferenceResult
submitWithRetry(InferenceEngine &engine, const Tensor &image,
                int max_attempts, const BackoffConfig &backoff,
                uint64_t backoff_seed)
{
    NEBULA_ASSERT(max_attempts >= 1, "need at least one attempt");
    ExponentialBackoff delays(backoff, backoff_seed);
    InferenceResult result;
    for (int attempt = 1;; ++attempt) {
        result = engine.submit(image).get();
        if (result.error != RuntimeErrorKind::ReplicaFault ||
            attempt >= max_attempts)
            return result;
        obs::MetricsRegistry::global().counter("runtime.retry").inc();
        obs::recordInstant("runtime", "request.retry");
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(delays.nextDelayNs()));
    }
}

} // namespace nebula
