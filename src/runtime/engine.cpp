#include "runtime/engine.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "reliability/health.hpp"

namespace nebula {

namespace {

/** Smoothing of the service-time EWMA admission control reads. */
constexpr double kServiceEwmaAlpha = 0.2;

} // namespace

InferenceEngine::InferenceEngine(EngineConfig config,
                                 const ReplicaFactory &factory)
    : config_(std::move(config)), factory_(factory),
      queue_(config_.queueCapacity)
{
    // Refuse configs that cannot serve: a negative pool has no
    // workers to start, and an SNN request run for zero timesteps has
    // no evidence to classify.
    if (config_.numWorkers < 0)
        throw std::invalid_argument("EngineConfig: numWorkers must be >= 0");
    if (config_.defaultTimesteps < 1)
        throw std::invalid_argument(
            "EngineConfig: defaultTimesteps must be >= 1");
    NEBULA_ASSERT(factory_, "null replica factory");

    HealthMonitor *health = config_.health.get();
    const bool health_on = health && health->config().enabled;

    // Inline mode still builds one replica: its never-started worker
    // runs processItem on the submitting thread.
    const int count = std::max(config_.numWorkers, 1);
    std::vector<std::unique_ptr<ChipReplica>> replicas;
    replicas.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
        replicas.push_back(factory_(i));
        NEBULA_ASSERT(replicas.back(), "factory returned null replica");
    }
    if (health_on) {
        health->resizeSlots(count);
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
    hooks.abftReExecute = config_.abft.reExecute;
    hooks.abftFallback = config_.abft.fallback;
    if (config_.maxConsecutiveFaults > 0) {
        hooks.superviseRestart =
            [this](int slot, std::unique_ptr<ChipReplica> old) {
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
                obs::recordInstant("runtime", "worker.restart");
                return factory_(slot);
            };
    }

    const bool inline_mode = config_.numWorkers == 0;
    workers_.reserve(replicas.size());
    for (int i = 0; i < count; ++i)
        workers_.push_back(std::make_unique<Worker>(
            inline_mode ? -1 : i,
            std::move(replicas[static_cast<size_t>(i)]), &queue_, hooks));
    if (!inline_mode)
        for (auto &worker : workers_)
            worker->start();
    NEBULA_DEBUG("runtime", "engine up with ", config_.numWorkers,
                 " workers (0: inline), queue capacity ",
                 config_.queueCapacity);
}

InferenceEngine::~InferenceEngine()
{
    shutdown();
}

QueueItem
InferenceEngine::makeItem(InferenceRequest request)
{
    request.id = nextId_.fetch_add(1);
    if (request.timesteps == 0)
        request.timesteps = config_.defaultTimesteps;
    if (request.seed == 0)
        request.seed = seedFor(request.id);
    if (request.deadlineNs == 0)
        request.deadlineNs = config_.defaultDeadlineNs;
    QueueItem item;
    item.request = std::move(request);
    item.enqueued = std::chrono::steady_clock::now();
    if (item.request.deadlineNs > 0) {
        item.hasDeadline = true;
        item.deadline = item.enqueued +
                        std::chrono::nanoseconds(item.request.deadlineNs);
    }
    return item;
}

std::future<InferenceResult>
InferenceEngine::submit(const Tensor &image)
{
    InferenceRequest request;
    request.image = image;
    return submit(std::move(request));
}

void
InferenceEngine::shed(QueueItem &item, const char *why)
{
    shed_.fetch_add(1);
    obs::MetricsRegistry::global().counter("runtime.shed").inc();
    obs::recordInstant("runtime", "request.shed");
    settleUnevaluated(item, RuntimeErrorKind::Shed, why);
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
    QueueItem item = makeItem(std::move(request));
    std::future<InferenceResult> future = item.promise.get_future();

    // Admission control (inline mode has no queue and bypasses it).
    // Shed requests resolve immediately and are never counted in
    // submitted_/completed_ -- they were refused, not
    // accepted-then-failed.
    if (config_.numWorkers > 0 &&
        config_.shedPolicy == ShedPolicy::DeadlineAware &&
        item.request.deadlineNs > 0 && predictsDeadlineMiss(item.request)) {
        shed(item, "predicted queue wait exceeds deadline");
        return future;
    }

    // Count *before* the push so the quiesce invariant holds: any item
    // a worker can possibly be evaluating is already reflected in
    // submitted_, and waitIdle (completed_ >= submitted_) cannot return
    // while that worker still touches its replica or stats. Refusal
    // paths below (shed / closed) roll the increment back -- refused
    // requests were never accepted, so they stay uncounted.
    submitted_.fetch_add(1);
    if (config_.numWorkers == 0) {
        workers_.front()->processItem(item);
        return future;
    }
    if (config_.shedPolicy == ShedPolicy::RejectWhenFull) {
        if (!queue_.tryPush(item)) {
            rollbackSubmitted();
            if (queue_.closed())
                settleUnevaluated(item, RuntimeErrorKind::EngineStopped,
                                  "engine shut down during admission");
            else
                shed(item, "queue full");
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

    // Sampling the queue depth takes the queue mutex: only pay for it
    // when a trace session is actually recording.
    if (obs::TraceSession::enabled())
        obs::recordCounter("queue.depth",
                           static_cast<double>(queue_.size()));
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
    QueueItem item = makeItem(std::move(request));
    std::future<InferenceResult> future = item.promise.get_future();

    // A refused trySubmit burns the id it drew: rolling the *id*
    // counter back would race with concurrent producers. submitted_ is
    // different -- it is bumped before the enqueue (quiesce invariant,
    // see submit) and rolled back on refusal, which is safe because a
    // transiently inflated submitted_ only makes waitIdle conservative.
    submitted_.fetch_add(1);
    if (config_.numWorkers == 0) {
        workers_.front()->processItem(item);
    } else if (!queue_.tryPush(item)) {
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

void
InferenceEngine::noteServiceTime(double seconds)
{
    double current = serviceEwmaSec_.load(std::memory_order_relaxed);
    double next;
    do {
        next = current <= 0.0
                   ? seconds
                   : current + kServiceEwmaAlpha * (seconds - current);
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
        settleUnevaluated(item, RuntimeErrorKind::EngineStopped,
                          "request discarded: engine shut down");
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
