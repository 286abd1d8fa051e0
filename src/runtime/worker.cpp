#include "runtime/worker.hpp"

#include <chrono>
#include <exception>
#include <utility>

#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "reliability/health.hpp"

namespace nebula {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start,
             std::chrono::steady_clock::time_point end)
{
    return std::chrono::duration<double>(end - start).count();
}

// Latency histogram shape shared by all workers so the engine-level
// merge is bin-exact: 0..250 ms in 500 half-ms buckets.
constexpr double kLatencyLoMs = 0.0;
constexpr double kLatencyHiMs = 250.0;
constexpr int kLatencyBuckets = 500;

/** Message of a replica fault, whether or not it is a std::exception. */
std::string
faultMessage(const std::exception_ptr &fault)
{
    try {
        std::rethrow_exception(fault);
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "replica threw a non-std exception";
    }
}

} // namespace

Worker::Worker(int id, std::unique_ptr<ChipReplica> replica,
               BoundedQueue<QueueItem> *queue, WorkerHooks hooks)
    : id_(id), replica_(std::move(replica)), queue_(queue),
      hooks_(std::move(hooks)), stats_("worker" + std::to_string(id)),
      requestsStat_(stats_.scalar("requests")),
      latencyStat_(stats_.scalar("latency_ms")),
      serviceStat_(stats_.scalar("service_ms")),
      waitStat_(stats_.scalar("wait_ms")),
      spikesStat_(stats_.scalar("spikes")),
      latencyHist_(stats_.histogram("latency_ms.hist", kLatencyLoMs,
                                    kLatencyHiMs, kLatencyBuckets)),
      serviceHist_(stats_.histogram("service_ms.hist", kLatencyLoMs,
                                    kLatencyHiMs, kLatencyBuckets)),
      waitHist_(stats_.histogram("wait_ms.hist", kLatencyLoMs,
                                 kLatencyHiMs, kLatencyBuckets))
{
}

void
Worker::start()
{
    thread_ = std::thread([this] { loop(); });
}

void
Worker::join()
{
    if (thread_.joinable())
        thread_.join();
}

void
Worker::loop()
{
    obs::setThreadName("worker" + std::to_string(id_));
    NEBULA_DEBUG("runtime", "worker", id_, " started");
    while (auto item = queue_->pop())
        processItem(*item);
    NEBULA_DEBUG("runtime", "worker", id_, " draining done, exiting");
}

void
Worker::processItem(QueueItem &item)
{
    const auto start = std::chrono::steady_clock::now();
    const double wait = secondsSince(item.enqueued, start);

    // Non-evaluated terminal outcomes, checked at dequeue: a
    // cancelled or expired request is shed without touching the
    // replica -- under overload this is what keeps the tail of the
    // queue from wasting chip time on answers nobody can use.
    if (item.request.cancel &&
        item.request.cancel->load(std::memory_order_acquire)) {
        stats_.scalar("cancelled").inc();
        obs::MetricsRegistry::global().counter("runtime.cancelled").inc();
        obs::recordInstant("runtime", "request.cancelled");
        settleUnevaluated(item, RuntimeErrorKind::Cancelled,
                          "request cancelled before evaluation", id_, wait);
        hooks_.onComplete(-1.0);
        return;
    }
    if (item.hasDeadline && start > item.deadline) {
        stats_.scalar("timeouts").inc();
        obs::MetricsRegistry::global().counter("runtime.timeout").inc();
        obs::recordInstant("runtime", "request.timeout");
        settleUnevaluated(item, RuntimeErrorKind::Timeout,
                          "deadline expired in queue", id_, wait);
        hooks_.onComplete(-1.0);
        return;
    }

    // The request span is a sampling root: TraceConfig::sampleEvery
    // applies to it and suppresses the chip/noc spans nested inside
    // replica_->run() when this request is sampled out. Queue wait
    // is attached as an arg (not a span) so per-thread timestamps
    // stay monotonic.
    obs::TraceSpan span("runtime", "request", /*enabled=*/true,
                        /*sampled_root=*/true);
    span.arg("id", static_cast<double>(item.request.id));
    span.arg("wait_ms", 1e3 * wait);
    // Distributed-trace hop: a request carrying wire trace context
    // links its worker evaluation into the client/server flow.
    obs::recordFlowStep("runtime", "request.flow", item.request.traceId);
    // Sampling the queue depth takes the queue mutex: only pay for it
    // when a trace session is actually recording.
    if (obs::TraceSession::enabled())
        obs::recordCounter("queue.depth",
                           static_cast<double>(queue_->size()));
    double service = -1.0;
    bool violated = false;
    try {
        InferenceResult result = replica_->run(item.request);
        // ABFT verdict check before any bookkeeping fields are filled:
        // a hedged re-run replaces the whole result, and the service
        // time measured below then covers original + re-run honestly.
        if (result.integrity.violations > 0 && result.ok()) {
            violated = true;
            handleViolation(item, result);
        }
        const auto end = std::chrono::steady_clock::now();
        result.id = item.request.id;
        result.workerId = id_;
        result.queueSeconds = wait;
        result.serviceSeconds = secondsSince(start, end);
        service = result.serviceSeconds;
        span.arg("service_ms", 1e3 * result.serviceSeconds);

        requestsStat_.inc();
        latencyStat_.sample(1e3 * (wait + result.serviceSeconds));
        serviceStat_.sample(1e3 * result.serviceSeconds);
        waitStat_.sample(1e3 * wait);
        latencyHist_.sample(1e3 * (wait + result.serviceSeconds));
        serviceHist_.sample(1e3 * result.serviceSeconds);
        waitHist_.sample(1e3 * wait);
        spikesStat_.add(static_cast<double>(result.spikes));

        item.promise.set_value(std::move(result));
        consecutiveFaults_ = 0;
    } catch (...) {
        stats_.scalar("failures").inc();
        obs::MetricsRegistry::global()
            .counter("runtime.replica_fault")
            .inc();
        obs::recordInstant("runtime", "request.failed");
        settleUnevaluated(item, RuntimeErrorKind::ReplicaFault,
                          faultMessage(std::current_exception()), id_, wait);
        ++consecutiveFaults_;
    }

    // An ABFT violation escalates the health ladder immediately --
    // detection already proved this replica computes wrong sums, so
    // waiting for the probeEvery cadence would keep serving corrupt
    // results in the meantime. Runs after the promise is settled for
    // the same reason as the periodic probe below.
    if (violated)
        escalateHealthProbe();

    // Probe between requests, after the caller has its answer: the
    // canary cost lands on the worker, not on any request's
    // latency. May repair or swap replica_ (demotion). The probe
    // runs only after a successful evaluation (service >= 0) and
    // OUTSIDE the request's try block: the promise above is already
    // satisfied, so a throwing probe must be absorbed here -- it is
    // accounted as a fault (feeding the supervisor) and must never
    // reach settleUnevaluated, which would set the promise a second
    // time.
    if (service >= 0.0 && hooks_.health) {
        try {
            hooks_.health->afterRequest(slot(), replica_);
        } catch (...) {
            stats_.scalar("probe_failures").inc();
            obs::MetricsRegistry::global()
                .counter("health.probe_fault")
                .inc();
            obs::recordInstant("runtime", "health.probe_fault");
            ++consecutiveFaults_;
        }
    }

    maybeRestartReplica();

    hooks_.onComplete(service);
}

bool
Worker::handleViolation(const QueueItem &item, InferenceResult &result)
{
    auto &registry = obs::MetricsRegistry::global();
    stats_.scalar("abft.violations").inc();
    registry.counter("abft.request_violations").inc();
    obs::recordInstant("runtime", "abft.violation");

    if (!hooks_.abftReExecute || !hooks_.abftFallback)
        return false;
    // Deadline-aware hedging: once the request's budget has lapsed, a
    // re-run can only turn a flagged-but-delivered answer into a late
    // one. The flagged original (with integrity.violations set) is the
    // better outcome -- the client sees the corruption verdict.
    if (item.hasDeadline &&
        std::chrono::steady_clock::now() > item.deadline)
        return false;
    if (!abftFallback_) {
        abftFallback_ = hooks_.abftFallback(slot());
        if (!abftFallback_)
            return false;
    }
    try {
        // Exactly one re-execution attempt, with the request's own
        // seed (carried inside item.request), so a stochastic SNN
        // re-run is reproducible.
        InferenceResult redo = abftFallback_->run(item.request);
        // The redo keeps the original's detection verdict: the client
        // must see that checksums ran and flagged this request, not a
        // blank report from the checksum-free fallback.
        redo.integrity.checks += result.integrity.checks;
        redo.integrity.violations += result.integrity.violations;
        redo.integrity.reExecuted = true;
        result = std::move(redo);
        stats_.scalar("abft.reexecutions").inc();
        registry.counter("abft.reexecutions").inc();
        obs::recordInstant("runtime", "abft.reexecute");
        return true;
    } catch (...) {
        // A faulting fallback must not unseat the flagged original:
        // the promise chain still delivers a typed answer either way.
        registry.counter("abft.reexec_fault").inc();
        return false;
    }
}

void
Worker::escalateHealthProbe()
{
    if (!hooks_.health)
        return;
    try {
        hooks_.health->probeNow(slot(), replica_);
    } catch (...) {
        stats_.scalar("probe_failures").inc();
        obs::MetricsRegistry::global().counter("health.probe_fault").inc();
        obs::recordInstant("runtime", "health.probe_fault");
        ++consecutiveFaults_;
    }
}

void
Worker::maybeRestartReplica()
{
    if (hooks_.superviseRestart && hooks_.maxConsecutiveFaults > 0 &&
        consecutiveFaults_ >= hooks_.maxConsecutiveFaults) {
        NEBULA_DEBUG("runtime", "worker", id_, " restarting after ",
                     consecutiveFaults_, " consecutive faults");
        stats_.scalar("restarts").inc();
        replica_ = hooks_.superviseRestart(slot(), std::move(replica_));
        NEBULA_ASSERT(replica_, "supervisor returned null replica");
        consecutiveFaults_ = 0;
    }
}

} // namespace nebula
