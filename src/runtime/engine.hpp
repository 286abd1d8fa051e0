/**
 * @file
 * Concurrent inference engine: a pool of worker threads, each
 * owning an identically-programmed NebulaChip replica, fed from one
 * bounded MPMC request queue with future-based result delivery.
 *
 *   submit / submitBatch --> [bounded queue] --> worker 0..N-1
 *                                                  |  private replica
 *                                                  v
 *                                        promise -> std::future
 *
 * Determinism guarantee: every request carries its own encoder seed
 * (derived from the request id), and replicas are programmed from the
 * same prototype with the same chip seed, so each request's output is
 * bit-identical no matter how many workers serve the pool or in which
 * order requests complete. numWorkers == 0 selects an inline mode that
 * executes synchronously on the submitting thread -- the reference
 * against which the threaded modes are tested.
 *
 * Resilience: every returned future resolves to a typed terminal
 * outcome (InferenceResult::error) -- ok, Timeout, Shed, EngineStopped,
 * ReplicaFault or Cancelled -- never a broken promise. Admission
 * control (EngineConfig::shedPolicy) can shed instead of blocking under
 * overload; per-request deadlines are enforced at dequeue; a worker
 * whose replica faults repeatedly is restarted with a fresh replica by
 * the supervisor; an attached HealthMonitor closes the loop on silent
 * crossbar drift (probe / repair / demote).
 *
 * Statistics: workers accumulate latency/throughput counters and chip
 * stats replica-locally (no locks on the hot path); chipStats() /
 * runtimeStats() quiesce the pool (waitIdle) and merge.
 */

#ifndef NEBULA_RUNTIME_ENGINE_HPP
#define NEBULA_RUNTIME_ENGINE_HPP

#include <atomic>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "arch/chip.hpp"
#include "common/stats.hpp"
#include "runtime/backoff.hpp"
#include "runtime/config.hpp"
#include "runtime/error.hpp"
#include "runtime/replica.hpp"
#include "runtime/request.hpp"
#include "runtime/request_queue.hpp"
#include "runtime/worker.hpp"

namespace nebula {

/** Worker-pool inference engine over replicated NEBULA chips. */
class InferenceEngine
{
  public:
    /**
     * Build the pool: @p factory is invoked once per worker (or once
     * total in inline mode) and must produce identically-programmed
     * replicas for the determinism guarantee to hold. The engine keeps
     * a copy of @p factory for supervisor restarts.
     */
    InferenceEngine(EngineConfig config, const ReplicaFactory &factory);

    /** Drains and joins (shutdown()) if the caller has not already. */
    ~InferenceEngine();

    InferenceEngine(const InferenceEngine &) = delete;
    InferenceEngine &operator=(const InferenceEngine &) = delete;

    /**
     * Enqueue one image with engine-default timesteps/deadline and a
     * seed derived from the assigned request id. Under ShedPolicy::Block
     * a full queue blocks the submitter (backpressure); the other
     * policies may instead return an already-resolved future carrying a
     * Shed outcome. Throws EngineStoppedError once shutdown has begun.
     */
    std::future<InferenceResult> submit(const Tensor &image);

    /**
     * Enqueue a fully-specified request. The id is always overwritten
     * with the engine's monotone counter; timesteps == 0, seed == 0 and
     * deadlineNs == 0 are replaced by the engine defaults/derivation.
     */
    std::future<InferenceResult> submit(InferenceRequest request);

    /**
     * Enqueue without blocking, regardless of shed policy.
     * @return false if the queue is full; @p out is untouched. A
     * refused call burns one request id (the shared counter is never
     * rolled back, to stay race-free with concurrent producers).
     */
    bool trySubmit(const Tensor &image, std::future<InferenceResult> &out);

    /** Enqueue a whole batch (blocking); one future per image. */
    std::vector<std::future<InferenceResult>>
    submitBatch(const std::vector<Tensor> &images);

    /** Block until every submitted request has completed. */
    void waitIdle();

    /**
     * Stop accepting new requests, drain the queue, join the workers.
     * Every outstanding future is fulfilled. Idempotent.
     */
    void shutdown();

    /**
     * Stop accepting, resolve queued (not yet running) requests to a
     * typed EngineStopped outcome without evaluating them, finish
     * in-flight ones, join the workers. Idempotent with shutdown().
     */
    void shutdownNow();

    /** True once shutdown()/shutdownNow() has begun. */
    bool isShutdown() const { return !accepting_.load(); }

    /**
     * Aggregated chip counters across all replicas (quiesces first).
     * Equals the counters of one chip serving the same requests
     * sequentially, by construction of ChipStats::merge.
     */
    ChipStats chipStats();

    /**
     * Merged runtime statistics (quiesces first): request latency /
     * service / wait distributions across workers, per-worker request
     * counts, shed/timeout/fault counters, queue high-water mark.
     */
    StatGroup runtimeStats();

    /**
     * Quiesce the pool and apply @p fn to every serving replica (inline
     * or per-worker). This is the administration hatch the resilience
     * tests and the chaos mode use to mutate live replicas -- e.g.
     * re-programming them under a retention-decay ramp to emulate aged
     * crossbars -- without tearing the engine down.
     */
    void withReplicas(const std::function<void(ChipReplica &)> &fn);

    /** Attached health monitor (null when none was configured). */
    HealthMonitor *health() const { return config_.health.get(); }

    /** Seed a request with this id would get (for reference runs). */
    uint64_t
    seedFor(uint64_t id) const
    {
        return deriveRequestSeed(config_.seedSalt, id);
    }

    uint64_t submitted() const { return submitted_.load(); }
    uint64_t completed() const { return completed_.load(); }

    /**
     * Requests accepted but not yet completed (queued + being
     * evaluated). Two relaxed loads -- cheap enough for admission
     * layers and load generators to poll per request, with no
     * MetricsRegistry scrape. Transiently conservative (high by up to
     * one) while an admission refusal is being rolled back.
     */
    uint64_t inflight() const
    {
        const uint64_t completed = completed_.load();
        const uint64_t submitted = submitted_.load();
        return submitted > completed ? submitted - completed : 0;
    }

    size_t queueDepth() const { return queue_.size(); }
    int numWorkers() const { return static_cast<int>(workers_.size()); }
    const EngineConfig &config() const { return config_; }

    /** Requests refused at admission (typed Shed outcomes). */
    uint64_t shedCount() const { return shed_.load(); }

    /** Supervisor restarts performed across the pool. */
    uint64_t workerRestarts() const { return restarts_.load(); }

    /**
     * Replicas currently retained in quarantine, in restart order.
     * Retention is bounded by EngineConfig::quarantineCapacity (newest
     * kept); workerRestarts() counts all restarts ever performed.
     */
    size_t quarantinedCount() const;

    /**
     * Running service-time estimate (seconds) driving DeadlineAware
     * admission; 0 until the first request completes.
     */
    double serviceEstimateSeconds() const
    {
        return serviceEwmaSec_.load(std::memory_order_relaxed);
    }

  private:
    /** Assign id/seed/timesteps/deadline defaults to a request. */
    void finalizeRequest(InferenceRequest &request);

    /** Execute a request synchronously on the inline replica. */
    std::future<InferenceResult> runInline(InferenceRequest request);

    /** Resolve a future immediately with a typed Shed outcome. */
    std::future<InferenceResult> shedRequest(InferenceRequest request,
                                             const char *why);

    /** Completion callback shared by workers and inline mode. */
    void noteCompleted(double service_seconds);

    /**
     * Undo the pre-enqueue submitted_ increment when admission refuses
     * a request (shed / closed queue), waking waitIdle waiters.
     */
    void rollbackSubmitted();

    /** Fold one measured service time into the admission EWMA. */
    void noteServiceTime(double seconds);

    /** Admission decision for DeadlineAware (true: shed now). */
    bool predictsDeadlineMiss(const InferenceRequest &request) const;

    void joinWorkers();

    EngineConfig config_;
    ReplicaFactory factory_; //!< kept for supervisor restarts
    BoundedQueue<QueueItem> queue_;
    std::vector<std::unique_ptr<Worker>> workers_;
    std::unique_ptr<ChipReplica> inlineReplica_; //!< numWorkers == 0
    StatGroup inlineStats_{"inline"};

    /**
     * Cached references into inlineStats_ for the per-request inline
     * path, bound once in the constructor as Worker binds its own
     * (std::map nodes are stable).
     */
    ScalarStat &inlineRequests_;
    ScalarStat &inlineLatency_;
    ScalarStat &inlineService_;
    ScalarStat &inlineWait_;
    ScalarStat &inlineSpikes_;
    Histogram &inlineLatencyHist_;
    Histogram &inlineServiceHist_;
    Histogram &inlineWaitHist_;

    /** Lazily built ABFT re-execution fallback for inline mode. */
    std::unique_ptr<ChipReplica> inlineAbftFallback_;

    std::atomic<uint64_t> nextId_{0};
    std::atomic<uint64_t> submitted_{0};
    std::atomic<uint64_t> completed_{0};
    std::atomic<uint64_t> shed_{0};
    std::atomic<uint64_t> restarts_{0};
    std::atomic<bool> accepting_{true};
    std::atomic<double> serviceEwmaSec_{0.0};

    mutable std::mutex quarantineMutex_;
    std::vector<std::unique_ptr<ChipReplica>> quarantined_;

    std::mutex idleMutex_;
    std::condition_variable idleCv_;

    std::mutex shutdownMutex_;
    bool joined_ = false;
};

/**
 * Submit @p image and wait for its result, retrying transient
 * ReplicaFault outcomes under seeded exponential backoff with jitter
 * (deterministic in @p backoff's config and @p backoff_seed). Other
 * outcomes -- ok, Timeout, Shed, Cancelled -- are terminal and returned
 * as-is; EngineStoppedError propagates. At most @p max_attempts
 * submissions are made; the last result is returned even if it is still
 * a fault.
 */
InferenceResult submitWithRetry(InferenceEngine &engine, const Tensor &image,
                                int max_attempts = 3,
                                const BackoffConfig &backoff = {},
                                uint64_t backoff_seed = 0x7265747279ull);

} // namespace nebula

#endif // NEBULA_RUNTIME_ENGINE_HPP
