/**
 * @file
 * Worker thread of the inference engine: pops requests from the shared
 * bounded queue, runs them on its private chip replica, fulfils the
 * request's promise and records latency/throughput into a worker-local
 * StatGroup. All per-request accounting is thread-local; the engine
 * merges it only after the pool has quiesced, so the hot path takes no
 * locks beyond the queue's own.
 *
 * Lifecycle hardening: every popped request reaches a typed terminal
 * outcome -- evaluated (ok), expired (Timeout), cancelled (Cancelled)
 * or failed (ReplicaFault) -- and the promise is always fulfilled with
 * a value, never broken and never an exception. A replica that throws
 * repeatedly is quarantined and replaced by the supervisor hook; the
 * optional health monitor probes the replica between requests and may
 * swap it too (repair / demotion).
 *
 * The engine's inline mode (numWorkers == 0) owns one Worker with id -1
 * that is never started: it calls processItem on the submitting thread,
 * so inline requests run this same lifecycle without a queue hop.
 */

#ifndef NEBULA_RUNTIME_WORKER_HPP
#define NEBULA_RUNTIME_WORKER_HPP

#include <algorithm>
#include <functional>
#include <memory>
#include <thread>

#include "common/stats.hpp"
#include "runtime/replica.hpp"
#include "runtime/request.hpp"
#include "runtime/request_queue.hpp"

namespace nebula {

class HealthMonitor;

/** Engine callbacks and resilience knobs wired into each worker. */
struct WorkerHooks
{
    /**
     * Fired after each processed request has been fully accounted (promise
     * fulfilled, worker-local stats written, health probe done).
     * @p service_seconds is the replica evaluation time, or a negative
     * value when the request was shed without evaluation (timeout /
     * cancel / fault) -- the engine's service-time EWMA skips those.
     */
    std::function<void(double service_seconds)> onComplete;

    /**
     * Supervisor restart: called from processItem's thread after
     * maxConsecutiveFaults consecutive ReplicaFault outcomes with the
     * poisoned replica; returns its freshly programmed replacement
     * (typically a new clone from the engine's factory, with the old
     * one quarantined for inspection). Null: no supervision.
     */
    std::function<std::unique_ptr<ChipReplica>(
        int slot, std::unique_ptr<ChipReplica> old)>
        superviseRestart;

    /** Closed-loop health monitor (slot = Worker::slot()); null: off. */
    HealthMonitor *health = nullptr;

    /** Consecutive-fault threshold for superviseRestart (0: off). */
    int maxConsecutiveFaults = 0;

    /**
     * Hedged re-execution of ABFT-flagged results (EngineConfig::abft):
     * when a result carries integrity violations and the deadline still
     * has room, the worker re-runs the request once on its lazily built
     * fallback replica before settling the promise, then asks the
     * health monitor to probe the offending slot immediately (no
     * waiting for probeEvery).
     */
    bool abftReExecute = false;

    /** Fallback replica factory for flagged re-runs (null: none). */
    std::function<std::unique_ptr<ChipReplica>(int)> abftFallback;
};

/** One worker thread plus its private replica and local stats. */
class Worker
{
  public:
    /**
     * @param id       0-based worker id, or -1 for the engine's inline
     *                 worker (see slot()).
     * @param replica  Private chip replica (takes ownership).
     * @param queue    Shared request queue (not owned).
     * @param hooks    Engine callbacks / resilience knobs.
     */
    Worker(int id, std::unique_ptr<ChipReplica> replica,
           BoundedQueue<QueueItem> *queue, WorkerHooks hooks);

    Worker(const Worker &) = delete;
    Worker &operator=(const Worker &) = delete;

    /** Launch the thread (runs until the queue closes and drains). */
    void start();

    /** Join the thread (must follow queue close). */
    void join();

    int id() const { return id_; }

    /**
     * Health slot and factory id of this worker's replica: the worker
     * id, or 0 for the inline worker (id -1).
     */
    int slot() const { return std::max(id_, 0); }

    /**
     * Evaluate (or shed) one request and settle its promise. The worker
     * thread calls it for every popped item; the engine's inline mode
     * calls it on the submitting thread of a never-started worker.
     */
    void processItem(QueueItem &item);

    /**
     * Worker-local request statistics. Safe to read only while the
     * worker is quiescent (engine guarantees this via waitIdle).
     */
    const StatGroup &stats() const { return stats_; }

    const ChipReplica &replica() const { return *replica_; }

    /**
     * Mutable replica access for the engine's quiesced administration
     * paths (withReplicas). Same quiescence contract as stats().
     */
    std::unique_ptr<ChipReplica> &replicaSlot() { return replica_; }

  private:
    void loop();

    /** Supervisor restart once maxConsecutiveFaults is reached. */
    void maybeRestartReplica();

    /**
     * Handle a result that came back with ABFT violations: bill the
     * abft.* metrics, optionally re-execute on the fallback replica
     * (bounded to one attempt, skipped when the deadline has lapsed)
     * and remember to escalate the health probe after the promise is
     * settled. Returns true when the result was replaced by a clean
     * fallback re-run.
     */
    bool handleViolation(const QueueItem &item, InferenceResult &result);

    /** Immediate health probe of this slot (after promise settle). */
    void escalateHealthProbe();

    int id_;
    std::unique_ptr<ChipReplica> replica_;
    BoundedQueue<QueueItem> *queue_;
    WorkerHooks hooks_;
    int consecutiveFaults_ = 0;

    /** Lazily built fallback replica for ABFT re-execution. */
    std::unique_ptr<ChipReplica> abftFallback_;

    StatGroup stats_;

    /**
     * Cached references into stats_, bound once in the constructor
     * (std::map nodes are stable, so they survive later stat
     * creation): the per-request hot path skips the string-keyed
     * lookups that would otherwise run ~10 times per request.
     */
    ScalarStat &requestsStat_;
    ScalarStat &latencyStat_;
    ScalarStat &serviceStat_;
    ScalarStat &waitStat_;
    ScalarStat &spikesStat_;
    Histogram &latencyHist_;
    Histogram &serviceHist_;
    Histogram &waitHist_;

    std::thread thread_;
};

} // namespace nebula

#endif // NEBULA_RUNTIME_WORKER_HPP
