/**
 * @file
 * Request/result types for the concurrent inference runtime.
 *
 * A request carries one input image plus the per-request knobs that
 * make execution order-independent: the SNN encoder seed travels with
 * the request (not with the chip), so a request produces bit-identical
 * output no matter which worker replica serves it or in which order.
 *
 * Lifecycle hardening: a request may carry a deadline (a latency budget
 * measured from submit) and a cancel flag; both are honoured at dequeue
 * -- an expired or cancelled request is shed without evaluation and its
 * future resolves to a typed terminal outcome (RuntimeErrorKind) inside
 * the result, never a broken promise.
 */

#ifndef NEBULA_RUNTIME_REQUEST_HPP
#define NEBULA_RUNTIME_REQUEST_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <utility>

#include "arch/energy_breakdown.hpp"
#include "nn/tensor.hpp"
#include "runtime/error.hpp"

namespace nebula {

/**
 * Shared cancellation flag: the submitter keeps one reference, the
 * request another; store(true) makes a still-queued request resolve to
 * Cancelled at dequeue instead of being evaluated.
 */
using CancelFlag = std::shared_ptr<std::atomic<bool>>;

/** One inference request submitted to the engine. */
struct InferenceRequest
{
    uint64_t id = 0;     //!< engine-assigned, monotonically increasing
    Tensor image;        //!< (C, H, W) input in [0, 1]
    int timesteps = 0;   //!< SNN/hybrid evidence window (0: engine default)
    uint64_t seed = 0;   //!< SNN/hybrid encoder seed (0: derived from id)

    /**
     * Latency budget from submit (ns); 0 selects the engine default
     * (EngineConfig::defaultDeadlineNs, itself 0 = no deadline). A
     * request whose budget has lapsed before a worker picks it up is
     * shed with a Timeout outcome; deadline-aware admission control can
     * also shed it at submit when the predicted queue wait alone would
     * blow the budget.
     */
    uint64_t deadlineNs = 0;

    /** Optional cancellation flag (null: not cancellable). */
    CancelFlag cancel;

    /**
     * Distributed trace context (Perfetto flow id), 0 when absent. The
     * serving layer copies it from the wire frame header so client
     * submit, server dispatch and worker evaluation emit flow events
     * under one id; the engine passes it through untouched.
     */
    uint64_t traceId = 0;
};

/**
 * Per-request ABFT verdict, aggregated over every crossbar evaluation
 * the request touched (zero everywhere on functional backends or when
 * NebulaConfig::abft is off). A nonzero violation count means at least
 * one layer's checksum-column comparison exceeded its tolerance while
 * serving this request -- the logits may be silently corrupt. When the
 * worker transparently re-executed the request on its fallback replica,
 * reExecuted is set and the counts describe the *final* (fallback) run.
 */
struct IntegrityReport
{
    long long checks = 0;     //!< checksum comparisons performed
    long long violations = 0; //!< comparisons exceeding tolerance
    bool reExecuted = false;  //!< result comes from a fallback re-run

    /** True when any ABFT comparison ran for this request. */
    bool checked() const { return checks > 0; }

    /** True when no comparison flagged corruption. */
    bool clean() const { return violations == 0; }
};

/** The completed inference for one request. */
struct InferenceResult
{
    uint64_t id = 0;
    Tensor logits;            //!< (1, classes) output (SNN: accumulated)
    int predictedClass = -1;
    int workerId = -1;        //!< serving worker (-1: inline mode)
    double queueSeconds = 0.0;   //!< time spent waiting in the queue
    double serviceSeconds = 0.0; //!< time spent on the chip replica
    // -- typed terminal outcome -----------------------------------------
    RuntimeErrorKind error = RuntimeErrorKind::None;
    std::string errorMessage; //!< human-readable detail (empty when ok)
    // -- mode-specific extras -------------------------------------------
    int timesteps = 0;        //!< SNN/hybrid steps actually run
    long long spikes = 0;     //!< SNN/hybrid spike count (0 for ANN)

    /**
     * Joules this inference spent on the chip replica, by component
     * (all zero on functional/hybrid backends and on errors). The
     * serving layer bills these to per-tenant telemetry counters.
     */
    EnergyBreakdown energy;

    /** ABFT verdict for this request (see IntegrityReport). */
    IntegrityReport integrity;

    /** True when the request was evaluated and the logits are valid. */
    bool ok() const { return error == RuntimeErrorKind::None; }
};

/** A queued request together with its delivery channel. */
struct QueueItem
{
    InferenceRequest request;
    std::promise<InferenceResult> promise;
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point deadline; //!< absolute form
    bool hasDeadline = false;
};

/**
 * Settle @p item with a typed terminal outcome that carries no logits
 * (shed, stopped, timed out, cancelled or faulted): the one builder
 * behind every non-evaluated result of the engine and its workers.
 */
inline void
settleUnevaluated(QueueItem &item, RuntimeErrorKind kind, std::string message,
                  int worker_id = -1, double wait_seconds = 0.0)
{
    InferenceResult result;
    result.id = item.request.id;
    result.workerId = worker_id;
    result.queueSeconds = wait_seconds;
    result.error = kind;
    result.errorMessage = std::move(message);
    item.promise.set_value(std::move(result));
}

/**
 * Deterministic per-request seed derivation (SplitMix64 finalizer over
 * the salted id). Exposed so a sequential reference run can reproduce
 * the exact seeds the engine hands its workers.
 */
inline uint64_t
deriveRequestSeed(uint64_t salt, uint64_t id)
{
    uint64_t z = salt + (id + 1) * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace nebula

#endif // NEBULA_RUNTIME_REQUEST_HPP
