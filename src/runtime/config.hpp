/**
 * @file
 * Configuration for the concurrent inference engine.
 */

#ifndef NEBULA_RUNTIME_CONFIG_HPP
#define NEBULA_RUNTIME_CONFIG_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

namespace nebula {

class ChipReplica;
class HealthMonitor;

/**
 * Engine-level reaction to per-request ABFT violations (the checksum
 * verdicts NebulaConfig::abft produces). Detection itself lives on the
 * chip; this only configures what a worker does when a result comes
 * back flagged.
 */
struct AbftConfig
{
    /**
     * Re-execute a violating request once on the worker's fallback
     * replica (below) before settling its promise, so the client gets
     * a correct answer instead of a flagged-corrupt one. Deadline-aware:
     * a request whose budget has already lapsed keeps the flagged
     * original rather than burning more time. The re-run keeps the
     * request's own seed, so a stochastic (SNN) re-execution is
     * reproducible.
     */
    bool reExecute = true;

    /**
     * Factory for the per-worker fallback replica a flagged request is
     * re-run on (typically makeFunctionalAnnReplicaFactory /
     * makeFunctionalSnnReplicaFactory -- a backend with no crossbars to
     * corrupt). Built lazily on first violation, one per worker. Null:
     * violations are surfaced on the result but never re-executed.
     */
    std::function<std::unique_ptr<ChipReplica>(int)> fallback;
};

/**
 * Admission-control policy when a request arrives and the engine is
 * loaded. Shed requests resolve immediately to a typed Shed outcome --
 * the future is fulfilled, never broken -- and are counted in the
 * `runtime.shed` metric.
 */
enum class ShedPolicy : uint8_t
{
    /** Block the submitter until the queue has room (backpressure). */
    Block = 0,

    /** Never block: shed the request when the queue is full. */
    RejectWhenFull,

    /**
     * Shed a deadline-carrying request at submit when the predicted
     * queue wait -- queue depth times the running service-time EWMA,
     * divided across workers -- already exceeds its budget; block
     * otherwise. Requests without deadlines behave as Block.
     */
    DeadlineAware,
};

/** Knobs of the InferenceEngine worker pool. */
struct EngineConfig
{
    /**
     * Worker threads, each holding its own programmed chip replica.
     * 0 selects the deterministic inline mode: one never-started
     * worker runs the pool's request lifecycle (deadline/cancel checks,
     * ABFT hedging, health probes, supervisor restarts) synchronously
     * on the submitting thread against a single replica, in exact
     * submission order (the bit-exact reference mode). It serves one
     * submitting thread at a time and bypasses admission shedding.
     */
    int numWorkers = 2;

    /** Bounded request-queue capacity (backpressure threshold). */
    size_t queueCapacity = 64;

    /** Evidence-integration steps for SNN/hybrid requests that pass 0. */
    int defaultTimesteps = 32;

    /**
     * Salt for per-request encoder-seed derivation. Requests that do
     * not carry an explicit seed get deriveRequestSeed(seedSalt, id),
     * which keeps stochastic (SNN) inference reproducible independent
     * of worker assignment and completion order.
     */
    uint64_t seedSalt = 0x9e3779b97f4a7c15ull;

    // -- resilience ------------------------------------------------------

    /** Admission control under load (see ShedPolicy). */
    ShedPolicy shedPolicy = ShedPolicy::Block;

    /**
     * Deadline for requests that do not carry one (ns from submit);
     * 0 = no deadline. Expired requests are shed at dequeue with a
     * Timeout outcome instead of being evaluated.
     */
    uint64_t defaultDeadlineNs = 0;

    /**
     * Supervisor restart threshold: after this many *consecutive*
     * ReplicaFault outcomes a worker quarantines its replica and
     * receives a freshly cloned+programmed one from the engine's
     * factory. 0 disables supervision (a poisoned replica keeps
     * faulting every request it serves -- but still never hangs one).
     */
    int maxConsecutiveFaults = 3;

    /**
     * Most-recent quarantined replicas retained for inspection after
     * supervisor restarts; older ones are dropped so a permanently
     * faulting worker (which re-trips maxConsecutiveFaults forever)
     * cannot grow the engine's memory without bound. 0 retains none.
     */
    size_t quarantineCapacity = 16;

    /**
     * Optional closed-loop crossbar health monitor (reliability/health):
     * canary probes between requests, in-place re-programming repair,
     * demotion to a functional backend when repair fails. Null: off.
     */
    std::shared_ptr<HealthMonitor> health;

    /**
     * Reaction to ABFT integrity violations (chip-side detection is
     * enabled via NebulaConfig::abft on the replica factory's chip
     * config; this configures the engine's hedged re-execution).
     */
    AbftConfig abft;
};

} // namespace nebula

#endif // NEBULA_RUNTIME_CONFIG_HPP
