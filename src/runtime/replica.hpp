/**
 * @file
 * Worker-owned chip replicas. Each worker thread holds one replica: a
 * private clone of the (quantized or converted) network programmed onto
 * a private NebulaChip, so the hot path touches no shared mutable
 * state and needs no locks. Replicas built from the same prototype and
 * chip seed are programmed identically, which is what makes N-worker
 * execution bit-identical to a sequential run.
 */

#ifndef NEBULA_RUNTIME_REPLICA_HPP
#define NEBULA_RUNTIME_REPLICA_HPP

#include <functional>
#include <memory>

#include "arch/chip.hpp"
#include "runtime/request.hpp"
#include "snn/hybrid.hpp"

namespace nebula {

/** One worker's private inference backend. */
class ChipReplica
{
  public:
    virtual ~ChipReplica() = default;

    /**
     * Execute one request. Fills the mode-dependent result fields
     * (logits, prediction, spikes, timesteps); the worker adds the
     * bookkeeping ones (id, timings, worker id).
     */
    virtual InferenceResult run(const InferenceRequest &request) = 0;

    /** Chip counters accumulated so far (null: replica has no chip). */
    virtual const ChipStats *chipStats() const { return nullptr; }

    /**
     * Programming accounting of the replica's chip (pulses, failed
     * cells, repaired columns); null when the replica has no chip.
     * Replicas are programmed identically, so any one replica's report
     * describes the programming flow of all of them.
     */
    virtual const ProgramReport *programReport() const { return nullptr; }

    /** Reset the replica's chip counters. */
    virtual void clearStats() {}

    /**
     * Re-program the replica's chip in place under @p rel (fault model,
     * write-verify, spare-column repair). The closed-loop health
     * monitor calls this both to *degrade* a replica (injecting a
     * retention-decay ramp, say) and to *repair* it (re-programming
     * with mitigations and a fresh -- undecayed -- fault state).
     * @return false when the replica has no reprogrammable chip
     * (functional / hybrid backends).
     */
    virtual bool reprogram(const ReliabilityConfig &) { return false; }

    /**
     * The replica's chip, when it supports in-place incremental updates
     * (chip-in-the-loop fine-tuning). Null for functional / hybrid
     * backends and for modes whose mapping has no incremental path.
     */
    virtual NebulaChip *tunableChip() { return nullptr; }

    /**
     * The replica's private programmed network (the chip's weight /
     * bias source), when tunableChip() is non-null. The in-situ tuner
     * needs both: host gradients accumulate on this network and deltas
     * flow back through the chip's update API.
     */
    virtual Network *tunableNetwork() { return nullptr; }

    /** Replica mode tag ("ann" / "snn" / "hybrid"). */
    virtual const char *mode() const = 0;
};

/**
 * Factory invoked once per worker (and once for the inline replica);
 * @p worker_id is 0-based. Factories returned by the helpers below own
 * a private clone of the prototype, so the caller's network may be
 * freed after the factory is created.
 */
using ReplicaFactory =
    std::function<std::unique_ptr<ChipReplica>(int worker_id)>;

/** ANN-mode replica: quantized network on ANN crossbars. */
class AnnChipReplica : public ChipReplica
{
  public:
    AnnChipReplica(const Network &prototype, const QuantizationResult &quant,
                   const NebulaConfig &config, double variation_sigma,
                   uint64_t chip_seed,
                   const ReliabilityConfig &reliability = {});

    InferenceResult run(const InferenceRequest &request) override;
    const ChipStats *chipStats() const override { return &chip_.stats(); }
    const ProgramReport *programReport() const override
    {
        return &chip_.programReport();
    }
    void clearStats() override { chip_.clearStats(); }
    bool reprogram(const ReliabilityConfig &rel) override;
    NebulaChip *tunableChip() override { return &chip_; }
    Network *tunableNetwork() override { return &net_; }
    const char *mode() const override { return "ann"; }

  private:
    Network net_;
    QuantizationResult quant_;
    NebulaChip chip_;
};

/** SNN-mode replica: converted spiking model on SNN crossbars. */
class SnnChipReplica : public ChipReplica
{
  public:
    SnnChipReplica(const SpikingModel &prototype, const NebulaConfig &config,
                   double variation_sigma, uint64_t chip_seed,
                   const ReliabilityConfig &reliability = {});

    InferenceResult run(const InferenceRequest &request) override;
    const ChipStats *chipStats() const override { return &chip_.stats(); }
    const ProgramReport *programReport() const override
    {
        return &chip_.programReport();
    }
    void clearStats() override { chip_.clearStats(); }
    bool reprogram(const ReliabilityConfig &rel) override;
    const char *mode() const override { return "snn"; }

  private:
    SpikingModel model_;
    NebulaChip chip_;
};

/**
 * Hybrid-mode replica: spiking prefix + ANN suffix (functional model;
 * the hybrid pipeline is not chip-mapped yet, so chipStats() is null).
 */
class HybridReplica : public ChipReplica
{
  public:
    /** Takes ownership of an already-built hybrid network. */
    explicit HybridReplica(std::unique_ptr<HybridNetwork> hybrid);

    InferenceResult run(const InferenceRequest &request) override;
    const char *mode() const override { return "hybrid"; }

  private:
    std::unique_ptr<HybridNetwork> hybrid_;
};

/**
 * Factory producing identically-programmed ANN replicas. The prototype
 * must already be quantized (@p quant from quantizeNetwork); it is
 * cloned once into the factory and again per worker.
 */
ReplicaFactory makeAnnReplicaFactory(const Network &prototype,
                                     const QuantizationResult &quant,
                                     const NebulaConfig &config = {},
                                     double variation_sigma = 0.0,
                                     uint64_t chip_seed = 5,
                                     const ReliabilityConfig &reliability = {});

/** Factory producing identically-programmed SNN replicas. */
ReplicaFactory makeSnnReplicaFactory(const SpikingModel &prototype,
                                     const NebulaConfig &config = {},
                                     double variation_sigma = 0.0,
                                     uint64_t chip_seed = 5,
                                     const ReliabilityConfig &reliability = {});

/**
 * Factory producing hybrid replicas: each worker converts its own clone
 * of @p ann (BN must already be folded) with @p ann_layers trailing
 * weight layers kept in the ANN domain.
 */
ReplicaFactory makeHybridReplicaFactory(const Network &ann,
                                        const Tensor &calibration,
                                        int ann_layers,
                                        const ConversionConfig &config = {});

/**
 * Functional (non-chip) ANN replica factory: the prototype network is
 * evaluated as-is, with no crossbar model in the loop. Used by the
 * fault campaigns as the algorithmic baseline and by the health monitor
 * as the graceful-degradation fallback when a chip replica cannot be
 * repaired.
 */
ReplicaFactory makeFunctionalAnnReplicaFactory(const Network &prototype);

/**
 * Functional SNN replica factory: each replica converts a private clone
 * of @p prototype and runs the algorithmic SNN simulator with the
 * request's encoder seed (the same per-request derivation the chip
 * backend sees).
 */
ReplicaFactory makeFunctionalSnnReplicaFactory(const Network &prototype,
                                               const Tensor &calibration);

} // namespace nebula

#endif // NEBULA_RUNTIME_REPLICA_HPP
