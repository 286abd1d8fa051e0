#include "runtime/replica.hpp"

#include <memory>

#include "common/logging.hpp"
#include "snn/snn_sim.hpp"

namespace nebula {

AnnChipReplica::AnnChipReplica(const Network &prototype,
                               const QuantizationResult &quant,
                               const NebulaConfig &config,
                               double variation_sigma, uint64_t chip_seed,
                               const ReliabilityConfig &reliability)
    : net_(prototype.clone()), quant_(quant),
      chip_(config, variation_sigma, chip_seed)
{
    chip_.setReliability(reliability);
    chip_.programAnn(net_, quant_);
}

InferenceResult
AnnChipReplica::run(const InferenceRequest &request)
{
    const ChipStats before = chip_.stats();
    InferenceResult result;
    result.logits = chip_.runAnn(request.image);
    result.predictedClass = result.logits.argmaxRow(0);
    result.energy = estimateEnergyBreakdown(before, chip_.stats(), Mode::ANN);
    result.integrity.checks = chip_.stats().abftChecks - before.abftChecks;
    result.integrity.violations =
        chip_.stats().abftViolations - before.abftViolations;
    return result;
}

bool
AnnChipReplica::reprogram(const ReliabilityConfig &rel)
{
    chip_.setReliability(rel);
    chip_.programAnn(net_, quant_);
    return true;
}

SnnChipReplica::SnnChipReplica(const SpikingModel &prototype,
                               const NebulaConfig &config,
                               double variation_sigma, uint64_t chip_seed,
                               const ReliabilityConfig &reliability)
    : model_(prototype.clone()), chip_(config, variation_sigma, chip_seed)
{
    chip_.setReliability(reliability);
    chip_.programSnn(model_);
}

InferenceResult
SnnChipReplica::run(const InferenceRequest &request)
{
    NEBULA_ASSERT(request.timesteps > 0,
                  "SNN request needs a timestep count");
    const ChipStats before = chip_.stats();
    const SnnRunResult snn =
        chip_.runSnn(request.image, request.timesteps, request.seed);
    InferenceResult result;
    result.logits = snn.logits;
    result.predictedClass = snn.predictedClass();
    result.timesteps = snn.timesteps;
    result.spikes = snn.totalSpikes;
    result.energy = estimateEnergyBreakdown(before, chip_.stats(), Mode::SNN);
    result.integrity.checks = chip_.stats().abftChecks - before.abftChecks;
    result.integrity.violations =
        chip_.stats().abftViolations - before.abftViolations;
    return result;
}

bool
SnnChipReplica::reprogram(const ReliabilityConfig &rel)
{
    chip_.setReliability(rel);
    chip_.programSnn(model_);
    return true;
}

HybridReplica::HybridReplica(std::unique_ptr<HybridNetwork> hybrid)
    : hybrid_(std::move(hybrid))
{
    NEBULA_ASSERT(hybrid_, "null hybrid network");
}

InferenceResult
HybridReplica::run(const InferenceRequest &request)
{
    NEBULA_ASSERT(request.timesteps > 0,
                  "hybrid request needs a timestep count");
    const HybridRunResult hyb =
        hybrid_->run(request.image, request.timesteps, request.seed);
    InferenceResult result;
    result.logits = hyb.logits;
    result.predictedClass = hyb.predictedClass();
    result.timesteps = hyb.timesteps;
    result.spikes = hyb.prefixSpikes;
    return result;
}

ReplicaFactory
makeAnnReplicaFactory(const Network &prototype,
                      const QuantizationResult &quant,
                      const NebulaConfig &config, double variation_sigma,
                      uint64_t chip_seed, const ReliabilityConfig &reliability)
{
    auto proto = std::make_shared<const Network>(prototype.clone());
    return [proto, quant, config, variation_sigma, chip_seed,
            reliability](int) -> std::unique_ptr<ChipReplica> {
        return std::make_unique<AnnChipReplica>(*proto, quant, config,
                                                variation_sigma, chip_seed,
                                                reliability);
    };
}

ReplicaFactory
makeSnnReplicaFactory(const SpikingModel &prototype,
                      const NebulaConfig &config, double variation_sigma,
                      uint64_t chip_seed, const ReliabilityConfig &reliability)
{
    auto proto = std::make_shared<const SpikingModel>(prototype.clone());
    return [proto, config, variation_sigma, chip_seed,
            reliability](int) -> std::unique_ptr<ChipReplica> {
        return std::make_unique<SnnChipReplica>(*proto, config,
                                                variation_sigma, chip_seed,
                                                reliability);
    };
}

namespace {

/** Functional ANN replica: the prototype network evaluated as-is. */
class FunctionalAnnReplica : public ChipReplica
{
  public:
    explicit FunctionalAnnReplica(const Network &prototype)
        : net_(prototype.clone())
    {
    }

    InferenceResult
    run(const InferenceRequest &request) override
    {
        std::vector<int> batched;
        batched.push_back(1);
        for (int d = 0; d < request.image.rank(); ++d)
            batched.push_back(request.image.dim(d));
        InferenceResult result;
        result.logits = net_.forward(request.image.reshaped(batched), false);
        result.predictedClass = result.logits.argmaxRow(0);
        return result;
    }

    const char *mode() const override { return "ann"; }

  private:
    Network net_;
};

/**
 * Functional spiking replica: a private converted model driven with the
 * request's encoder seed -- exactly the per-request seed stream the
 * chip backend gets from the engine, so the two legs differ only in the
 * crossbar model.
 */
class FunctionalSnnReplica : public ChipReplica
{
  public:
    FunctionalSnnReplica(const Network &prototype, const Tensor &calibration)
        : model_(convertClone(prototype, calibration)), sim_(model_)
    {
    }

    InferenceResult
    run(const InferenceRequest &request) override
    {
        NEBULA_ASSERT(request.timesteps > 0, "SNN request needs timesteps");
        const SnnRunResult snn =
            sim_.run(request.image, request.timesteps, request.seed);
        InferenceResult result;
        result.logits = snn.logits;
        result.predictedClass = snn.predictedClass();
        result.timesteps = request.timesteps;
        result.spikes = snn.totalSpikes;
        return result;
    }

    const char *mode() const override { return "snn"; }

  private:
    /** convertToSnn folds BN in place, so convert a private clone. */
    static SpikingModel
    convertClone(const Network &prototype, const Tensor &calibration)
    {
        Network clone = prototype.clone();
        return convertToSnn(clone, calibration);
    }

    SpikingModel model_;
    SnnSimulator sim_;
};

} // namespace

ReplicaFactory
makeFunctionalAnnReplicaFactory(const Network &prototype)
{
    auto proto = std::make_shared<const Network>(prototype.clone());
    return [proto](int) -> std::unique_ptr<ChipReplica> {
        return std::make_unique<FunctionalAnnReplica>(*proto);
    };
}

ReplicaFactory
makeFunctionalSnnReplicaFactory(const Network &prototype,
                                const Tensor &calibration)
{
    auto proto = std::make_shared<const Network>(prototype.clone());
    auto calib = std::make_shared<const Tensor>(calibration);
    return [proto, calib](int) -> std::unique_ptr<ChipReplica> {
        return std::make_unique<FunctionalSnnReplica>(*proto, *calib);
    };
}

ReplicaFactory
makeHybridReplicaFactory(const Network &ann, const Tensor &calibration,
                         int ann_layers, const ConversionConfig &config)
{
    auto proto = std::make_shared<const Network>(ann.clone());
    auto calib = std::make_shared<const Tensor>(calibration);
    return [proto, calib, ann_layers,
            config](int) -> std::unique_ptr<ChipReplica> {
        // HybridNetwork folds BN into its source in place, so each
        // worker converts a private clone of the prototype.
        Network source = proto->clone();
        auto hybrid = std::make_unique<HybridNetwork>(source, *calib,
                                                      ann_layers, config);
        return std::make_unique<HybridReplica>(std::move(hybrid));
    };
}

} // namespace nebula
