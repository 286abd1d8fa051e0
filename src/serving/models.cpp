#include "serving/models.hpp"

#include <optional>
#include <sstream>

#include "common/logging.hpp"
#include "nn/datasets.hpp"
#include "nn/models.hpp"
#include "nn/trainer.hpp"
#include "snn/hybrid.hpp"

namespace nebula {
namespace serving {

namespace {

/** Generation seed of every servable's synthetic-digit training set. */
constexpr uint64_t kTrainDataSeed = 1;

/** Calibration batch size (the first images of the training set). */
constexpr int kCalibrationImages = 64;

/** @p spec's topology with seeded, untrained weights. */
Network
buildServable(const ServableModelSpec &spec)
{
    if (spec.family == "mlp3")
        return buildMlp3(spec.imageSize, 1, spec.classes, spec.seed);
    if (spec.family == "lenet5")
        return buildLenet5(spec.imageSize, 1, spec.classes, spec.seed);
    NEBULA_FATAL("unknown servable family '", spec.family, "'");
}

/** The training recipe applied to @p spec's prototype. */
TrainConfig
servableTrainConfig(const ServableModelSpec &spec)
{
    TrainConfig tc;
    tc.epochs = spec.epochs;
    tc.learningRate = spec.learningRate;
    return tc;
}

/**
 * The batch a servable is calibrated on: the first 64 images of its
 * training set, whether the prototype was trained or loaded. The digit
 * generator draws image by image from one stream, so a 64-image set is
 * the exact prefix of any longer training set.
 */
Tensor
servableCalibration(const ServableModelSpec &spec)
{
    return SyntheticDigits(kCalibrationImages, spec.imageSize,
                           kTrainDataSeed)
        .firstImages(kCalibrationImages);
}

/** Fix a prototype's geometry for mapping without training it. */
void
probeGeometry(Network &net, const ServableModelSpec &spec)
{
    Tensor probe({1, 1, spec.imageSize, spec.imageSize});
    net.forward(probe);
}

} // namespace

bool
parseServableId(const std::string &id, ServableModelSpec &out)
{
    const size_t slash = id.find('/');
    if (slash == std::string::npos || slash == 0 || slash + 1 >= id.size())
        return false;
    ServableModelSpec spec;
    spec.family = id.substr(0, slash);
    spec.mode = id.substr(slash + 1);
    if (spec.family != "mlp3" && spec.family != "lenet5")
        return false;
    if (spec.mode != "ann" && spec.mode != "snn" && spec.mode != "hybrid")
        return false;
    out = spec;
    return true;
}

/**
 * Trained float prototype + the batch everything is calibrated on, and
 * the quantized and converted products derived from them. The products
 * are a pure function of (net, calibration) under the default
 * quantize/convert parameters, so they share the prototype's key and
 * lifetime; each is built on first use -- inside the first swap-in --
 * and only ever handed out as clones.
 */
struct ServableLoader::Cached
{
    Network net{"uninit"};
    Tensor calibration;

    const QuantizedServable &
    quantized()
    {
        std::call_once(quantizedOnce, [this] {
            QuantizedServable q{net.clone(), {}};
            q.quant = quantizeNetwork(q.net, calibration);
            quantizedProduct.emplace(std::move(q));
        });
        return *quantizedProduct;
    }

    const SpikingModel &
    spiking()
    {
        std::call_once(spikingOnce, [this] {
            Network source = net.clone();
            spikingProduct.emplace(convertToSnn(source, calibration));
        });
        return *spikingProduct;
    }

  private:
    std::once_flag quantizedOnce;
    std::optional<QuantizedServable> quantizedProduct;
    std::once_flag spikingOnce;
    std::optional<SpikingModel> spikingProduct;
};

std::string
trainingKey(const ServableModelSpec &spec)
{
    const TrainConfig tc = servableTrainConfig(spec);
    std::ostringstream key;
    key << std::hexfloat << spec.family << " image=" << spec.imageSize
        << " classes=" << spec.classes << " images=" << spec.trainImages
        << " epochs=" << tc.epochs << " lr=" << tc.learningRate
        << " seed=" << spec.seed << " batch=" << tc.batchSize
        << " momentum=" << tc.momentum << " weight_decay=" << tc.weightDecay
        << " lr_decay=" << tc.lrDecay << " shuffle=" << tc.shuffleSeed
        << " data_seed=" << kTrainDataSeed;
    return key.str();
}

Network
trainServable(const ServableModelSpec &spec)
{
    Network net = buildServable(spec);
    if (spec.epochs > 0) {
        SyntheticDigits train(std::max(spec.trainImages, kCalibrationImages),
                              spec.imageSize, kTrainDataSeed);
        SgdTrainer(servableTrainConfig(spec)).train(net, train);
    } else {
        // Untrained servables still need fixed geometry for mapping.
        probeGeometry(net, spec);
    }
    return net;
}

Network
servablePrototype(const ServableModelSpec &spec, ArtifactView artifact,
                  ArtifactStatus &status)
{
    Network net = buildServable(spec);
    status = loadArtifact(artifact, trainingKey(spec), net);
    if (status != ArtifactStatus::Loaded)
        return trainServable(spec);
    probeGeometry(net, spec);
    return net;
}

ServableLoader::ServableLoader()
    : artifactLoads_(obs::MetricsRegistry::global().counter(
          "serving.loader.artifact_loads")),
      trained_(obs::MetricsRegistry::global().counter(
          "serving.loader.trained")),
      artifactRejects_(obs::MetricsRegistry::global().counter(
          "serving.loader.artifact_rejects"))
{
}

ServableLoader::~ServableLoader() = default;

ServableLoader &
ServableLoader::global()
{
    static ServableLoader loader;
    return loader;
}

ServableLoader::Cached &
ServableLoader::cached(const ServableModelSpec &spec)
{
    // Mode is not part of the key: ann/snn/hybrid servables of one
    // family share the float prototype.
    const std::string key = trainingKey(spec);
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = cache_.find(key);
    if (it != cache_.end())
        return *it->second;

    auto entry = std::make_unique<Cached>();
    ArtifactStatus status = ArtifactStatus::Missing;
    entry->net = servablePrototype(spec, findArtifact(key), status);
    entry->calibration = servableCalibration(spec);
    if (status == ArtifactStatus::Loaded) {
        artifactLoads_.inc();
    } else {
        trained_.inc();
        if (status != ArtifactStatus::Missing) {
            artifactRejects_.inc();
            NEBULA_WARN("servable artifact for ", spec.family, " refused (",
                        toString(status), "); trained instead");
        }
    }

    it = cache_.emplace(key, std::move(entry)).first;
    NEBULA_DEBUG("serving", "servable prototype ", spec.family, ": ",
                 status == ArtifactStatus::Loaded ? "artifact" : "trained",
                 " (cached)");
    return *it->second;
}

Network
ServableLoader::trainedNetwork(const ServableModelSpec &spec)
{
    return cached(spec).net.clone();
}

Tensor
ServableLoader::calibration(const ServableModelSpec &spec)
{
    return cached(spec).calibration;
}

QuantizedServable
ServableLoader::quantized(const ServableModelSpec &spec)
{
    const QuantizedServable &q = cached(spec).quantized();
    return {q.net.clone(), q.quant};
}

SpikingModel
ServableLoader::spiking(const ServableModelSpec &spec)
{
    return cached(spec).spiking().clone();
}

ReplicaFactory
ServableLoader::makeFactory(const ServableModelSpec &spec,
                            const ReliabilityConfig &reliability,
                            const NebulaConfig &chip)
{
    // The replica factories clone the cached product, so a swap-in
    // pays only for programming the chips.
    if (spec.mode == "ann") {
        const QuantizedServable &q = cached(spec).quantized();
        return makeAnnReplicaFactory(q.net, q.quant, chip,
                                     /*variation_sigma=*/0.0, spec.chipSeed,
                                     reliability);
    }
    if (spec.mode == "snn") {
        return makeSnnReplicaFactory(cached(spec).spiking(), chip,
                                     /*variation_sigma=*/0.0, spec.chipSeed,
                                     reliability);
    }
    if (spec.mode == "hybrid") {
        const Cached &entry = cached(spec);
        return makeHybridReplicaFactory(entry.net, entry.calibration,
                                        spec.hybridAnnLayers);
    }
    NEBULA_FATAL("unknown servable mode '", spec.mode, "'");
}

ReplicaFactory
ServableLoader::makeFallbackFactory(const ServableModelSpec &spec)
{
    if (spec.mode == "ann")
        return makeFunctionalAnnReplicaFactory(trainedNetwork(spec));
    if (spec.mode == "snn") {
        const Cached &entry = cached(spec);
        return makeFunctionalSnnReplicaFactory(entry.net,
                                               entry.calibration);
    }
    if (spec.mode == "hybrid") {
        // Hybrid servables are already chip-free; an identically built
        // pipeline is the natural (if redundant) fallback.
        const Cached &entry = cached(spec);
        return makeHybridReplicaFactory(entry.net, entry.calibration,
                                        spec.hybridAnnLayers);
    }
    NEBULA_FATAL("unknown servable mode '", spec.mode, "'");
}

} // namespace serving
} // namespace nebula
