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

ServableLoader &
ServableLoader::global()
{
    static ServableLoader loader;
    return loader;
}

ServableLoader::Cached &
ServableLoader::cached(const ServableModelSpec &spec)
{
    // Key on everything training depends on; mode is deliberately
    // excluded -- ann/snn/hybrid servables of one family share the
    // trained float prototype. The learning rate is keyed exactly
    // (hexfloat): rates that differ past the default 6 printed digits
    // train different networks.
    std::ostringstream key;
    key << spec.family << ':' << spec.imageSize << ':' << spec.classes
        << ':' << spec.trainImages << ':' << spec.epochs << ':'
        << std::hexfloat << spec.learningRate << ':' << spec.seed;

    std::lock_guard<std::mutex> lock(mutex_);
    auto it = cache_.find(key.str());
    if (it != cache_.end())
        return *it->second;

    auto entry = std::make_unique<Cached>();
    if (spec.family == "mlp3") {
        entry->net = buildMlp3(spec.imageSize, 1, spec.classes, spec.seed);
    } else if (spec.family == "lenet5") {
        entry->net =
            buildLenet5(spec.imageSize, 1, spec.classes, spec.seed);
    } else {
        NEBULA_FATAL("unknown servable family '", spec.family, "'");
    }

    SyntheticDigits train(std::max(spec.trainImages, 64), spec.imageSize,
                          /*seed=*/1);
    if (spec.epochs > 0) {
        TrainConfig tc;
        tc.epochs = spec.epochs;
        tc.learningRate = spec.learningRate;
        SgdTrainer trainer(tc);
        trainer.train(entry->net, train);
    } else {
        // Untrained servables still need fixed geometry for mapping.
        Tensor probe({1, 1, spec.imageSize, spec.imageSize});
        entry->net.forward(probe);
    }
    entry->calibration = train.firstImages(std::min(64, train.size()));

    it = cache_.emplace(key.str(), std::move(entry)).first;
    NEBULA_DEBUG("serving", "trained servable prototype ", spec.family,
                 " (", spec.epochs, " epochs, cached)");
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
