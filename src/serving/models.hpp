/**
 * @file
 * Servable model zoo: the shared loader behind the multi-tenant model
 * registry, the serving examples and the tenancy bench. A servable is
 * a (family x mode) pair -- e.g. "lenet5/snn" -- whose float prototype
 * is trained on the synthetic digit set, or loaded from a verified
 * weight artifact compiled into the library (serving/artifacts.hpp)
 * when one carries its exact training key, and cached in-process.
 * Quantization and ANN->SNN conversion are offline algorithm steps
 * too: each happens once per servable per process, and the product is
 * cached next to the prototype. So a weight *swap* costs exactly what
 * the paper says it should: re-programming crossbars under
 * write-verify (pulses/energy in the ProgramReport), never re-training,
 * re-quantizing or re-converting.
 */

#ifndef NEBULA_SERVING_MODELS_HPP
#define NEBULA_SERVING_MODELS_HPP

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nn/network.hpp"
#include "nn/quantize.hpp"
#include "obs/metrics.hpp"
#include "runtime/replica.hpp"
#include "serving/artifacts.hpp"
#include "snn/convert.hpp"

namespace nebula {
namespace serving {

/** One entry of the servable catalog. */
struct ServableModelSpec
{
    std::string family = "mlp3"; //!< "mlp3" | "lenet5"
    std::string mode = "ann";    //!< "ann" | "snn" | "hybrid"
    int imageSize = 16;
    int classes = 10;
    int trainImages = 600;       //!< synthetic-digit training samples
    int epochs = 4;              //!< 0: serve seeded, untrained weights
    double learningRate = 0.08;
    uint64_t seed = 7;           //!< weight-init seed
    uint64_t chipSeed = 5;       //!< replica programming seed
    int hybridAnnLayers = 1;     //!< trailing ANN layers in hybrid mode

    /** Registry/catalog id: "<family>/<mode>". */
    std::string id() const { return family + "/" + mode; }
};

/**
 * Parse "family/mode" (e.g. "lenet5/ann") into a spec with default
 * training knobs; false when the family or mode is unknown.
 */
bool parseServableId(const std::string &id, ServableModelSpec &out);

/**
 * Exact training key of @p spec: the family, geometry, schedule and
 * weight seed, every TrainConfig field training reads and the dataset
 * seed, with doubles in hexfloat (rates that differ past the 6th digit
 * train different networks). Equal keys train bit-identical
 * prototypes; the loader's cache and the weight artifacts are keyed by
 * it. Mode and chip seed are excluded: they do not touch training.
 */
std::string trainingKey(const ServableModelSpec &spec);

/**
 * Build @p spec's network and train it from scratch (epochs == 0:
 * seeded weights). This is the recipe the shipped artifacts are made
 * by; tests/golden_test.cpp retrains them with it.
 */
Network trainServable(const ServableModelSpec &spec);

/**
 * @p spec's float prototype: @p artifact's weights when it verifies
 * under trainingKey(spec) (see loadArtifact), otherwise
 * trainServable(spec). @p status receives the artifact's verdict.
 */
Network servablePrototype(const ServableModelSpec &spec,
                          ArtifactView artifact, ArtifactStatus &status);

/** Quantized form of a trained servable (ANN chip programming input). */
struct QuantizedServable
{
    Network net; //!< weights already quantized in place
    QuantizationResult quant;
};

/**
 * Process-wide cache of servable prototypes, keyed by trainingKey. On
 * a miss the prototype comes from the embedded artifact carrying that
 * key if it verifies, and is trained otherwise; the counters
 * serving.loader.artifact_loads, serving.loader.trained and
 * serving.loader.artifact_rejects say which. That happens at most once
 * per key, and so do quantization and conversion of the prototype
 * (lazily, on first use); everything handed out is a private clone of
 * a cached network.
 */
class ServableLoader
{
  public:
    ServableLoader();
    ~ServableLoader();

    static ServableLoader &global();

    /** Clone of the trained (or epochs==0: seeded) float network. */
    Network trainedNetwork(const ServableModelSpec &spec);

    /** Clone of the cached quantized network + quantization record. */
    QuantizedServable quantized(const ServableModelSpec &spec);

    /** Clone of the cached converted spiking model. */
    SpikingModel spiking(const ServableModelSpec &spec);

    /** Calibration batch used for quantization/conversion. */
    Tensor calibration(const ServableModelSpec &spec);

    /**
     * Replica factory for the spec's mode. ANN/SNN factories program
     * chips under @p reliability (the registry passes write-verify so
     * swap-ins are costed) with @p chip as the chip configuration
     * (e.g. NebulaConfig::abft for checksum-column integrity
     * checking); the hybrid mode is functional (no chip, no
     * programming cost, @p chip ignored).
     */
    ReplicaFactory makeFactory(const ServableModelSpec &spec,
                               const ReliabilityConfig &reliability = {},
                               const NebulaConfig &chip = {});

    /**
     * Functional (no-crossbar) fallback factory for the spec's mode --
     * the backend ABFT-flagged requests are re-executed on (hybrid
     * servables are already functional and get an equivalent pipeline).
     */
    ReplicaFactory makeFallbackFactory(const ServableModelSpec &spec);

    /** Expected request-image shape, (C, H, W). */
    std::vector<int> inputShape(const ServableModelSpec &spec) const
    {
        return {1, spec.imageSize, spec.imageSize};
    }

  private:
    struct Cached;
    Cached &cached(const ServableModelSpec &spec);

    std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Cached>> cache_;
    obs::Counter &artifactLoads_;
    obs::Counter &trained_;
    obs::Counter &artifactRejects_;
};

} // namespace serving
} // namespace nebula

#endif // NEBULA_SERVING_MODELS_HPP
