/**
 * @file
 * Servable model zoo: the shared loader behind the multi-tenant model
 * registry, the serving examples and the tenancy bench. A servable is
 * a (family x mode) pair -- e.g. "lenet5/snn" -- trained once on the
 * synthetic digit set and cached in-process. Quantization and ANN->SNN
 * conversion are offline algorithm steps too: each happens once per
 * servable per process, and the product is cached next to the trained
 * prototype. So a weight *swap* costs exactly what the paper says it
 * should: re-programming crossbars under write-verify (pulses/energy in
 * the ProgramReport), never re-training, re-quantizing or re-converting.
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
#include "runtime/replica.hpp"
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

/** Quantized form of a trained servable (ANN chip programming input). */
struct QuantizedServable
{
    Network net; //!< weights already quantized in place
    QuantizationResult quant;
};

/**
 * Process-wide cache of trained servable prototypes, keyed by the
 * training-relevant spec fields. Training happens at most once per
 * (family, geometry, seed, schedule), and so do quantization and
 * conversion of that prototype (lazily, on first use); everything
 * handed out is a private clone of a cached network.
 */
class ServableLoader
{
  public:
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
};

} // namespace serving
} // namespace nebula

#endif // NEBULA_SERVING_MODELS_HPP
