/**
 * @file
 * Sequential network container: forward/backward orchestration, batch
 * normalization folding for crossbar mapping, per-layer activation
 * collection (used by quantization calibration, threshold balancing and
 * the Fig. 10 correlation study), and binary save/load.
 */

#ifndef NEBULA_NN_NETWORK_HPP
#define NEBULA_NN_NETWORK_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/layer.hpp"

namespace nebula {

/** A feed-forward stack of layers. */
class Network
{
  public:
    Network() = default;
    explicit Network(std::string name) : name_(std::move(name)) {}

    Network(Network &&) = default;
    Network &operator=(Network &&) = default;
    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    /** Append a layer; returns a typed pointer for convenience. */
    template <typename L, typename... Args>
    L *
    add(Args &&...args)
    {
        auto layer = std::make_unique<L>(std::forward<Args>(args)...);
        L *raw = layer.get();
        layers_.push_back(std::move(layer));
        return raw;
    }

    /** Append an already-built layer. */
    void addLayer(LayerPtr layer) { layers_.push_back(std::move(layer)); }

    /** Replace layer @p i (used by quantization to swap activations). */
    void replaceLayer(int i, LayerPtr layer);

    /** Full forward pass. */
    Tensor forward(const Tensor &input, bool train = false);

    /**
     * Forward pass that records the output of every layer.
     * outputs[i] is the output of layer i.
     */
    Tensor forwardCollect(const Tensor &input,
                          std::vector<Tensor> &outputs);

    /** Backward pass through every layer (after train-mode forward). */
    void backward(const Tensor &grad_output);

    /** Predicted class per batch row of the final logits. */
    std::vector<int> predict(const Tensor &input);

    /** Number of layers. */
    int numLayers() const { return static_cast<int>(layers_.size()); }

    Layer &layer(int i) { return *layers_[static_cast<size_t>(i)]; }
    const Layer &layer(int i) const { return *layers_[static_cast<size_t>(i)]; }

    /** Indices of weight (crossbar-mapped) layers, in order. */
    std::vector<int> weightLayerIndices() const;

    /** All parameter tensors across layers. */
    std::vector<Tensor *> parameters();

    /** All gradient tensors across layers. */
    std::vector<Tensor *> gradients();

    /** Total learnable parameter count. */
    long long parameterCount();

    /** Zero all gradients. */
    void zeroGrad();

    /**
     * Fold every BatchNorm layer into the preceding conv layer
     * (Rueckauer et al.); panics if a BN layer has no foldable
     * predecessor. The BN layers are removed from the stack.
     */
    void foldBatchNorm();

    /** True if any BatchNorm layer remains. */
    bool hasBatchNorm() const;

    /**
     * Deep copy: clones every layer (parameters included). Used by the
     * inference runtime to give each worker replica a private network
     * it can run without synchronization.
     */
    Network clone() const;

    /** Copy all persistent tensors from an identically-shaped network. */
    void copyStateFrom(Network &other);

    /**
     * Persistent state in the NEB1 format: magic, layer count, then
     * (float count, floats) for every state tensor in layer order.
     */
    std::vector<uint8_t> save();

    /**
     * Load NEB1 bytes. False -- with the weights untouched -- unless
     * the layer count and every tensor size match this network and
     * the buffer holds exactly that state.
     */
    bool load(const uint8_t *data, size_t size);

    /** One line per layer: name, Rf, kernels, output size. */
    std::string summary() const;

    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

  private:
    std::string name_;
    std::vector<LayerPtr> layers_;
};

/** Builder signature used by the model zoo. */
using NetworkBuilder = std::function<Network()>;

} // namespace nebula

#endif // NEBULA_NN_NETWORK_HPP
