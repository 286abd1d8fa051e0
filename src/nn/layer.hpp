/**
 * @file
 * Layer abstraction for the functional neural-network simulator.
 *
 * Layers implement forward (inference and training) and backward
 * (training) passes on batch tensors. They also expose the *mapping
 * geometry* the NEBULA architecture model needs: the receptive field
 * size Rf = KH * KW * C that determines how a kernel is flattened onto
 * crossbar rows (paper Fig. 5), the number of kernels (crossbar
 * columns), and the number of output positions (crossbar evaluations per
 * input image).
 */

#ifndef NEBULA_NN_LAYER_HPP
#define NEBULA_NN_LAYER_HPP

#include <memory>
#include <string>
#include <vector>

#include "nn/tensor.hpp"

namespace nebula {

/** Layer type tags used by the mapper and the ANN-to-SNN converter. */
enum class LayerKind {
    Conv,      //!< dense 2-D convolution
    DwConv,    //!< depthwise separable convolution (depthwise stage)
    Linear,    //!< fully connected
    AvgPool,
    MaxPool,
    BatchNorm,
    Relu,
    ClippedRelu,
    Flatten,
    If,        //!< integrate-and-fire (inserted by SNN conversion)
};

/** Name of a layer kind. */
const char *layerKindName(LayerKind kind);

class Layer;
using LayerPtr = std::unique_ptr<Layer>;

/** Abstract network layer. */
class Layer
{
  public:
    virtual ~Layer() = default;

    /** Forward pass; @p train enables training-mode behaviour (BN). */
    virtual Tensor forward(const Tensor &input, bool train = false) = 0;

    /**
     * Inference forward pass into @p output, whose buffer is reused when
     * it already has the output shape (the chip's Host stages run every
     * image through one). Same values as forward(input, false).
     */
    virtual void forwardInto(const Tensor &input, Tensor &output);

    /**
     * Backward pass: takes dL/d(output), returns dL/d(input) and
     * accumulates parameter gradients. Only valid after a forward call
     * with train == true.
     */
    virtual Tensor backward(const Tensor &grad_output);

    /** Learnable parameter tensors (empty if none). */
    virtual std::vector<Tensor *> parameters() { return {}; }

    /**
     * Read-only view of parameters(), callable on a const layer (the
     * chip programs crossbars from layers it must not modify).
     */
    std::vector<const Tensor *> constParameters() const;

    /** Gradient tensors matching parameters(). */
    virtual std::vector<Tensor *> gradients() { return {}; }

    /**
     * All persistent tensors (parameters plus non-learnable state such
     * as batch-norm running statistics); used by save/load/copy.
     */
    virtual std::vector<Tensor *> state() { return parameters(); }

    /**
     * Deep copy of the layer (parameters included). Used by the
     * ANN-to-SNN converter and the hybrid splitter, which need private
     * weight copies they can re-normalize.
     */
    virtual LayerPtr clone() const = 0;

    /** Reset accumulated gradients to zero. */
    void zeroGrad();

    virtual LayerKind kind() const = 0;

    /** Short display name, e.g. "conv3x3(64)". */
    virtual std::string name() const;

    // -- Mapping geometry (weight layers only) ---------------------------

    /** True for layers that map onto crossbars (conv / linear). */
    virtual bool isWeightLayer() const { return false; }

    /** Receptive field Rf = KH*KW*Cin (conv) or fan-in (linear). */
    virtual int receptiveField() const { return 0; }

    /** Number of kernels == output channels / units (crossbar columns). */
    virtual int numKernels() const { return 0; }

    /**
     * Crossbar evaluations needed per input image == number of spatial
     * output positions (1 for linear layers). Valid after a forward pass
     * has fixed the output geometry.
     */
    virtual long long outputPositions() const { return 0; }

    /** Elements in one output feature map (for buffer sizing). */
    virtual long long outputElements() const { return 0; }
};

} // namespace nebula

#endif // NEBULA_NN_LAYER_HPP
