/**
 * @file
 * Activation and reshaping layers: ReLU, the clipped+quantized ReLU used
 * for 4-bit inference (paper Sec. IV-C), and Flatten.
 */

#ifndef NEBULA_NN_ACTIVATIONS_HPP
#define NEBULA_NN_ACTIVATIONS_HPP

#include "nn/layer.hpp"

namespace nebula {

/** Standard rectified linear unit. */
class Relu : public Layer
{
  public:
    Tensor forward(const Tensor &input, bool train = false) override;
    Tensor backward(const Tensor &grad_output) override;
    LayerKind kind() const override { return LayerKind::Relu; }
    LayerPtr clone() const override { return std::make_unique<Relu>(*this); }

  private:
    std::vector<uint8_t> mask_;
};

/**
 * ReLU clipped at a per-layer ceiling and optionally quantized to a
 * fixed number of levels. This models the percentile-clipped,
 * range-based linear quantization of activations (16 levels for the
 * 4-bit datapath).
 */
class ClippedRelu : public Layer
{
  public:
    /**
     * @param ceiling Clipping point a_max (activations above it clamp).
     * @param levels  Quantization levels; 0 disables quantization.
     */
    explicit ClippedRelu(float ceiling, int levels = 0);

    Tensor forward(const Tensor &input, bool train = false) override;
    Tensor backward(const Tensor &grad_output) override;
    LayerKind kind() const override { return LayerKind::ClippedRelu; }
    std::string name() const override;
    LayerPtr clone() const override
    {
        return std::make_unique<ClippedRelu>(*this);
    }

    float ceiling() const { return ceiling_; }
    int levels() const { return levels_; }

  private:
    float ceiling_;
    int levels_;
    std::vector<uint8_t> mask_;
};

/** NCHW -> (N, C*H*W). */
class Flatten : public Layer
{
  public:
    Tensor forward(const Tensor &input, bool train = false) override;
    void forwardInto(const Tensor &input, Tensor &output) override;
    Tensor backward(const Tensor &grad_output) override;
    LayerKind kind() const override { return LayerKind::Flatten; }
    LayerPtr clone() const override { return std::make_unique<Flatten>(*this); }

  private:
    std::vector<int> inputShape_;
};

} // namespace nebula

#endif // NEBULA_NN_ACTIVATIONS_HPP
