/**
 * @file
 * Average and max pooling. ANN-to-SNN conversion requires average
 * pooling (paper Sec. V-A): a max over binary spike maps destroys rate
 * information and cannot be computed by a crossbar, whereas the average
 * is a fixed 1/k^2-weighted sum that an IF layer can follow.
 */

#ifndef NEBULA_NN_POOLING_HPP
#define NEBULA_NN_POOLING_HPP

#include "nn/layer.hpp"

namespace nebula {

/** Non-overlapping (or strided) kxk average pooling. */
class AvgPool2d : public Layer
{
  public:
    explicit AvgPool2d(int kernel, int stride = 0);

    Tensor forward(const Tensor &input, bool train = false) override;
    void forwardInto(const Tensor &input, Tensor &output) override;
    Tensor backward(const Tensor &grad_output) override;

    LayerKind kind() const override { return LayerKind::AvgPool; }
    std::string name() const override;
    LayerPtr clone() const override { return std::make_unique<AvgPool2d>(*this); }

    int kernel() const { return kernel_; }
    int stride() const { return stride_; }

  private:
    int kernel_, stride_;
    std::vector<int> inputShape_;
};

/** kxk max pooling (kept for ANN baselines; not SNN-convertible). */
class MaxPool2d : public Layer
{
  public:
    explicit MaxPool2d(int kernel, int stride = 0);

    Tensor forward(const Tensor &input, bool train = false) override;
    Tensor backward(const Tensor &grad_output) override;

    LayerKind kind() const override { return LayerKind::MaxPool; }
    std::string name() const override;
    LayerPtr clone() const override { return std::make_unique<MaxPool2d>(*this); }

  private:
    int kernel_, stride_;
    std::vector<int> inputShape_;
    std::vector<int> argmax_; //!< flat input index per output element
};

} // namespace nebula

#endif // NEBULA_NN_POOLING_HPP
