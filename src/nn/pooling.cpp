#include "nn/pooling.hpp"

#include <limits>
#include <sstream>

#include "common/logging.hpp"

namespace nebula {

AvgPool2d::AvgPool2d(int kernel, int stride)
    : kernel_(kernel), stride_(stride > 0 ? stride : kernel)
{
    NEBULA_ASSERT(kernel_ > 0, "bad pooling kernel");
}

std::string
AvgPool2d::name() const
{
    std::ostringstream oss;
    oss << "avgpool" << kernel_ << "x" << kernel_;
    return oss.str();
}

Tensor
AvgPool2d::forward(const Tensor &input, bool train)
{
    if (train)
        inputShape_ = input.shape();
    Tensor output;
    forwardInto(input, output);
    return output;
}

void
AvgPool2d::forwardInto(const Tensor &input, Tensor &output)
{
    NEBULA_ASSERT(input.rank() == 4, "pooling expects NCHW");
    const int batch = input.dim(0), channels = input.dim(1);
    const int in_h = input.dim(2), in_w = input.dim(3);
    const int out_h = (in_h - kernel_) / stride_ + 1;
    const int out_w = (in_w - kernel_) / stride_ + 1;
    NEBULA_ASSERT(out_h > 0 && out_w > 0, "pooling output collapsed");

    output.ensureShape({batch, channels, out_h, out_w});
    const float inv = 1.0f / (kernel_ * kernel_);
    const size_t in_plane = static_cast<size_t>(in_h) * in_w;
    float *out = output.data();
    for (int nc = 0; nc < batch * channels; ++nc) {
        const float *in = input.data() + nc * in_plane;
        for (int oh = 0; oh < out_h; ++oh) {
            for (int ow = 0; ow < out_w; ++ow) {
                float acc = 0.0f;
                for (int kh = 0; kh < kernel_; ++kh) {
                    const float *row = in +
                                       static_cast<size_t>(oh * stride_ + kh) *
                                           in_w +
                                       ow * stride_;
                    for (int kw = 0; kw < kernel_; ++kw)
                        acc += row[kw];
                }
                *out++ = acc * inv;
            }
        }
    }
}

Tensor
AvgPool2d::backward(const Tensor &grad_output)
{
    NEBULA_ASSERT(!inputShape_.empty(), "pool backward before train forward");
    Tensor grad_input(inputShape_);
    const int batch = grad_output.dim(0), channels = grad_output.dim(1);
    const int out_h = grad_output.dim(2), out_w = grad_output.dim(3);
    const int in_w = grad_input.dim(3);
    const size_t in_plane = static_cast<size_t>(grad_input.dim(2)) * in_w;
    const float inv = 1.0f / (kernel_ * kernel_);
    const float *grad_out = grad_output.data();
    for (int nc = 0; nc < batch * channels; ++nc) {
        float *grad_in = grad_input.data() + nc * in_plane;
        for (int oh = 0; oh < out_h; ++oh)
            for (int ow = 0; ow < out_w; ++ow) {
                const float g = *grad_out++ * inv;
                for (int kh = 0; kh < kernel_; ++kh) {
                    float *row = grad_in +
                                 static_cast<size_t>(oh * stride_ + kh) *
                                     in_w +
                                 ow * stride_;
                    for (int kw = 0; kw < kernel_; ++kw)
                        row[kw] += g;
                }
            }
    }
    return grad_input;
}

MaxPool2d::MaxPool2d(int kernel, int stride)
    : kernel_(kernel), stride_(stride > 0 ? stride : kernel)
{
    NEBULA_ASSERT(kernel_ > 0, "bad pooling kernel");
}

std::string
MaxPool2d::name() const
{
    std::ostringstream oss;
    oss << "maxpool" << kernel_ << "x" << kernel_;
    return oss.str();
}

Tensor
MaxPool2d::forward(const Tensor &input, bool train)
{
    NEBULA_ASSERT(input.rank() == 4, "pooling expects NCHW");
    const int batch = input.dim(0), channels = input.dim(1);
    const int in_h = input.dim(2), in_w = input.dim(3);
    const int out_h = (in_h - kernel_) / stride_ + 1;
    const int out_w = (in_w - kernel_) / stride_ + 1;
    NEBULA_ASSERT(out_h > 0 && out_w > 0, "pooling output collapsed");

    Tensor output({batch, channels, out_h, out_w});
    if (train) {
        inputShape_ = input.shape();
        argmax_.assign(static_cast<size_t>(output.size()), 0);
    }

    const float *in = input.data();
    float *out = output.data();
    long long idx = 0;
    for (int nc = 0; nc < batch * channels; ++nc) {
        for (int oh = 0; oh < out_h; ++oh) {
            for (int ow = 0; ow < out_w; ++ow, ++idx) {
                float best = -std::numeric_limits<float>::infinity();
                int best_flat = 0;
                for (int kh = 0; kh < kernel_; ++kh) {
                    const long long row =
                        (static_cast<long long>(nc) * in_h + oh * stride_ +
                         kh) * in_w;
                    for (int kw = 0; kw < kernel_; ++kw) {
                        const long long flat = row + ow * stride_ + kw;
                        const float v = in[flat];
                        if (v > best) {
                            best = v;
                            best_flat = static_cast<int>(flat);
                        }
                    }
                }
                out[idx] = best;
                if (train)
                    argmax_[static_cast<size_t>(idx)] = best_flat;
            }
        }
    }
    return output;
}

Tensor
MaxPool2d::backward(const Tensor &grad_output)
{
    NEBULA_ASSERT(!inputShape_.empty() &&
                      argmax_.size() ==
                          static_cast<size_t>(grad_output.size()),
                  "maxpool backward before train forward");
    Tensor grad_input(inputShape_);
    for (long long i = 0; i < grad_output.size(); ++i)
        grad_input[argmax_[static_cast<size_t>(i)]] += grad_output[i];
    return grad_input;
}

} // namespace nebula
