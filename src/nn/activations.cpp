#include "nn/activations.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hpp"

namespace nebula {

Tensor
Relu::forward(const Tensor &input, bool train)
{
    Tensor output = input;
    if (train)
        mask_.assign(static_cast<size_t>(input.size()), 0);
    for (long long i = 0; i < output.size(); ++i) {
        if (output[i] > 0.0f) {
            if (train)
                mask_[static_cast<size_t>(i)] = 1;
        } else {
            output[i] = 0.0f;
        }
    }
    return output;
}

Tensor
Relu::backward(const Tensor &grad_output)
{
    NEBULA_ASSERT(mask_.size() == static_cast<size_t>(grad_output.size()),
                  "relu backward before train forward");
    Tensor grad_input = grad_output;
    for (long long i = 0; i < grad_input.size(); ++i)
        if (!mask_[static_cast<size_t>(i)])
            grad_input[i] = 0.0f;
    return grad_input;
}

ClippedRelu::ClippedRelu(float ceiling, int levels)
    : ceiling_(ceiling), levels_(levels)
{
    NEBULA_ASSERT(ceiling_ > 0.0f, "clip ceiling must be positive");
    NEBULA_ASSERT(levels_ == 0 || levels_ >= 2, "bad quantization levels");
}

std::string
ClippedRelu::name() const
{
    std::ostringstream oss;
    oss << "clipped_relu(" << ceiling_;
    if (levels_)
        oss << ", L" << levels_;
    oss << ")";
    return oss.str();
}

Tensor
ClippedRelu::forward(const Tensor &input, bool train)
{
    Tensor output = input;
    if (train)
        mask_.assign(static_cast<size_t>(input.size()), 0);
    const float step = levels_ ? ceiling_ / (levels_ - 1) : 0.0f;
    for (long long i = 0; i < output.size(); ++i) {
        float v = output[i];
        if (v > 0.0f && v < ceiling_ && train)
            mask_[static_cast<size_t>(i)] = 1;
        v = std::clamp(v, 0.0f, ceiling_);
        if (levels_)
            v = std::round(v / step) * step;
        output[i] = v;
    }
    return output;
}

Tensor
ClippedRelu::backward(const Tensor &grad_output)
{
    NEBULA_ASSERT(mask_.size() == static_cast<size_t>(grad_output.size()),
                  "clipped relu backward before train forward");
    Tensor grad_input = grad_output;
    for (long long i = 0; i < grad_input.size(); ++i)
        if (!mask_[static_cast<size_t>(i)])
            grad_input[i] = 0.0f;
    return grad_input;
}

Tensor
Flatten::forward(const Tensor &input, bool train)
{
    if (train)
        inputShape_ = input.shape();
    Tensor output;
    forwardInto(input, output);
    return output;
}

void
Flatten::forwardInto(const Tensor &input, Tensor &output)
{
    long long features = 1;
    for (int i = 1; i < input.rank(); ++i)
        features *= input.dim(i);
    output.ensureShape({input.dim(0), static_cast<int>(features)});
    std::copy_n(input.data(), input.size(), output.data());
}

Tensor
Flatten::backward(const Tensor &grad_output)
{
    NEBULA_ASSERT(!inputShape_.empty(),
                  "flatten backward before train forward");
    return grad_output.reshaped(inputShape_);
}

} // namespace nebula
