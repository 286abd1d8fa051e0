#include "nn/layer.hpp"

#include "common/logging.hpp"

namespace nebula {

const char *
layerKindName(LayerKind kind)
{
    switch (kind) {
      case LayerKind::Conv:        return "conv";
      case LayerKind::DwConv:      return "dwconv";
      case LayerKind::Linear:      return "linear";
      case LayerKind::AvgPool:     return "avgpool";
      case LayerKind::MaxPool:     return "maxpool";
      case LayerKind::BatchNorm:   return "batchnorm";
      case LayerKind::Relu:        return "relu";
      case LayerKind::ClippedRelu: return "clipped_relu";
      case LayerKind::Flatten:     return "flatten";
      case LayerKind::If:          return "if";
    }
    return "unknown";
}

void
Layer::forwardInto(const Tensor &input, Tensor &output)
{
    output = forward(input, false);
}

Tensor
Layer::backward(const Tensor &)
{
    NEBULA_PANIC("backward not implemented for layer ", name());
}

std::string
Layer::name() const
{
    return layerKindName(kind());
}

std::vector<const Tensor *>
Layer::constParameters() const
{
    // parameters() only hands out pointers and has no side effects;
    // the cast is confined here so callers stay const-clean.
    auto params = const_cast<Layer *>(this)->parameters();
    return {params.begin(), params.end()};
}

void
Layer::zeroGrad()
{
    for (Tensor *g : gradients())
        g->zero();
}

} // namespace nebula
