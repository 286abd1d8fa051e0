#include "nn/network.hpp"

#include <cstdint>
#include <cstring>
#include <sstream>

#include "common/logging.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"

namespace nebula {

void
Network::replaceLayer(int i, LayerPtr layer)
{
    NEBULA_ASSERT(i >= 0 && i < numLayers(), "replaceLayer out of range");
    layers_[static_cast<size_t>(i)] = std::move(layer);
}

Tensor
Network::forward(const Tensor &input, bool train)
{
    Tensor x = input;
    for (auto &layer : layers_)
        x = layer->forward(x, train);
    return x;
}

Tensor
Network::forwardCollect(const Tensor &input, std::vector<Tensor> &outputs)
{
    outputs.clear();
    outputs.reserve(layers_.size());
    Tensor x = input;
    for (auto &layer : layers_) {
        x = layer->forward(x, false);
        outputs.push_back(x);
    }
    return x;
}

void
Network::backward(const Tensor &grad_output)
{
    Tensor g = grad_output;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
        g = (*it)->backward(g);
}

std::vector<int>
Network::predict(const Tensor &input)
{
    Tensor logits = forward(input, false);
    NEBULA_ASSERT(logits.rank() == 2, "predict expects 2-D logits");
    std::vector<int> classes(static_cast<size_t>(logits.dim(0)));
    for (int n = 0; n < logits.dim(0); ++n)
        classes[static_cast<size_t>(n)] = logits.argmaxRow(n);
    return classes;
}

Network
Network::clone() const
{
    Network copy(name_);
    for (const auto &layer : layers_)
        copy.addLayer(layer->clone());
    return copy;
}

std::vector<int>
Network::weightLayerIndices() const
{
    std::vector<int> indices;
    for (int i = 0; i < numLayers(); ++i)
        if (layers_[static_cast<size_t>(i)]->isWeightLayer())
            indices.push_back(i);
    return indices;
}

std::vector<Tensor *>
Network::parameters()
{
    std::vector<Tensor *> params;
    for (auto &layer : layers_)
        for (Tensor *p : layer->parameters())
            params.push_back(p);
    return params;
}

std::vector<Tensor *>
Network::gradients()
{
    std::vector<Tensor *> grads;
    for (auto &layer : layers_)
        for (Tensor *g : layer->gradients())
            grads.push_back(g);
    return grads;
}

long long
Network::parameterCount()
{
    long long count = 0;
    for (Tensor *p : parameters())
        count += p->size();
    return count;
}

void
Network::zeroGrad()
{
    for (auto &layer : layers_)
        layer->zeroGrad();
}

bool
Network::hasBatchNorm() const
{
    for (const auto &layer : layers_)
        if (layer->kind() == LayerKind::BatchNorm)
            return true;
    return false;
}

void
Network::foldBatchNorm()
{
    std::vector<LayerPtr> folded;
    folded.reserve(layers_.size());

    for (auto &layer : layers_) {
        if (layer->kind() != LayerKind::BatchNorm) {
            folded.push_back(std::move(layer));
            continue;
        }
        NEBULA_ASSERT(!folded.empty(),
                      "batchnorm with no preceding layer to fold into");
        auto *bn = static_cast<BatchNorm2d *>(layer.get());
        std::vector<float> scale, shift;
        bn->effectiveAffine(scale, shift);

        Layer *prev = folded.back().get();
        if (prev->kind() == LayerKind::Conv) {
            auto *conv = static_cast<Conv2d *>(prev);
            NEBULA_ASSERT(conv->outChannels() == bn->channels(),
                          "batchnorm/conv channel mismatch");
            Tensor &w = conv->weight();
            const long long per_kernel =
                w.size() / conv->outChannels();
            for (int oc = 0; oc < conv->outChannels(); ++oc) {
                for (long long k = 0; k < per_kernel; ++k)
                    w[oc * per_kernel + k] *= scale[static_cast<size_t>(oc)];
                const float old_bias =
                    conv->hasBias() ? conv->bias()[oc] : 0.0f;
                conv->bias()[oc] = scale[static_cast<size_t>(oc)] * old_bias +
                                   shift[static_cast<size_t>(oc)];
            }
            conv->setHasBias(true);
        } else if (prev->kind() == LayerKind::DwConv) {
            auto *conv = static_cast<DwConv2d *>(prev);
            NEBULA_ASSERT(conv->channels() == bn->channels(),
                          "batchnorm/dwconv channel mismatch");
            Tensor &w = conv->weight();
            const long long per_kernel = w.size() / conv->channels();
            for (int c = 0; c < conv->channels(); ++c) {
                for (long long k = 0; k < per_kernel; ++k)
                    w[c * per_kernel + k] *= scale[static_cast<size_t>(c)];
                const float old_bias =
                    conv->hasBias() ? conv->bias()[c] : 0.0f;
                conv->bias()[c] = scale[static_cast<size_t>(c)] * old_bias +
                                  shift[static_cast<size_t>(c)];
            }
            conv->setHasBias(true);
        } else {
            NEBULA_PANIC("cannot fold batchnorm into layer ", prev->name());
        }
        // The BN layer itself is dropped.
    }
    layers_ = std::move(folded);
}

void
Network::copyStateFrom(Network &other)
{
    NEBULA_ASSERT(numLayers() == other.numLayers(),
                  "copyStateFrom layer count mismatch");
    for (int i = 0; i < numLayers(); ++i) {
        auto dst = layers_[static_cast<size_t>(i)]->state();
        auto src = other.layers_[static_cast<size_t>(i)]->state();
        NEBULA_ASSERT(dst.size() == src.size(),
                      "copyStateFrom state mismatch at layer ", i);
        for (size_t k = 0; k < dst.size(); ++k) {
            NEBULA_ASSERT(dst[k]->sameShape(*src[k]),
                          "copyStateFrom shape mismatch at layer ", i);
            dst[k]->raw() = src[k]->raw();
        }
    }
}

namespace {
constexpr uint32_t kMagic = 0x4e454231; // "NEB1"
} // namespace

std::vector<uint8_t>
Network::save()
{
    std::vector<uint8_t> bytes;
    auto put = [&bytes](const void *src, size_t n) {
        const auto *p = static_cast<const uint8_t *>(src);
        bytes.insert(bytes.end(), p, p + n);
    };
    put(&kMagic, sizeof(kMagic));
    const uint32_t layers = static_cast<uint32_t>(layers_.size());
    put(&layers, sizeof(layers));
    for (auto &layer : layers_) {
        for (Tensor *t : layer->state()) {
            const uint64_t n = static_cast<uint64_t>(t->size());
            put(&n, sizeof(n));
            put(t->data(), n * sizeof(float));
        }
    }
    return bytes;
}

bool
Network::load(const uint8_t *data, size_t size)
{
    // The same walk twice: the first pass only checks every count
    // against this network, so a rejected buffer leaves the weights
    // untouched; the second copies.
    for (const bool copy : {false, true}) {
        size_t at = 0;
        auto read = [&](void *dst, size_t n) {
            if (n > size - at)
                return false;
            std::memcpy(dst, data + at, n);
            at += n;
            return true;
        };
        uint32_t magic = 0, layers = 0;
        if (!read(&magic, sizeof(magic)) || !read(&layers, sizeof(layers)) ||
            magic != kMagic || layers != layers_.size())
            return false;
        for (auto &layer : layers_) {
            for (Tensor *t : layer->state()) {
                uint64_t n = 0;
                if (!read(&n, sizeof(n)) ||
                    n != static_cast<uint64_t>(t->size()))
                    return false;
                const size_t bytes = n * sizeof(float);
                if (bytes > size - at)
                    return false;
                if (copy)
                    std::memcpy(t->data(), data + at, bytes);
                at += bytes;
            }
        }
        if (at != size)
            return false;
    }
    return true;
}

std::string
Network::summary() const
{
    std::ostringstream oss;
    oss << "Network '" << name_ << "' (" << numLayers() << " layers)\n";
    for (int i = 0; i < numLayers(); ++i) {
        const Layer &l = layer(i);
        oss << "  [" << i << "] " << l.name();
        if (l.isWeightLayer())
            oss << "  Rf=" << l.receptiveField()
                << " kernels=" << l.numKernels();
        oss << "\n";
    }
    return oss.str();
}

} // namespace nebula
