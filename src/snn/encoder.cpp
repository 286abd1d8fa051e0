#include "snn/encoder.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace nebula {

PoissonEncoder::PoissonEncoder(double rate_scale, uint64_t seed)
    : rateScale_(std::clamp(rate_scale, 0.0, 1.0)), seed_(seed), rng_(seed)
{
}

Tensor
PoissonEncoder::encode(const Tensor &image)
{
    Tensor spikes(image.shape());
    encodeInto(image, spikes);
    return spikes;
}

void
PoissonEncoder::encodeInto(const Tensor &image, Tensor &out)
{
    if (!out.sameShape(image))
        out = Tensor(image.shape());
    const float *in = image.data();
    float *spikes = out.data();
    for (long long i = 0; i < image.size(); ++i) {
        const double p =
            std::clamp(static_cast<double>(in[i]), 0.0, 1.0) * rateScale_;
        spikes[i] = rng_.bernoulli(p) ? 1.0f : 0.0f;
    }
}

void
PoissonEncoder::buildPlan(const Tensor &image, EncodePlan &plan) const
{
    plan.index.clear();
    plan.prob.clear();
    const float *in = image.data();
    for (long long i = 0; i < image.size(); ++i) {
        const double p =
            std::clamp(static_cast<double>(in[i]), 0.0, 1.0) * rateScale_;
        if (p > 0.0) {
            plan.index.push_back(static_cast<int>(i));
            plan.prob.push_back(p);
        }
    }
}

void
PoissonEncoder::encodeActive(const EncodePlan &plan,
                             std::vector<int> &active)
{
    const int *idx = plan.index.data();
    const double *prob = plan.prob.data();
    const size_t n = plan.index.size();
    active.resize(n); // worst case: every plan pixel fires
    int *out = active.data();
    // Mirrors bernoulli(p) exactly: p >= 1 fires without a draw, p in
    // (0, 1) draws one uniform; p <= 0 pixels are absent from the plan
    // and would not have drawn either. The generator runs on a local
    // copy (its state stays in registers across the loop) and the fire
    // decision is a branchless conditional append -- the outcome of a
    // random draw is the one branch no predictor can learn.
    Rng rng = rng_;
    size_t count = 0;
    for (size_t k = 0; k < n; ++k) {
        const double p = prob[k];
        if (p >= 1.0) {
            out[count++] = idx[k];
            continue;
        }
        out[count] = idx[k];
        count += static_cast<size_t>(rng.uniform() < p);
    }
    rng_ = rng;
    active.resize(count);
}

void
PoissonEncoder::reset()
{
    rng_ = Rng(seed_);
}

} // namespace nebula
