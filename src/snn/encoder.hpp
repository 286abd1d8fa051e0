/**
 * @file
 * Rate encoding of input images into Poisson spike trains (paper
 * Sec. V-A item 1): each pixel intensity becomes the per-timestep firing
 * probability of the corresponding input line.
 */

#ifndef NEBULA_SNN_ENCODER_HPP
#define NEBULA_SNN_ENCODER_HPP

#include "common/rng.hpp"
#include "nn/tensor.hpp"

namespace nebula {

/** Bernoulli-per-step (binned Poisson) rate encoder. */
class PoissonEncoder
{
  public:
    /**
     * @param rate_scale Firing probability per step at intensity 1.0
     *                   (clamped to [0, 1]).
     * @param seed       Spike-train seed.
     */
    explicit PoissonEncoder(double rate_scale = 1.0, uint64_t seed = 11);

    /**
     * One timestep of spikes for the given intensity image in [0, 1].
     * Output has the same shape with entries in {0, 1}.
     */
    Tensor encode(const Tensor &image);

    /**
     * encode() into a caller-owned buffer (reshaped to match if needed)
     * so per-timestep loops reuse one allocation. Consumes the same
     * random draws as encode(): interleaving the two forms on one
     * encoder produces the identical spike train.
     */
    void encodeInto(const Tensor &image, Tensor &out);

    /**
     * Precomputed encoding work for one image: the ascending indices of
     * its pixels with nonzero firing probability, and that probability.
     * Serving loops that present the same image for many timesteps
     * build this once instead of re-clamping every pixel per step.
     */
    struct EncodePlan
    {
        std::vector<int> index;   //!< nonzero-probability pixels, ascending
        std::vector<double> prob; //!< firing probability of each
    };

    /** Fill @p plan for @p image (pure function of image and rateScale). */
    void buildPlan(const Tensor &image, EncodePlan &plan) const;

    /**
     * One timestep as an ascending active-pixel index list (the form
     * sparse crossbar drivers consume), driven by a precomputed plan,
     * without materializing the spike tensor. Draw-for-draw identical
     * to encode(image): zero-probability pixels consume no random
     * draws in either form, so skipping them does not shift the
     * stream, and the drawing pixels are visited in the same order.
     */
    void encodeActive(const EncodePlan &plan, std::vector<int> &active);

    /** Restart the spike-train stream (same seed -> same train). */
    void reset();

    double rateScale() const { return rateScale_; }

  private:
    double rateScale_;
    uint64_t seed_;
    Rng rng_;
};

} // namespace nebula

#endif // NEBULA_SNN_ENCODER_HPP
