/**
 * @file
 * Minimal dense float tensor used by the functional neural-network
 * simulator. Layout is row-major with NCHW convention for images and
 * (N, F) for flattened feature vectors.
 */

#ifndef NEBULA_NN_TENSOR_HPP
#define NEBULA_NN_TENSOR_HPP

#include <initializer_list>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace nebula {

/** Dense float tensor of rank 1..4. */
class Tensor
{
  public:
    Tensor() = default;

    /** Construct zero-filled with the given shape. */
    explicit Tensor(std::vector<int> shape);

    /** Construct with shape and initial data (size must match). */
    Tensor(std::vector<int> shape, std::vector<float> data);

    /** Total number of elements. */
    long long size() const { return static_cast<long long>(data_.size()); }

    /** Rank (number of dimensions). */
    int rank() const { return static_cast<int>(shape_.size()); }

    /** Dimension i. */
    int dim(int i) const;

    const std::vector<int> &shape() const { return shape_; }

    /** True if shapes are identical. */
    bool sameShape(const Tensor &other) const
    {
        return shape_ == other.shape_;
    }

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }
    std::vector<float> &raw() { return data_; }
    const std::vector<float> &raw() const { return data_; }

    float &operator[](long long i) { return data_[static_cast<size_t>(i)]; }
    float operator[](long long i) const
    {
        return data_[static_cast<size_t>(i)];
    }

    /** 4-D accessor (n, c, h, w). */
    float &at(int n, int c, int h, int w);
    float at(int n, int c, int h, int w) const;

    /** 2-D accessor (n, f). */
    float &at(int n, int f);
    float at(int n, int f) const;

    /** Fill with a constant. */
    void fill(float value);

    /** Fill with zeros. */
    void zero() { fill(0.0f); }

    /** Fill with N(0, sigma) draws. */
    void randn(Rng &rng, float sigma = 1.0f);

    /** Fill with U(lo, hi) draws. */
    void uniform(Rng &rng, float lo, float hi);

    /** Reshape in place (element count must be preserved). */
    Tensor &reshape(std::vector<int> shape);

    /**
     * Take shape @p dims, reallocating (zero-filled) only when it is not
     * the current shape: a reused output buffer keeps its storage.
     */
    Tensor &ensureShape(std::initializer_list<int> dims);

    /** Return a reshaped copy. */
    Tensor reshaped(std::vector<int> shape) const;

    /** Elementwise helpers. */
    Tensor &add(const Tensor &other);
    Tensor &scale(float factor);

    /** Reductions. */
    float maxAbs() const;
    float max() const;
    float sum() const;
    double mean() const;

    /** Index of the maximum element (over the whole tensor). */
    long long argmax() const;

    /** Index of the maximum within row n of a 2-D tensor. */
    int argmaxRow(int n) const;

    /** Human-readable shape, e.g. "[2, 3, 32, 32]". */
    std::string shapeString() const;

  private:
    std::vector<int> shape_;
    std::vector<float> data_;
};

/** Pearson correlation between two equal-sized tensors (Fig. 10). */
double correlation(const Tensor &a, const Tensor &b);

} // namespace nebula

#endif // NEBULA_NN_TENSOR_HPP
