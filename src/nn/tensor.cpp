#include "nn/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/logging.hpp"

namespace nebula {

namespace {

long long
shapeSize(const std::vector<int> &shape)
{
    long long n = 1;
    for (int d : shape) {
        NEBULA_ASSERT(d > 0, "tensor dimensions must be positive");
        n *= d;
    }
    return n;
}

} // namespace

Tensor::Tensor(std::vector<int> shape)
    : shape_(std::move(shape)),
      data_(static_cast<size_t>(shapeSize(shape_)), 0.0f)
{
}

Tensor::Tensor(std::vector<int> shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data))
{
    NEBULA_ASSERT(static_cast<long long>(data_.size()) == shapeSize(shape_),
                  "tensor data size does not match shape");
}

int
Tensor::dim(int i) const
{
    NEBULA_ASSERT(i >= 0 && i < rank(), "dim index ", i, " out of rank ",
                  rank());
    return shape_[i];
}

float &
Tensor::at(int n, int c, int h, int w)
{
    return data_[((static_cast<size_t>(n) * shape_[1] + c) * shape_[2] + h) *
                     shape_[3] +
                 w];
}

float
Tensor::at(int n, int c, int h, int w) const
{
    return data_[((static_cast<size_t>(n) * shape_[1] + c) * shape_[2] + h) *
                     shape_[3] +
                 w];
}

float &
Tensor::at(int n, int f)
{
    return data_[static_cast<size_t>(n) * shape_[1] + f];
}

float
Tensor::at(int n, int f) const
{
    return data_[static_cast<size_t>(n) * shape_[1] + f];
}

void
Tensor::fill(float value)
{
    std::fill(data_.begin(), data_.end(), value);
}

void
Tensor::randn(Rng &rng, float sigma)
{
    for (auto &x : data_)
        x = static_cast<float>(rng.gaussian(0.0, sigma));
}

void
Tensor::uniform(Rng &rng, float lo, float hi)
{
    for (auto &x : data_)
        x = static_cast<float>(rng.uniform(lo, hi));
}

Tensor &
Tensor::reshape(std::vector<int> shape)
{
    NEBULA_ASSERT(shapeSize(shape) == size(),
                  "reshape must preserve element count");
    shape_ = std::move(shape);
    return *this;
}

Tensor &
Tensor::ensureShape(std::initializer_list<int> dims)
{
    if (!std::ranges::equal(shape_, dims))
        *this = Tensor(std::vector<int>(dims));
    return *this;
}

Tensor
Tensor::reshaped(std::vector<int> shape) const
{
    Tensor t = *this;
    t.reshape(std::move(shape));
    return t;
}

Tensor &
Tensor::add(const Tensor &other)
{
    NEBULA_ASSERT(size() == other.size(), "add size mismatch");
    for (size_t i = 0; i < data_.size(); ++i)
        data_[i] += other.data_[i];
    return *this;
}

Tensor &
Tensor::scale(float factor)
{
    for (auto &x : data_)
        x *= factor;
    return *this;
}

float
Tensor::maxAbs() const
{
    float m = 0.0f;
    for (float x : data_)
        m = std::max(m, std::abs(x));
    return m;
}

float
Tensor::max() const
{
    NEBULA_ASSERT(!data_.empty(), "max of empty tensor");
    return *std::max_element(data_.begin(), data_.end());
}

float
Tensor::sum() const
{
    double s = 0.0;
    for (float x : data_)
        s += x;
    return static_cast<float>(s);
}

double
Tensor::mean() const
{
    return data_.empty() ? 0.0 : static_cast<double>(sum()) / size();
}

long long
Tensor::argmax() const
{
    NEBULA_ASSERT(!data_.empty(), "argmax of empty tensor");
    return std::max_element(data_.begin(), data_.end()) - data_.begin();
}

int
Tensor::argmaxRow(int n) const
{
    NEBULA_ASSERT(rank() == 2, "argmaxRow needs a 2-D tensor");
    const int cols = shape_[1];
    const float *row = data_.data() + static_cast<size_t>(n) * cols;
    return static_cast<int>(std::max_element(row, row + cols) - row);
}

std::string
Tensor::shapeString() const
{
    std::ostringstream oss;
    oss << "[";
    for (int i = 0; i < rank(); ++i)
        oss << (i ? ", " : "") << shape_[i];
    oss << "]";
    return oss.str();
}

double
correlation(const Tensor &a, const Tensor &b)
{
    NEBULA_ASSERT(a.size() == b.size(), "correlation size mismatch");
    const long long n = a.size();
    if (n == 0)
        return 0.0;
    double ma = a.mean(), mb = b.mean();
    double cov = 0.0, va = 0.0, vb = 0.0;
    for (long long i = 0; i < n; ++i) {
        const double da = a[i] - ma;
        const double db = b[i] - mb;
        cov += da * db;
        va += da * da;
        vb += db * db;
    }
    if (va == 0.0 || vb == 0.0)
        return 0.0;
    return cov / std::sqrt(va * vb);
}

} // namespace nebula
