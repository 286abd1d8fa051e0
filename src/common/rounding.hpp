/**
 * @file
 * Inline rounding for the ANN periphery hot loops (DAC input codes and
 * the neuron readout index), which would otherwise pay a libm call per
 * element.
 */

#ifndef NEBULA_COMMON_ROUNDING_HPP
#define NEBULA_COMMON_ROUNDING_HPP

namespace nebula {

/**
 * Round @p q half away from zero, as std::lround / std::round do, for
 * q in (-0.5, INT_MAX). Truncation gives k = trunc(q); q - k is then exact
 * (k <= q < k + 1 <= 2k for k >= 1, and q - 0 = q for k = 0), so the
 * comparison against 0.5 settles ties and near-ties exactly as libm
 * does. A q in (-0.5, 0], -0.0 included, rounds to 0 both ways.
 */
inline int
roundNonNegative(double q)
{
    int k = static_cast<int>(q);
    k += q - k >= 0.5;
    return k;
}

} // namespace nebula

#endif // NEBULA_COMMON_ROUNDING_HPP
